// Logic-level optimization tests: don't-cares, path balancing, technology
// mapping, power-aware factoring bridges.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "bdd/bdd_netlist.hpp"
#include "core/metrics.hpp"
#include "logicopt/dontcare.hpp"
#include "logicopt/library.hpp"
#include "logicopt/path_balance.hpp"
#include "logicopt/power_factor.hpp"
#include "logicopt/resynth.hpp"
#include "logicopt/techmap.hpp"
#include "netlist/benchmarks.hpp"
#include "power/activity.hpp"
#include "sim/waveform.hpp"
#include "sim/logicsim.hpp"

#include "balance_reference.hpp"
#include "dontcare_reference.hpp"

namespace lps::logicopt {
namespace {

TEST(DontCare, RemovesOdcRedundantGate) {
  // y = (a AND b) OR a  == a: the AND gate is ODC-redundant.
  Netlist n;
  NodeId a = n.add_input("a");
  NodeId b = n.add_input("b");
  NodeId g = n.add_and(a, b);
  NodeId y = n.add_or(g, a);
  n.add_output(y, "y");
  auto golden = n.clone();
  auto st = sim::measure_activity(n, 64, 1);
  auto res = optimize_dontcare(n, st.transition_prob);
  EXPECT_GT(res.const_replacements + res.merges, 0);
  EXPECT_LT(res.gates_after, res.gates_before);
  EXPECT_TRUE(bdd::equivalent_bdd(golden, n));
}

TEST(DontCare, PreservesFunctionOnSuite) {
  for (const auto& [name, net] : bench::default_suite()) {
    if (net.num_gates() > 300) continue;  // keep the test fast
    Netlist work = net.clone();
    auto st = sim::measure_activity(work, 64, 2);
    DontCareOptions opt;
    opt.max_rewrites = 40;
    optimize_dontcare(work, st.transition_prob, opt);
    EXPECT_TRUE(sim::equivalent_random(net, work, 256, 5)) << name;
    EXPECT_EQ(work.check(), "") << name;
  }
}

TEST(DontCare, NoFalsePositivesOnIrredundantCircuit) {
  // A parity tree has no ODC freedom anywhere.
  auto net = bench::parity_tree(8);
  auto st = sim::measure_activity(net, 64, 3);
  auto res = optimize_dontcare(net, st.transition_prob);
  EXPECT_EQ(res.const_replacements, 0);
  EXPECT_EQ(res.merges, 0);
}

TEST(DontCare, NodeLimitIsReportedNotSwallowed) {
  auto net = bench::alu(4);
  auto golden = net.clone();
  auto st = sim::measure_activity(net, 64, 5);
  core::metrics::reset();
  DontCareOptions opt;
  opt.bdd_limit = 16;  // far below what the ALU's global functions need
  auto res = optimize_dontcare(net, st.transition_prob, opt);
  EXPECT_TRUE(res.limited);
  EXPECT_EQ(core::metrics::value("logicopt.dontcare.limited"), 1.0);
  // Stopping early still leaves a consistent, equivalent circuit.
  EXPECT_EQ(net.check(), "");
  EXPECT_TRUE(sim::equivalent_random(golden, net, 256, 5));

  // The default budget completes without the flag.
  auto ok = optimize_dontcare(golden, st.transition_prob);
  EXPECT_FALSE(ok.limited);
}

TEST(DontCare, NodeLimitCanTripMidStage) {
  // The node functions live for the whole stage, so the budget can run out
  // after some rewrites (three on this circuit); those rewrites stay.
  const Netlist golden = bench::random_dag(32, 150, 9);
  Netlist net = golden.clone();
  auto st = sim::measure_activity(net, 64, 2);
  core::metrics::reset();
  DontCareOptions opt;
  opt.bdd_limit = 2000;
  auto res = optimize_dontcare(net, st.transition_prob, opt);
  EXPECT_TRUE(res.limited);
  EXPECT_EQ(core::metrics::value("logicopt.dontcare.limited"), 1.0);
  EXPECT_GT(res.const_replacements + res.merges, 0);
  EXPECT_LT(res.gates_after, res.gates_before);
  EXPECT_EQ(res.gates_after, net.num_gates());
  EXPECT_EQ(net.check(), "");
  EXPECT_TRUE(bdd::equivalent_bdd(golden, net));
}

TEST(DontCare, DffEnableLogicIsObservable) {
  // The AND gate only drives a load enable: its care set is everything.
  Netlist n;
  NodeId a = n.add_input("a");
  NodeId b = n.add_input("b");
  NodeId c = n.add_input("c");
  NodeId q = n.add_dff(c, false, "q");
  n.set_dff_enable(q, n.add_and(a, b));
  n.add_output(q, "q");
  auto golden = n.clone();
  auto st = sim::measure_activity(n, 64, 1);
  auto res = optimize_dontcare(n, st.transition_prob);
  EXPECT_EQ(res.const_replacements, 0);
  EXPECT_EQ(res.merges, 0);
  EXPECT_TRUE(bdd::equivalent_bdd(golden, n));
}

// random_dag(16, 60) plus load-enabled registers: each D is a DAG gate, each
// enable an absorption-redundant or(and(x, y), x) that only the enable pin
// observes, and each register output feeds a PO through an AND.
Netlist with_enabled_registers(std::uint32_t seed) {
  Netlist net = bench::random_dag(16, 60, seed);
  std::vector<NodeId> gates;
  for (NodeId id : net.topo_order())
    if (!is_source(net.node(id).type)) gates.push_back(id);
  for (std::size_t k = 0; k < 4; ++k) {
    auto pick = [&](std::size_t i) { return gates[i % gates.size()]; };
    NodeId x = pick(7 * k + 3), y = pick(11 * k + 5);
    NodeId q = net.add_dff(pick(13 * k + 1), k % 2 == 1);
    net.set_dff_enable(q, net.add_or(net.add_and(x, y), x));
    net.add_output(net.add_and(q, pick(5 * k + 2)),
                   "r" + std::to_string(k));
  }
  return net;
}

TEST(DontCare, MatchesReference) {
  // The simulation prefilter only skips candidates the BDD would reject,
  // so the rewrite sequence must equal the unfiltered algorithm's.
  auto expect_match = [](const std::string& name, const Netlist& input,
                         const DontCareOptions& opt) {
    Netlist fast = input.clone(), ref = input.clone();
    auto st = sim::measure_activity(fast, 64, 2);
    auto a = optimize_dontcare(fast, st.transition_prob, opt);
    auto b = reference::optimize_dontcare(ref, st.transition_prob, opt);
    EXPECT_EQ(a.const_replacements, b.const_replacements) << name;
    EXPECT_EQ(a.merges, b.merges) << name;
    EXPECT_EQ(a.limited, b.limited) << name;
    EXPECT_EQ(structural_hash(fast), structural_hash(ref)) << name;
    EXPECT_TRUE(bdd::equivalent_bdd(input, fast)) << name;
  };
  DontCareOptions dflt, area, capped;
  area.power_aware = false;
  capped.max_rewrites = 5;

  for (const auto& [name, net] : bench::default_suite())
    if (net.num_gates() <= 300) expect_match(name, net, dflt);
  for (std::uint32_t seed : {1u, 2u, 3u, 4u, 5u, 6u})
    expect_match("rand32x150_s" + std::to_string(seed),
                 bench::random_dag(32, 150, seed), dflt);
  for (std::uint32_t seed : {1u, 2u, 3u})
    expect_match("rand16x60_s" + std::to_string(seed),
                 bench::random_dag(16, 60, seed), dflt);
  expect_match("rand16x60", bench::random_dag(16, 60, 7), dflt);
  expect_match("enabled_regs", with_enabled_registers(11), dflt);
  expect_match("rand16x60 area", bench::random_dag(16, 60, 8), area);
  expect_match("rand32x150 capped", bench::random_dag(32, 150, 9), capped);

  // A budget at which the safe point collects between rewrites: the node
  // functions kept rooted across the stage must survive every collection
  // (re-lowered functions left unrooted are swept and the pass crashes).
  // The reference, whose fresh-variable cofactors need far more nodes,
  // runs at the default budget.
  {
    const Netlist input = bench::random_dag(32, 150, 9);
    Netlist fast = input.clone(), ref = input.clone();
    auto st = sim::measure_activity(fast, 64, 2);
    DontCareOptions tight;
    tight.bdd_limit = 3000;  // NodeLimitCanTripMidStage: 2000 runs out
    core::metrics::reset();
    auto a = optimize_dontcare(fast, st.transition_prob, tight);
    EXPECT_GT(core::metrics::value("bdd.gc.runs"), 0.0);
    auto b = reference::optimize_dontcare(ref, st.transition_prob, dflt);
    EXPECT_FALSE(a.limited);
    EXPECT_FALSE(b.limited);
    EXPECT_EQ(a.const_replacements, b.const_replacements);
    EXPECT_EQ(a.merges, b.merges);
    EXPECT_EQ(structural_hash(fast), structural_hash(ref));
    EXPECT_TRUE(bdd::equivalent_bdd(input, fast));
  }
}

// Every GateType, a 70-fanin gate inside other gates' fanout, constants
// feeding MUXes, and a load-enabled register whose pins are observed.
Netlist every_gate_type() {
  Netlist net("every_type");
  std::vector<NodeId> pis;
  for (int i = 0; i < 70; ++i)
    pis.push_back(net.add_input("i" + std::to_string(i)));
  const NodeId c0 = net.add_const(false), c1 = net.add_const(true);
  std::vector<NodeId> mid;
  int k = 0;
  for (GateType t : {GateType::And, GateType::Or, GateType::Nand,
                     GateType::Nor, GateType::Xor, GateType::Xnor}) {
    mid.push_back(net.add_gate(t, {pis[k], pis[k + 6], pis[k + 12]}));
    ++k;
  }
  mid.push_back(net.add_buf(mid[0]));
  mid.push_back(net.add_not(mid[1]));
  mid.push_back(net.add_mux(mid[2], mid[3], c1));
  mid.push_back(net.add_mux(pis[20], c0, mid[4]));
  std::vector<NodeId> wide(pis.begin() + 10, pis.end());  // 60 PIs
  wide.insert(wide.end(), mid.begin(), mid.end());        // + 10 gates
  const NodeId wide_xnor = net.add_gate(GateType::Xnor, wide);
  const NodeId wide_or = net.add_gate(GateType::Or, std::move(wide));
  net.add_output(net.add_and(wide_or, mid[5]), "y0");
  net.add_output(wide_xnor, "y1");
  const NodeId q = net.add_dff(mid[6], true, "q");
  net.set_dff_enable(q, mid[7]);
  net.add_output(net.add_xor(q, mid[8]), "y2");
  net.add_output(mid[9], "y3");
  return net;
}

// The prefilter's care masks on the compiled tape equal the interpreter's
// bit for bit, so the pass keeps the same verdicts and rewrite sequence.
TEST(DontCare, CareMasksMatchInterpreter) {
  auto expect_match = [](const std::string& name, const Netlist& net) {
    const auto tape = detail::simulated_care_masks(net);
    const auto ref = reference::simulated_care_masks(net);
    ASSERT_EQ(tape.size(), ref.size()) << name;
    EXPECT_TRUE(std::any_of(tape.begin(), tape.end(),
                            [](std::uint64_t w) { return w != 0; }))
        << name;
    for (std::size_t i = 0; i < tape.size(); ++i)
      ASSERT_EQ(tape[i], ref[i]) << name << " node " << i / 8 << " word "
                                 << i % 8;
  };
  for (const auto& [name, net] : bench::default_suite())
    if (net.num_gates() <= 300) expect_match(name, net);
  expect_match("enabled_regs", with_enabled_registers(11));
  expect_match("every_gate_type", every_gate_type());
}

// A pass that rewrites nothing journals nothing: its reads go through the
// const node() view, which never copies a pre-image.
TEST(DontCare, NoOpRunsJournalNoNodes) {
  Netlist net = bench::parity_tree(8);
  const auto act = sim::measure_activity(net, 64, 1).transition_prob;
  net.begin_undo();
  auto dc = optimize_dontcare(net, act);
  EXPECT_EQ(dc.const_replacements + dc.merges, 0);
  EXPECT_EQ(net.undo_entries(), 0u);
  auto rs = resynthesize_windows(net, act);
  EXPECT_EQ(rs.nodes_rewritten, 0);
  EXPECT_EQ(net.undo_entries(), 0u);
  net.rollback_undo();
}

TEST(Balance, EliminatesGlitchesPreservesDelayAndFunction) {
  auto net = bench::array_multiplier(4);
  auto golden = net.clone();
  int delay_before = net.critical_delay();
  double glitch_before =
      sim::measure_timed_activity(net, 400, 3).glitch_fraction();
  auto r = full_balance(net);
  EXPECT_GT(r.buffers_inserted, 0);
  EXPECT_EQ(net.critical_delay(), delay_before);
  EXPECT_TRUE(sim::equivalent_random(golden, net, 256, 7));
  double glitch_after =
      sim::measure_timed_activity(net, 400, 3).glitch_fraction();
  EXPECT_GT(glitch_before, 0.05);
  EXPECT_NEAR(glitch_after, 0.0, 1e-9);
}

TEST(Balance, PartialUsesBudgetAndReducesGlitching) {
  auto net = bench::array_multiplier(4);
  double total_before = sim::measure_timed_activity(net, 400, 3).sum_total();
  auto r = partial_balance(net, 20);
  EXPECT_LE(r.buffers_inserted, 20);
  EXPECT_GT(r.buffers_inserted, 0);
  EXPECT_EQ(r.critical_delay_after, r.critical_delay_before);
  double total_after = sim::measure_timed_activity(net, 400, 3).sum_total();
  // Gate transitions shrink even counting the new buffers.
  EXPECT_LT(total_after, total_before * 1.05);
}

// One timing pass and one list of skewed slots pad exactly what the
// re-timing reference pads: the same nodes in the same order, the same
// hash, the same delays.
TEST(Balance, MatchesReference) {
  std::vector<bench::NamedNetlist> cases = bench::default_suite();
  for (int gates : {250, 500, 1000})
    cases.push_back({"rand64x" + std::to_string(gates),
                     bench::random_dag(64, gates, 1)});
  cases.push_back({"enabled_regs", with_enabled_registers(11)});
  auto expect_match = [](const std::string& name, const Netlist& got_net,
                         const Netlist& want_net, const BalanceResult& got,
                         const BalanceResult& want) {
    EXPECT_EQ(structural_hash(got_net), structural_hash(want_net)) << name;
    ASSERT_EQ(got_net.size(), want_net.size()) << name;
    for (NodeId id = 0; id < got_net.size(); ++id)
      EXPECT_EQ(got_net.node(id).fanins, want_net.node(id).fanins)
          << name << " node " << id;
    EXPECT_EQ(got.buffers_inserted, want.buffers_inserted) << name;
    EXPECT_EQ(got.critical_delay_before, want.critical_delay_before) << name;
    EXPECT_EQ(got.critical_delay_after, want.critical_delay_after) << name;
  };
  for (const auto& [name, net0] : cases) {
    Netlist got_net = net0.clone(), want_net = net0.clone();
    auto got = full_balance(got_net);
    auto want = reference::full_balance(want_net);
    expect_match(name + " full", got_net, want_net, got, want);
    for (int budget : {0, 20, 1000}) {
      Netlist got_p = net0.clone(), want_p = net0.clone();
      auto gp = partial_balance(got_p, budget);
      auto wp = reference::partial_balance(want_p, budget);
      expect_match(name + " partial " + std::to_string(budget), got_p, want_p,
                   gp, wp);
    }
  }
}

TEST(Library, StandardCellsWellFormed) {
  auto lib = standard_library();
  EXPECT_GT(lib.gates.size(), 10u);
  for (const auto& g : lib.gates) {
    EXPECT_GT(g.pattern.num_leaves(), 0) << g.name;
    EXPECT_GT(g.area, 0) << g.name;
  }
}

TEST(Library, DecomposeNand2Equivalent) {
  for (const auto& [name, net] : bench::default_suite()) {
    auto d = decompose_nand2(net);
    for (NodeId id = 0; id < d.size(); ++id) {
      if (d.is_dead(id)) continue;
      auto t = d.node(id).type;
      EXPECT_TRUE(t == GateType::Nand || t == GateType::Not ||
                  is_source(t) || t == GateType::Dff)
          << name;
    }
    EXPECT_TRUE(sim::equivalent_random(net, d, 128, 11)) << name;
  }
}

TEST(TechMap, MappingPreservesFunction) {
  auto lib = standard_library();
  for (const auto& name : {"c17", "rca8", "cmp8", "alu4"}) {
    Netlist net;
    if (std::string(name) == "c17") net = bench::c17();
    if (std::string(name) == "rca8") net = bench::ripple_carry_adder(8);
    if (std::string(name) == "cmp8") net = bench::comparator_gt(8);
    if (std::string(name) == "alu4") net = bench::alu(4);
    auto subject = subject_graph(net);
    for (auto obj :
         {MapObjective::Area, MapObjective::Delay, MapObjective::Power}) {
      auto r = tech_map(net, lib, obj);
      EXPECT_FALSE(r.instances.empty()) << name;
      Netlist mapped = r.to_netlist(subject);
      EXPECT_TRUE(sim::equivalent_random(net, mapped, 256, 13)) << name;
    }
  }
}

TEST(TechMap, ObjectivesTradeOff) {
  auto lib = standard_library();
  auto net = bench::ripple_carry_adder(16);
  auto ra = tech_map(net, lib, MapObjective::Area);
  auto rd = tech_map(net, lib, MapObjective::Delay);
  auto rp = tech_map(net, lib, MapObjective::Power);
  // Each objective should win (or tie) its own metric.
  EXPECT_LE(ra.total_area, rd.total_area + 1e-9);
  EXPECT_LE(ra.total_area, rp.total_area + 1e-9);
  EXPECT_LE(rd.arrival, ra.arrival + 1e-9);
  EXPECT_LE(rd.arrival, rp.arrival + 1e-9);
  EXPECT_LE(rp.switched_cap_ff, ra.switched_cap_ff + 1e-9);
  EXPECT_LE(rp.switched_cap_ff, rd.switched_cap_ff + 1e-9);
}

TEST(TechMap, UsesComplexCells) {
  auto lib = standard_library();
  auto net = bench::comparator_gt(16);
  auto r = tech_map(net, lib, MapObjective::Area);
  int complex_cells = 0;
  for (const auto& [cell, count] : r.cell_histogram) {
    if (cell != "INVx1" && cell != "NAND2x1") complex_cells += count;
  }
  EXPECT_GT(complex_cells, 0);
}

TEST(PowerFactor, BothFormsEquivalentToFlat) {
  auto f = sop::Sop::parse(6, "11---- + 1-1--- + --11-- + ---1-1 + 0----1");
  std::vector<double> probs{0.5, 0.9, 0.1, 0.5, 0.3, 0.7};
  auto cmp = compare_factorings(f, probs);
  EXPECT_TRUE(sim::equivalent_random(cmp.flat, cmp.literal_form, 64, 17));
  EXPECT_TRUE(sim::equivalent_random(cmp.flat, cmp.power_form, 64, 17));
  EXPECT_LE(cmp.lits_literal, cmp.lits_flat);
}

}  // namespace
}  // namespace lps::logicopt
