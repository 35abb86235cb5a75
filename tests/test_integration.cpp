// Cross-module integration tests: the survey's techniques composed
// end-to-end, with exact (BDD) verification where feasible.

#include <gtest/gtest.h>

#include <random>

#include "logicsim_reference.hpp"
#include "bdd/bdd_netlist.hpp"
#include "coding/bus_invert.hpp"
#include "core/flows.hpp"
#include "logicopt/path_balance.hpp"
#include "logicopt/techmap.hpp"
#include "netlist/benchmarks.hpp"
#include "netlist/blif.hpp"
#include "power/activity.hpp"
#include "seq/encoding.hpp"
#include "seq/precompute.hpp"
#include "seq/seq_circuit.hpp"
#include "sim/waveform.hpp"
#include "sim/logicsim.hpp"

namespace lps {
namespace {

TEST(Integration, FlowPreservesFunctionExactly) {
  // BDD-exact equivalence through the full combinational flow.
  for (const auto& name : {"rca8", "cmp8", "dec4"}) {
    Netlist net;
    if (std::string(name) == "rca8") net = bench::ripple_carry_adder(8);
    if (std::string(name) == "cmp8") net = bench::comparator_gt(8);
    if (std::string(name) == "dec4") net = bench::decoder(4);
    core::FlowOptions opt;
    opt.sim_vectors = 256;
    auto r = core::optimize_combinational(net, opt);
    EXPECT_TRUE(bdd::equivalent_bdd(net, r.circuit)) << name;
  }
}

TEST(Integration, MapThenBalanceThenMeasure) {
  // Technology mapping composed with glitch removal: both rewrites must
  // stack functionally, and the balanced mapped circuit must glitch less.
  auto net = bench::carry_select_adder(8, 2);
  auto lib = logicopt::standard_library();
  auto subject = logicopt::subject_graph(net);
  auto mapped = logicopt::tech_map(net, lib, logicopt::MapObjective::Power)
                    .to_netlist(subject);
  EXPECT_TRUE(sim::equivalent_random(net, mapped, 256, 3));
  double glitch_before =
      sim::measure_timed_activity(mapped, 400, 5).glitch_fraction();
  logicopt::full_balance(mapped);
  EXPECT_TRUE(sim::equivalent_random(net, mapped, 256, 7));
  double glitch_after =
      sim::measure_timed_activity(mapped, 400, 5).glitch_fraction();
  EXPECT_LE(glitch_after, glitch_before);
  EXPECT_NEAR(glitch_after, 0.0, 1e-9);
}

TEST(Integration, Figure1EndToEnd) {
  // The paper's one figure, reproduced end to end: comparator, subset
  // selection, XNOR LE, trace equivalence, measured power reduction.
  const int n = 8;
  auto comb = bench::comparator_gt(n);
  auto sel = seq::select_precompute_inputs(comb, 2);
  EXPECT_NEAR(sel.hit_probability, 0.5, 1e-9);
  auto pre = seq::apply_precomputation(comb, sel.subset);
  auto base = seq::registered_baseline(comb);

  // Cycle-accurate equality on 2000 random cycles.
  reference::LogicSim sa(base), sb(pre.circuit);
  auto da = base.dffs(), db = pre.circuit.dffs();
  std::vector<std::uint64_t> qa(da.size()), qb(db.size());
  for (std::size_t i = 0; i < da.size(); ++i)
    qa[i] = base.node(da[i]).init_value ? ~0ULL : 0;
  for (std::size_t i = 0; i < db.size(); ++i)
    qb[i] = pre.circuit.node(db[i]).init_value ? ~0ULL : 0;
  std::mt19937_64 rng(31);
  std::vector<std::uint64_t> pi(base.inputs().size());
  for (int cyc = 0; cyc < 2000 / 64; ++cyc) {
    for (auto& w : pi) w = rng();
    auto fa = sa.eval(pi, qa);
    auto fb = sb.eval(pi, qb);
    ASSERT_EQ(sa.outputs_of(fa), sb.outputs_of(fb)) << "cycle " << cyc;
    qa = sa.next_state_of(fa);
    qb = sb.next_state_of(fb);
  }

  power::AnalysisOptions ao;
  ao.n_vectors = 2048;
  double pb = power::analyze(base, ao).report.breakdown.total_w();
  double pp = power::analyze(pre.circuit, ao).report.breakdown.total_w();
  EXPECT_LT(pp, pb * 0.95);  // at least 5% whole-circuit saving
}

TEST(Integration, FsmEncodeSynthesizeMeasure) {
  // Low-power encoding must translate from the abstract weighted-switching
  // objective into real measured flip-flop power on the synthesized logic.
  auto stg = seq::counter_fsm(16);
  auto bin = seq::binary_encoding(stg);
  auto low = seq::low_power_encoding(stg);
  auto nb = seq::synthesize_fsm(stg, bin, "bin");
  auto nl = seq::synthesize_fsm(stg, low, "low");
  // Measure actual FF toggles under random stimulus.
  auto sb = sim::measure_activity(nb, 256, 9);
  auto sl = sim::measure_activity(nl, 256, 9);
  double tb = 0, tl = 0;
  for (NodeId d : nb.dffs()) tb += sb.transition_prob[d];
  for (NodeId d : nl.dffs()) tl += sl.transition_prob[d];
  EXPECT_LT(tl, tb);
}

TEST(Integration, BlifRoundTripThroughOptimization) {
  // Export/import composed with optimization: a BLIF-level user sees the
  // same functional circuit.
  auto net = bench::alu(4);
  core::FlowOptions opt;
  opt.sim_vectors = 256;
  opt.run_sizing = false;
  auto r = core::optimize_combinational(net, opt);
  auto text = blif::write_string(r.circuit);
  auto back = blif::read_string(text);
  EXPECT_TRUE(sim::equivalent_random(net, back, 256, 13));
}

TEST(Integration, RegisteredDatapathWithBusCoding) {
  // Datapath power (gate level) + bus power (coding level) in one budget:
  // verify the combined accounting is self-consistent.
  auto words = sim::uniform_stream(16, 4096, 21);
  auto bus = coding::evaluate_bus_invert(words, 16);
  EXPECT_GT(bus.raw_transitions, bus.coded_transitions);
  auto net = seq::registered(bench::ripple_carry_adder(8));
  power::AnalysisOptions ao;
  ao.n_vectors = 512;
  auto a = power::analyze(net, ao);
  EXPECT_GT(a.report.breakdown.total_w(), 0.0);
  EXPECT_GT(a.report.breakdown.switching_fraction(), 0.8);
}

}  // namespace
}  // namespace lps
