// test_incremental.cpp — cone-scoped incremental power re-estimation.
//
// The contract under test (power/incremental.hpp): after any journaled
// mutation, IncrementalAnalyzer::reanalyze() must return bit-for-bit what a
// fresh full power::analyze() of the mutated netlist returns, while
// re-simulating only the touched fanout cone.  Supporting layers are pinned
// too: Netlist::fanout_cone_of / cone_of on reconvergent, multi-output and
// register-crossing topologies, touched_nodes() across undo epochs,
// compiled-tape cone splicing, and the flow/pass integration
// (every runner estimate must equal a full analysis exactly).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/diag.hpp"
#include "core/flows.hpp"
#include "core/metrics.hpp"
#include "core/pass.hpp"
#include "activity_reference.hpp"
#include "flow_reference.hpp"
#include "logicsim_reference.hpp"
#include "netlist/benchmarks.hpp"
#include "netlist/hasher.hpp"
#include "power/incremental.hpp"
#include "seq/encoding.hpp"
#include "sim/compiled.hpp"
#include "sim/logicsim.hpp"

namespace {

using namespace lps;

// Exact equality of two analyses: the doubles must be identical bits, not
// merely close — the incremental path derives them through the same
// arithmetic as the full path, so == is the honest assertion.
void expect_identical(const power::Analysis& a, const power::Analysis& b) {
  ASSERT_EQ(a.toggles_per_cycle.size(), b.toggles_per_cycle.size());
  for (std::size_t i = 0; i < a.toggles_per_cycle.size(); ++i)
    EXPECT_EQ(a.toggles_per_cycle[i], b.toggles_per_cycle[i]) << "node " << i;
  EXPECT_EQ(a.report.breakdown.switching_w, b.report.breakdown.switching_w);
  EXPECT_EQ(a.report.breakdown.short_circuit_w,
            b.report.breakdown.short_circuit_w);
  EXPECT_EQ(a.report.breakdown.leakage_w, b.report.breakdown.leakage_w);
  EXPECT_EQ(a.report.total_cap_f, b.report.total_cap_f);
  EXPECT_EQ(a.report.weighted_activity, b.report.weighted_activity);
  EXPECT_EQ(a.clock_power_w, b.clock_power_w);
  EXPECT_EQ(a.vectors_used, b.vectors_used);
}

power::AnalysisOptions zd_options(std::size_t vectors = 2048) {
  power::AnalysisOptions ao;
  ao.mode = power::ActivityMode::ZeroDelay;
  ao.n_vectors = vectors;
  return ao;
}

std::size_t count_set(const std::vector<bool>& v) {
  std::size_t n = 0;
  for (bool b : v)
    if (b) ++n;
  return n;
}

// ---- fanout_cone_of / cone_of topology coverage ---------------------------

TEST(FanoutCone, ReconvergentDiamondVisitedOnce) {
  Netlist net("diamond");
  NodeId a = net.add_input("a");
  NodeId x = net.add_input("x");
  NodeId b = net.add_and(a, x);
  NodeId c = net.add_or(a, x);
  NodeId d = net.add_xor(b, c);  // reconverges on a
  net.add_output(d);
  NodeId roots[] = {a};
  auto cone = net.fanout_cone_of(roots);
  EXPECT_TRUE(cone[a]);
  EXPECT_TRUE(cone[b]);
  EXPECT_TRUE(cone[c]);
  EXPECT_TRUE(cone[d]);
  EXPECT_FALSE(cone[x]);
  EXPECT_EQ(count_set(cone), 4u);
}

TEST(FanoutCone, MultiOutputBranchesBothCovered) {
  Netlist net("multiout");
  NodeId a = net.add_input("a");
  NodeId b = net.add_input("b");
  NodeId g = net.add_and(a, b);
  NodeId o1 = net.add_not(g);
  NodeId o2 = net.add_buf(g);
  net.add_output(o1);
  net.add_output(o2);
  NodeId roots[] = {g};
  auto cone = net.fanout_cone_of(roots);
  EXPECT_TRUE(cone[g]);
  EXPECT_TRUE(cone[o1]);
  EXPECT_TRUE(cone[o2]);
  EXPECT_FALSE(cone[a]);
  EXPECT_FALSE(cone[b]);
}

TEST(FanoutCone, DffBoundaryRespectsThroughFlag) {
  Netlist net("seqcone");
  NodeId a = net.add_input("a");
  NodeId g = net.add_not(a);
  NodeId q = net.add_dff(g);
  NodeId h = net.add_not(q);  // downstream of the register
  net.add_output(h);
  NodeId roots[] = {g};
  auto stop = net.fanout_cone_of(roots, /*through_dffs=*/false);
  EXPECT_TRUE(stop[g]);
  EXPECT_TRUE(stop[q]);   // the register itself is reached...
  EXPECT_FALSE(stop[h]);  // ...but not crossed
  auto cross = net.fanout_cone_of(roots, /*through_dffs=*/true);
  EXPECT_TRUE(cross[q]);
  EXPECT_TRUE(cross[h]);
}

TEST(FanoutCone, DffRootAlwaysExpands) {
  Netlist net("dffroot");
  NodeId a = net.add_input("a");
  NodeId q = net.add_dff(a);
  NodeId h = net.add_not(q);
  net.add_output(h);
  NodeId roots[] = {q};
  auto cone = net.fanout_cone_of(roots, /*through_dffs=*/false);
  EXPECT_TRUE(cone[q]);
  EXPECT_TRUE(cone[h]);  // a root register expands even with the flag off
}

TEST(FaninCone, ReconvergentAndSequentialBoundaries) {
  Netlist net("fanin");
  NodeId a = net.add_input("a");
  NodeId b = net.add_input("b");
  NodeId g1 = net.add_and(a, b);
  NodeId q = net.add_dff(g1);
  NodeId g2 = net.add_xor(q, a);  // reconverges on a
  NodeId g3 = net.add_or(g2, g2);
  net.add_output(g3);
  NodeId roots[] = {g3};
  auto cone = net.cone_of(roots);
  EXPECT_TRUE(cone[g3]);
  EXPECT_TRUE(cone[g2]);
  EXPECT_TRUE(cone[q]);   // register included...
  EXPECT_FALSE(cone[g1]);  // ...its D-side logic is not traversed
  EXPECT_TRUE(cone[a]);
  EXPECT_FALSE(cone[b]);  // b only feeds the un-traversed D logic
}

TEST(FaninCone, MultiOutputRoots) {
  auto net = bench::c17();
  auto outs = net.outputs();
  auto cone = net.cone_of(outs);
  // Every live node of c17 is in the union cone of all outputs.
  for (NodeId id = 0; id < net.size(); ++id) {
    if (!net.is_dead(id)) EXPECT_TRUE(cone[id]) << "node " << id;
  }
}

// ---- touched_nodes() across undo epochs -----------------------------------

TEST(TouchedNodes, NoJournalReportsAll) {
  auto net = bench::c17();
  auto t = net.touched_nodes();
  EXPECT_TRUE(t.all);
  EXPECT_TRUE(t.ids.empty());
}

TEST(TouchedNodes, JournaledEditsAreListed) {
  auto net = bench::alu(4);
  net.begin_undo();
  auto t0 = net.touched_nodes();
  EXPECT_FALSE(t0.all);
  EXPECT_TRUE(t0.ids.empty());

  NodeId pi = net.inputs()[0];
  NodeId g = net.add_not(pi);                 // new node
  net.replace_fanin(net.outputs()[0], 0, g);  // journaled edit
  auto t = net.touched_nodes();
  EXPECT_FALSE(t.all);
  // The new node and the edited node are both reported, ascending & unique.
  EXPECT_TRUE(std::find(t.ids.begin(), t.ids.end(), g) != t.ids.end());
  for (std::size_t i = 1; i < t.ids.size(); ++i)
    EXPECT_LT(t.ids[i - 1], t.ids[i]);

  net.commit_undo();
  EXPECT_TRUE(net.touched_nodes().all);  // epoch closed, journal gone
}

TEST(TouchedNodes, RollbackClosesEpoch) {
  auto net = bench::alu(4);
  net.begin_undo();
  net.add_not(net.inputs()[0]);
  EXPECT_FALSE(net.touched_nodes().all);
  net.rollback_undo();
  EXPECT_TRUE(net.touched_nodes().all);
}

TEST(TouchedNodes, PiListChangeForcesFull) {
  auto net = bench::alu(4);
  net.begin_undo();
  net.add_input("late_pi");
  EXPECT_TRUE(net.touched_nodes().all);
  net.rollback_undo();
}

TEST(TouchedNodes, PoChangeStaysIncremental) {
  auto net = bench::alu(4);
  net.begin_undo();
  net.add_output(net.inputs()[0], "extra_po");
  auto t = net.touched_nodes();
  EXPECT_FALSE(t.all);  // PO list doesn't affect node value streams
  net.rollback_undo();
}

TEST(TouchedNodes, WholesaleReplaceForcesFull) {
  auto net = bench::alu(4);
  net.begin_undo();
  net = strash(net);
  EXPECT_TRUE(net.touched_nodes().all);
  net.rollback_undo();
}

// ---- undo frames ------------------------------------------------------------

// Element-wise equality: ids, tombstones, wiring, parameters and PI/PO lists.
bool same_netlist(const Netlist& a, const Netlist& b) {
  if (a.size() != b.size() || a.inputs() != b.inputs() ||
      a.outputs() != b.outputs() || a.output_names() != b.output_names())
    return false;
  for (NodeId i = 0; i < a.size(); ++i) {
    const Node& x = a.node(i);
    const Node& y = b.node(i);
    if (x.type != y.type || x.fanins != y.fanins || x.fanouts != y.fanouts ||
        x.name != y.name || x.size != y.size || x.delay != y.delay ||
        x.init_value != y.init_value || x.dead != y.dead)
      return false;
  }
  return true;
}

TEST(UndoFrame, RestoreRewindsInLifoOrderAndReportsTouched) {
  auto net = bench::alu(4);
  const Netlist n0 = net.clone();
  const NodeId g = net.outputs()[0], pi = net.inputs()[1];
  ASSERT_FALSE(net.node(g).fanins.empty());
  const NodeId old_fanin = net.node(g).fanins[0];
  ASSERT_NE(old_fanin, pi);

  net.begin_undo();
  net.replace_fanin(g, 0, pi);
  auto f1 = net.commit_undo_frame();
  const Netlist n1 = net.clone();
  const NodeId sized = net.outputs()[1];
  net.begin_undo();
  net.node(sized).size = 3.0;
  auto f2 = net.commit_undo_frame();
  EXPECT_FALSE(net.undo_active());

  // A size-only frame touches one node and seeds no re-simulation.
  net.begin_undo();
  net.restore_frame(f2);
  auto t2 = net.touched_nodes();
  EXPECT_FALSE(t2.all);
  EXPECT_EQ(t2.ids, std::vector<NodeId>{sized});
  EXPECT_TRUE(t2.value_roots.empty());
  net.commit_undo();
  EXPECT_TRUE(same_netlist(net, n1));

  // The rewire frame touches the gate and both fanins; only the gate's
  // value changes.  Rolling the restore back leaves the frame reusable.
  net.begin_undo();
  net.restore_frame(f1);
  auto t1 = net.touched_nodes();
  EXPECT_FALSE(t1.all);
  std::vector<NodeId> want{g, old_fanin, pi};
  std::sort(want.begin(), want.end());
  EXPECT_EQ(t1.ids, want);
  EXPECT_EQ(t1.value_roots, std::vector<NodeId>{g});
  EXPECT_TRUE(same_netlist(net, n0));
  net.rollback_undo();
  EXPECT_TRUE(same_netlist(net, n1));
  net.begin_undo();
  net.restore_frame(f1);
  net.commit_undo();
  EXPECT_TRUE(same_netlist(net, n0));
}

TEST(UndoFrame, AppendingOrWholesaleFrameShrinksBackAndReportsAll) {
  auto net = bench::alu(4);
  const Netlist n0 = net.clone();
  net.begin_undo();
  NodeId x = net.add_not(net.inputs()[0]);
  net.replace_fanin(net.outputs()[0], 0, x);
  auto appended = net.commit_undo_frame();
  net.begin_undo();
  net.restore_frame(appended);
  EXPECT_TRUE(net.touched_nodes().all);
  net.commit_undo();
  EXPECT_EQ(net.size(), n0.size());  // ids match a replay of the prefix
  EXPECT_TRUE(same_netlist(net, n0));

  net.begin_undo();
  net = strash(net);
  auto wholesale = net.commit_undo_frame();
  net.begin_undo();
  net.restore_frame(wholesale);
  EXPECT_TRUE(net.touched_nodes().all);
  net.rollback_undo();  // a rolled-back restore keeps the strashed state
  EXPECT_FALSE(same_netlist(net, n0));
  net.begin_undo();
  net.restore_frame(wholesale);
  net.commit_undo();
  EXPECT_TRUE(same_netlist(net, n0));
}

// Popping frames with cone-scoped re-analysis tracks a fresh full analysis
// bit for bit, all the way back to the original netlist.
TEST(UndoFrame, AnalyzerFollowsRestoresExactly) {
  auto net = bench::random_dag(16, 200, 3);
  const Netlist n0 = net.clone();
  power::AnalysisOptions ao;
  ao.mode = power::ActivityMode::ZeroDelay;
  ao.n_vectors = 512;
  power::IncrementalAnalyzer inc(net, ao);
  std::vector<NodeId> gates;
  for (NodeId id = 0; id < net.size(); ++id)
    if (!net.is_dead(id) && !net.node(id).fanins.empty()) gates.push_back(id);
  std::mt19937 rng(5);
  std::vector<Netlist::UndoFrame> frames;
  for (int e = 0; e < 20; ++e) {
    NodeId g = gates[rng() % gates.size()];
    net.begin_undo();
    net.replace_fanin(g, rng() % net.node(g).fanins.size(),
                      net.inputs()[rng() % net.inputs().size()]);
    inc.reanalyze(net.touched_nodes());
    frames.push_back(net.commit_undo_frame());
  }
  while (!frames.empty()) {
    net.begin_undo();
    net.restore_frame(frames.back());
    inc.reanalyze(net.touched_nodes());
    net.commit_undo();
    frames.pop_back();
    EXPECT_EQ(inc.analysis().report.breakdown.total_w(),
              power::analyze(net, ao).report.breakdown.total_w())
        << frames.size() << " frames left";
  }
  EXPECT_TRUE(same_netlist(net, n0));
}

// ---- cone splicing ---------------------------------------------------------

TEST(EvalCone, SpliceMatchesFullEval) {
  auto net = bench::random_dag(8, 120, 42);
  reference::LogicSim sim(net);
  sim::CompiledSim tape(net);
  std::vector<std::uint64_t> pis(net.inputs().size());
  for (std::size_t i = 0; i < pis.size(); ++i)
    pis[i] = 0x9E3779B97F4A7C15ULL * (i + 1);
  auto full = sim.eval(pis);

  // Corrupt the cone of an internal node, then cone-evaluate it back.
  NodeId root = net.size() / 2;
  while (net.is_dead(root) || net.node(root).type == GateType::Input) ++root;
  NodeId roots[] = {root};
  auto mask = net.fanout_cone_of(roots, true);
  auto sched = tape.cone_schedule(mask);
  auto f = full;
  for (NodeId id : sched.gates) f[id] = ~f[id];
  tape.exec_gates(f.data(), 1, sched.gates);
  EXPECT_EQ(f, full);
}

// ---- incremental vs full bit-identity -------------------------------------

// Apply one journaled mutation, feed the touched set to the analyzer, and
// demand bit-identity with a from-scratch full analysis.
template <typename Fn>
void check_mutation(Netlist net, const power::AnalysisOptions& ao, Fn&& fn) {
  power::IncrementalAnalyzer inc(net, ao);
  net.begin_undo();
  fn(net);
  auto touched = net.touched_nodes();
  net.commit_undo();
  inc.reanalyze(touched);
  expect_identical(inc.analysis(), power::analyze(net, ao));
}

TEST(Incremental, LocalRewriteCombinational) {
  check_mutation(bench::alu(6), zd_options(), [](Netlist& net) {
    // Rewire one gate input to a fresh inverter — a typical local rewrite.
    NodeId g = net.outputs()[0];
    NodeId inv = net.add_not(net.node(g).fanins[0]);
    net.replace_fanin(g, 0, inv);
  });
}

TEST(Incremental, SubstituteRedirectsPo) {
  check_mutation(bench::array_multiplier(4), zd_options(), [](Netlist& net) {
    NodeId o = net.outputs()[0];
    NodeId other = net.outputs()[1];
    net.substitute(o, other);  // touches the PO list but not the PI list
  });
}

TEST(Incremental, RemoveDeadNode) {
  check_mutation(bench::alu(6), zd_options(), [](Netlist& net) {
    // Orphan a gate by redirecting its only fanout, then remove it.
    NodeId victim = kNoNode;
    for (NodeId id = 0; id < net.size(); ++id) {
      const Node& nd = net.node(id);
      if (!net.is_dead(id) && nd.type != GateType::Input &&
          nd.type != GateType::Dff && nd.fanouts.size() == 1 &&
          !nd.fanins.empty()) {
        bool is_po = false;
        for (NodeId o : net.outputs()) is_po |= (o == id);
        if (!is_po) {
          victim = id;
          break;
        }
      }
    }
    ASSERT_NE(victim, kNoNode);
    // substitute() redirects the fanout and removes the now-dead victim —
    // the incremental update must zero its cached counters.
    net.substitute(victim, net.node(victim).fanins[0]);
    ASSERT_TRUE(net.is_dead(victim));
  });
}

TEST(Incremental, SequentialCounterDffCrossing) {
  check_mutation(bench::counter(8), zd_options(), [](Netlist& net) {
    // Invert a D input twice (function preserved, register cone dirtied).
    NodeId d = net.dffs()[2];
    NodeId n1 = net.add_not(net.node(d).fanins[0]);
    NodeId n2 = net.add_not(n1);
    net.replace_fanin(d, 0, n2);
  });
}

TEST(Incremental, ShiftRegisterEnableRewire) {
  check_mutation(bench::shift_register(16), zd_options(), [](Netlist& net) {
    NodeId d = net.dffs()[4];
    NodeId inv2 = net.add_not(net.add_not(net.node(d).fanins[0]));
    net.replace_fanin(d, 0, inv2);
  });
}

TEST(Incremental, ChainOfMutationsStaysIdentical) {
  auto net = bench::alu(4);
  auto ao = zd_options();
  power::IncrementalAnalyzer inc(net, ao);
  for (int step = 0; step < 4; ++step) {
    net.begin_undo();
    NodeId o = net.outputs()[step % net.outputs().size()];
    NodeId inv = net.add_not(net.node(o).fanins.empty()
                                 ? net.inputs()[0]
                                 : net.node(o).fanins[0]);
    if (!net.node(o).fanins.empty()) net.replace_fanin(o, 0, inv);
    auto touched = net.touched_nodes();
    net.commit_undo();
    inc.reanalyze(touched);
    expect_identical(inc.analysis(), power::analyze(net, ao));
  }
}

TEST(Incremental, RevertRestoresBaselineExactly) {
  auto net = bench::alu(6);
  auto ao = zd_options();
  power::IncrementalAnalyzer inc(net, ao);
  auto baseline = inc.analysis();
  net.begin_undo();
  NodeId o = net.outputs()[0];
  NodeId inv = net.add_not(net.node(o).fanins[0]);
  net.replace_fanin(o, 0, inv);
  auto touched = net.touched_nodes();
  inc.reanalyze(touched);
  net.rollback_undo();
  inc.revert_last();
  expect_identical(inc.analysis(), baseline);
  expect_identical(inc.analysis(), power::analyze(net, ao));
  // A second revert has nothing to undo.
  EXPECT_THROW(inc.revert_last(), std::logic_error);
}

TEST(Incremental, RevertAfterFallbackRestoresCache) {
  auto net = bench::alu(4);
  auto ao = zd_options();
  power::IncrementalAnalyzer inc(net, ao);
  auto baseline = inc.analysis();
  net.begin_undo();
  net.add_input("spare");  // PI-list change: forces a full re-baseline
  auto touched = net.touched_nodes();
  EXPECT_TRUE(touched.all);
  inc.reanalyze(touched);
  EXPECT_TRUE(inc.last_update().full_rebaseline);
  net.rollback_undo();
  inc.revert_last();
  expect_identical(inc.analysis(), baseline);
  // The restored cache still supports cone updates.
  net.begin_undo();
  NodeId o = net.outputs()[0];
  net.replace_fanin(o, 0, net.add_not(net.node(o).fanins[0]));
  auto t2 = net.touched_nodes();
  net.commit_undo();
  inc.reanalyze(t2);
  EXPECT_FALSE(inc.last_update().full_rebaseline);
  expect_identical(inc.analysis(), power::analyze(net, ao));
}

TEST(Incremental, TapeFailureRebaselinesAndRevertsExactly) {
  // A failed tape patch degrades the update to a full re-baseline: the
  // result must still be exactly a fresh analysis, and the revert must
  // hand back the pre-update analysis bit for bit.
  auto net = bench::alu(4);
  auto ao = zd_options();
  power::IncrementalAnalyzer inc(net, ao);
  const power::Analysis before = inc.analysis();
  net.begin_undo();
  NodeId o = net.outputs()[0];
  net.replace_fanin(o, 0, net.add_not(net.node(o).fanins[0]));
  auto touched = net.touched_nodes();
  ASSERT_FALSE(touched.all);
  power::detail::force_tape_failures(1);
  inc.reanalyze(touched);
  power::detail::force_tape_failures(0);
  EXPECT_TRUE(inc.last_update().tape_fallback);
  EXPECT_TRUE(inc.last_update().full_rebaseline);
  expect_identical(inc.analysis(), power::analyze(net, ao));
  net.rollback_undo();
  inc.revert_last();
  expect_identical(inc.analysis(), before);
  EXPECT_EQ(inc.analysis().engine, before.engine);
  // The recompiled tape keeps serving cone updates.
  net.begin_undo();
  net.replace_fanin(o, 0, net.add_not(net.node(o).fanins[0]));
  auto t2 = net.touched_nodes();
  net.commit_undo();
  inc.reanalyze(t2);
  EXPECT_FALSE(inc.last_update().full_rebaseline);
  EXPECT_FALSE(inc.last_update().tape_fallback);
  expect_identical(inc.analysis(), power::analyze(net, ao));
}

TEST(Incremental, TimedModeIsRejected) {
  auto net = bench::c17();
  power::AnalysisOptions ao;
  ao.mode = power::ActivityMode::Timed;
  ao.n_vectors = 256;
  EXPECT_THROW(power::IncrementalAnalyzer(net, ao), diag::CheckError);
}

TEST(Incremental, ConeUpdateEvaluatesFarFewerNodes) {
  auto net = bench::array_multiplier(6);
  auto ao = zd_options();
  power::IncrementalAnalyzer inc(net, ao);
  net.begin_undo();
  // Local rewrite near an output: double inversion on one PO driver.
  NodeId o = net.outputs()[net.outputs().size() - 1];
  net.replace_fanin(o, 0, net.add_not(net.add_not(net.node(o).fanins[0])));
  auto touched = net.touched_nodes();
  net.commit_undo();
  inc.reanalyze(touched);
  const auto& up = inc.last_update();
  EXPECT_FALSE(up.full_rebaseline);
  EXPECT_GE(up.live_nodes, 5 * up.resim_nodes)
      << "cone " << up.resim_nodes << " of " << up.live_nodes;
  expect_identical(inc.analysis(), power::analyze(net, ao));

  // A size-only edit (what in-place sizing makes) leaves every value
  // stream intact: nothing is re-simulated, capacitance still moves.
  net.begin_undo();
  net.node(net.node(o).fanins[0]).size = 2.0;
  auto sized = net.touched_nodes();
  net.commit_undo();
  inc.reanalyze(sized);
  EXPECT_FALSE(inc.last_update().full_rebaseline);
  EXPECT_EQ(inc.last_update().resim_nodes, 0u);
  expect_identical(inc.analysis(), power::analyze(net, ao));
}

// ---- satellite: vectors_used reporting ------------------------------------

TEST(Analysis, VectorsUsedReportsFrameRounding) {
  auto net = bench::c17();
  auto a2048 = power::analyze(net, zd_options(2048));
  EXPECT_EQ(a2048.vectors_used, 2048u);
  // 2047 rounds down to 31 frames = 1984 patterns — previously silent.
  auto a2047 = power::analyze(net, zd_options(2047));
  EXPECT_EQ(a2047.vectors_used, 1984u);
  // Tiny requests are clamped up to the 2-frame minimum (128 patterns).
  auto a10 = power::analyze(net, zd_options(10));
  EXPECT_EQ(a10.vectors_used, 128u);
  // Timed mode simulates the requested count exactly.
  power::AnalysisOptions timed;
  timed.mode = power::ActivityMode::Timed;
  timed.n_vectors = 100;
  EXPECT_EQ(power::analyze(net, timed).vectors_used, 100u);
}

// ---- flow / pass integration ----------------------------------------------

void expect_same_stages(const core::FlowResult& a, const core::FlowResult& b) {
  ASSERT_EQ(a.stages.size(), b.stages.size());
  for (std::size_t i = 0; i < a.stages.size(); ++i) {
    EXPECT_EQ(a.stages[i].stage, b.stages[i].stage);
    EXPECT_EQ(a.stages[i].power_w, b.stages[i].power_w) << a.stages[i].stage;
    EXPECT_EQ(a.stages[i].status, b.stages[i].status) << a.stages[i].stage;
    EXPECT_EQ(a.stages[i].gates, b.stages[i].gates);
  }
}

TEST(FlowIncremental, CombinationalMatchesLegacyZeroDelay) {
  core::metrics::reset();
  auto net = bench::alu(4);
  core::FlowOptions opt;
  opt.estimate_mode = power::ActivityMode::ZeroDelay;
  expect_same_stages(core::optimize_combinational(net, opt),
                     reference::flow(net, opt, /*sequential=*/false));
  // The engines' candidate oracles re-simulated less than full analyses
  // of every probe would have.
  EXPECT_LT(core::metrics::value("power.inc.node_evals"),
            core::metrics::value("power.inc.node_evals_full"));
}

TEST(FlowIncremental, CombinationalMatchesLegacyTimed) {
  auto net = bench::carry_select_adder(8, 4);
  core::FlowOptions opt;  // Timed default
  opt.sim_vectors = 256;
  expect_same_stages(core::optimize_combinational(net, opt),
                     reference::flow(net, opt, /*sequential=*/false));
}

TEST(FlowIncremental, SequentialFlowMatchesLegacy) {
  auto net = bench::counter(6);
  core::FlowOptions opt;
  opt.estimate_mode = power::ActivityMode::ZeroDelay;
  opt.sim_vectors = 512;
  auto a = core::optimize_sequential(net, opt);
  expect_same_stages(a, reference::flow(net, opt, /*sequential=*/true));
  // The gating stage ran (kept, reverted, or failed — but present).
  EXPECT_EQ(a.stages.back().stage.rfind("selfloop-gate", 0), 0u);
}

TEST(PassIncremental, EstimatesMatchLegacyAndSurviveRollback) {
  auto net = bench::alu(4);
  core::PassManager::Options opt;
  opt.estimate_power = true;
  opt.estimate.mode = power::ActivityMode::ZeroDelay;
  auto passes = [] {
    std::vector<std::unique_ptr<core::Pass>> v;
    v.push_back(core::make_dontcare_pass());
    v.push_back(std::make_unique<core::FnPass>(
        "broken", [](Netlist& n) -> std::string {
          n.remove(n.outputs()[0]);  // removing a PO driver breaks invariants
          return "boom";
        }));
    v.push_back(core::make_sweep_pass());
    return v;
  };
  core::PassManager pm(opt);
  for (auto& p : passes()) pm.add(std::move(p));
  auto net_inc = net.clone();
  auto rec_inc = pm.run(net_inc);

  auto net_full = net.clone();
  auto rec_full = reference::run(net_full, passes(), opt);

  ASSERT_EQ(rec_inc.size(), 4u);
  ASSERT_EQ(rec_inc.size(), rec_full.size());
  for (std::size_t i = 0; i < rec_inc.size(); ++i) {
    EXPECT_EQ(rec_inc[i].stage, rec_full[i].stage);
    EXPECT_EQ(rec_inc[i].status, rec_full[i].status) << rec_inc[i].stage;
    EXPECT_EQ(rec_inc[i].power_w, rec_full[i].power_w) << rec_inc[i].stage;
  }
  EXPECT_EQ(rec_inc[0].stage, "baseline");
  EXPECT_FALSE(rec_inc[2].ok());  // the broken pass rolled back
  EXPECT_GT(rec_inc[3].power_w, 0.0);
  EXPECT_EQ(structural_hash(net_inc), structural_hash(net_full));
}

TEST(FsmFlow, GatedPowerReportedIdenticallyBothPaths) {
  auto stg = seq::counter_fsm(8);
  core::FlowOptions opt;
  opt.sim_vectors = 256;
  opt.estimate_mode = power::ActivityMode::ZeroDelay;
  auto a = core::optimize_fsm(stg, opt);
  // Reference: fresh full analyses of the ungated and gated circuits.
  auto ao = core::flow_runner_options(opt).estimate;
  seq::AnnealOptions an;
  an.seed = static_cast<std::uint32_t>(opt.seed);
  Netlist low = seq::synthesize_fsm(stg, seq::low_power_encoding(stg, an),
                                    stg.state_name(0) + "_low");
  EXPECT_EQ(a.power_lowpower_w,
            power::analyze(low, ao).report.breakdown.total_w());
  EXPECT_EQ(a.power_gated_w,
            power::analyze(a.circuit, ao).report.breakdown.total_w());
  EXPECT_GT(a.power_gated_w, 0.0);
}

// A combinational trace of 156 frames runs as two shards; a sequential net
// runs as one.  An edit that adds the first register or removes the last
// one must therefore re-baseline, not splice into the old stream.
TEST(Incremental, RegisterSetChangeRebaselines) {
  auto ao = zd_options(10000);
  Netlist net = bench::random_dag(16, 200, 3);
  const Netlist& cn = net;
  power::IncrementalAnalyzer inc(net, ao);
  net.begin_undo();
  const NodeId q = net.add_dff(cn.node(cn.outputs()[0]).fanins[0]);
  net.add_output(q, "q");
  inc.reanalyze(net.touched_nodes());
  net.commit_undo();
  EXPECT_TRUE(inc.last_update().full_rebaseline);
  expect_identical(inc.analysis(), power::analyze(cn, ao));

  net.begin_undo();
  net.substitute(q, cn.inputs()[0]);  // the only register goes away
  inc.reanalyze(net.touched_nodes());
  net.commit_undo();
  EXPECT_TRUE(inc.last_update().full_rebaseline);
  expect_identical(inc.analysis(), power::analyze(cn, ao));
}

// ---- block-layout trace under edit scripts --------------------------------

// Every field of two analyses, per-node vectors included, bit for bit.
void expect_bit_equal(const power::Analysis& a, const power::Analysis& b,
                      const std::string& what) {
  EXPECT_EQ(a.toggles_per_cycle, b.toggles_per_cycle) << what;
  EXPECT_EQ(a.report.node_switching_w, b.report.node_switching_w) << what;
  EXPECT_EQ(a.report.node_power_w, b.report.node_power_w) << what;
  EXPECT_EQ(a.report.breakdown.switching_w, b.report.breakdown.switching_w)
      << what;
  EXPECT_EQ(a.report.breakdown.short_circuit_w,
            b.report.breakdown.short_circuit_w)
      << what;
  EXPECT_EQ(a.report.breakdown.leakage_w, b.report.breakdown.leakage_w)
      << what;
  EXPECT_EQ(a.report.total_cap_f, b.report.total_cap_f) << what;
  EXPECT_EQ(a.report.weighted_activity, b.report.weighted_activity) << what;
  EXPECT_EQ(a.clock_power_w, b.clock_power_w) << what;
  EXPECT_EQ(a.vectors_used, b.vectors_used) << what;
  EXPECT_EQ(a.engine, b.engine) << what;
}

// outputs_digest()'s formula over a fresh run of `net`, frame by frame.
std::uint64_t frame_major_digest(const Netlist& net,
                                 const power::AnalysisOptions& ao) {
  sim::ActivityTrace t;
  sim::measure_activity(net, power::zero_delay_frames(ao.n_vectors), ao.seed,
                        ao.pi_one_prob, &t);
  std::uint64_t d = 0x9E3779B97F4A7C15ull;
  for (const sim::Frame& f : reference::frames_of(t, net.size()).frames)
    for (std::size_t j = 0; j < net.outputs().size(); ++j)
      d = core::mix64(d ^ (f[net.outputs()[j]] +
                           0x9E3779B97F4A7C15ull * (j + 1)));
  return d;
}

// A counter whose odd registers load only when an XOR of two state bits is
// high, and whose register 2 loads on a primary input.
Netlist load_enabled_counter() {
  Netlist net = bench::counter(8);
  const std::vector<NodeId> q = net.dffs();
  const NodeId en = net.add_xor(q[0], q[3]);
  for (std::size_t i = 1; i < q.size(); i += 2) net.set_dff_enable(q[i], en);
  net.set_dff_enable(q[2], net.add_input("load"));
  return net;
}

// A seeded script of journaled edits, each kept (its frame stacked) or
// reverted, with frame restores interleaved.  Every edit reaches `track`
// as update(touched) while its epoch is open; a reverted one is then
// rolled back and followed by revert(); after every step check(what).
struct ScriptCoverage {
  int kind[6] = {};
  int kept = 0, reverted = 0, restores = 0, cone_updates = 0;
};

template <class Track>
void edit_script(Netlist& net, std::uint32_t seed, const std::string& name,
                 Track& track, ScriptCoverage& cov) {
  std::mt19937 rng(seed);
  std::vector<Netlist::UndoFrame> frames;
  auto pick = [&](std::size_t n) { return static_cast<std::size_t>(rng() % n); };
  for (int step = 0; step < 24; ++step) {
    const Netlist& cn = net;  // reads must not journal nodes
    const std::string what = name + " step " + std::to_string(step);
    if (!frames.empty() && pick(5) == 0) {
      net.begin_undo();
      net.restore_frame(frames.back());
      track.update(net.touched_nodes());
      net.commit_undo();
      frames.pop_back();
      ++cov.restores;
      track.check(what + " restore");
      continue;
    }
    // Live gates (not registers), by id; any smaller id is a fanin that
    // cannot close a combinational cycle, since every non-register edge
    // runs from a smaller id to a larger one.
    std::vector<NodeId> gates;
    for (NodeId id = 0; id < cn.size(); ++id)
      if (!cn.is_dead(id) && !is_source(cn.node(id).type) &&
          cn.node(id).type != GateType::Dff && !cn.node(id).fanins.empty())
        gates.push_back(id);
    const NodeId g = gates[pick(gates.size())];
    const NodeId f = static_cast<NodeId>(pick(g));
    net.begin_undo();
    const std::size_t kind = pick(6);
    ++cov.kind[kind];
    switch (kind) {
      case 0:
        if (!cn.is_dead(f))
          net.replace_fanin(g, pick(cn.node(g).fanins.size()), f);
        break;
      case 1:
        net.node(g).size = 1.0 + static_cast<double>(pick(4));
        break;
      case 2: {
        const NodeId a = cn.inputs()[pick(cn.inputs().size())];
        const NodeId x = net.add_gate(GateType::Nand, {a, g});
        if (pick(2)) net.add_output(x, "x" + std::to_string(step));
        break;
      }
      case 3:
        net.add_output(g, "o" + std::to_string(step));
        break;
      case 4:
        if (!cn.is_dead(f) && cn.node(f).type != GateType::Dff)
          net.substitute(g, f);  // redirects g's uses, then removes g
        break;
      case 5: {
        const NodeId x = net.add_not(g);  // dangling, then removed
        net.remove(x);
        break;
      }
    }
    if (track.update(net.touched_nodes())) ++cov.cone_updates;
    if (pick(3) == 0) {
      net.rollback_undo();
      track.revert();
      ++cov.reverted;
      track.check(what + " reverted");
    } else {
      frames.push_back(net.commit_undo_frame());
      ++cov.kept;
      track.check(what + " kept");
    }
  }
}

// The analyzer must equal a fresh analysis bit for bit, its cached
// capacitances must equal node_capacitances(), and its output digest the
// digest of a fresh frame-major run.
struct AnalyzerTrack {
  const Netlist& net;
  power::AnalysisOptions ao;
  power::IncrementalAnalyzer inc;
  AnalyzerTrack(const Netlist& n, std::size_t vectors)
      : net(n), ao(zd_options(vectors)), inc(n, ao) {}
  bool update(const Netlist::TouchedNodes& t) {
    inc.reanalyze(t);
    return !inc.last_update().full_rebaseline;
  }
  void revert() { inc.revert_last(); }
  void check(const std::string& what) {
    expect_bit_equal(inc.analysis(), power::analyze(net, ao), what);
    EXPECT_EQ(inc.capacitances(), power::node_capacitances(net, ao.params))
        << what;
    EXPECT_EQ(inc.outputs_digest(), frame_major_digest(net, ao)) << what;
  }
};

void run_edit_script(Netlist net, std::size_t vectors, std::uint32_t seed,
                     const std::string& name, ScriptCoverage& cov) {
  AnalyzerTrack track(net, vectors);
  edit_script(net, seed, name + "/" + std::to_string(vectors), track, cov);
}

TEST(Incremental, BlockTraceEditScriptsMatchAnalyze) {
  // 32 frames in one shard, 15 frames in one tail block, and 156 frames in
  // two shards whose seam (frame 78) falls inside a block.
  ScriptCoverage cov;
  for (std::size_t vectors : {2048u, 1000u, 10000u}) {
    run_edit_script(bench::random_dag(64, 2000, 7), vectors, 1, "rand", cov);
    run_edit_script(bench::array_multiplier(8), vectors, 2, "mult8", cov);
    run_edit_script(load_enabled_counter(), vectors, 3, "le-counter", cov);
  }
  for (int k : cov.kind) EXPECT_GT(k, 0);
  EXPECT_GT(cov.kept, 0);
  EXPECT_GT(cov.reverted, 0);
  EXPECT_GT(cov.restores, 0);
  EXPECT_GT(cov.cone_updates, cov.kept / 2);
}

// The hasher's kept value must equal a from-scratch structural_hash after
// every edit and every undo, and a scoped update re-hashes no node outside
// the analyzer's re-simulated cone but the size- and delay-only roots.
struct HashTrack {
  const Netlist& net;
  StructuralHasher hasher;
  power::IncrementalAnalyzer inc;
  explicit HashTrack(const Netlist& n)
      : net(n), hasher(n), inc(n, zd_options(256)) {}
  bool update(const Netlist::TouchedNodes& t) {
    const std::uint64_t before = hasher.rehashed();
    hasher.update(t);
    inc.reanalyze(t);
    EXPECT_EQ(hasher.value(), structural_hash(net));
    if (!inc.last_update().full_rebaseline) {
      EXPECT_LE(hasher.rehashed() - before,
                inc.last_update().resim_nodes + t.param_roots.size());
    }
    return !inc.last_update().full_rebaseline;
  }
  void revert() {
    hasher.undo();
    inc.revert_last();
  }
  void check(const std::string& what) {
    EXPECT_EQ(hasher.value(), structural_hash(net)) << what;
  }
};

TEST(StructuralHash, IncrementalMatchesFull) {
  ScriptCoverage cov;
  auto run = [&](Netlist net, std::uint32_t seed, const std::string& name) {
    HashTrack track(net);
    edit_script(net, seed, name, track, cov);
  };
  run(bench::random_dag(64, 2000, 7), 1, "rand");
  run(bench::array_multiplier(8), 2, "mult8");
  run(load_enabled_counter(), 3, "le-counter");
  for (int k : cov.kind) EXPECT_GT(k, 0);
  EXPECT_GT(cov.reverted, 0);
  EXPECT_GT(cov.restores, 0);

  // Registers: add and remove Dffs, move enables and D pins, flip init
  // values, resize them, change any node's delay; kept, reverted or
  // restored from a frame.
  Netlist net = load_enabled_counter();
  StructuralHasher hasher(net);
  std::mt19937 rng(11);
  auto pick = [&](std::size_t n) { return static_cast<std::size_t>(rng() % n); };
  std::vector<Netlist::UndoFrame> frames;
  int kinds[6] = {};
  for (int step = 0; step < 200; ++step) {
    const Netlist& cn = net;
    const std::string what = "seq step " + std::to_string(step);
    net.begin_undo();
    if (!frames.empty() && pick(6) == 0) {
      net.restore_frame(frames.back());
      frames.pop_back();
    } else {
      std::vector<NodeId> live, regs;
      for (NodeId id = 0; id < cn.size(); ++id) {
        if (cn.is_dead(id)) continue;
        live.push_back(id);
        if (cn.node(id).type == GateType::Dff) regs.push_back(id);
      }
      const NodeId any = live[pick(live.size())];
      const NodeId q = regs.empty() ? kNoNode : regs[pick(regs.size())];
      const std::size_t kind = q == kNoNode ? 0 : pick(6);
      ++kinds[kind];
      switch (kind) {
        case 0: {
          const NodeId d = net.add_dff(any, pick(2) != 0);
          if (pick(2)) net.add_output(d, "q" + std::to_string(step));
          break;
        }
        case 1:  // the register's users read a PI instead; it is removed
          net.substitute(q, cn.inputs()[pick(cn.inputs().size())]);
          break;
        case 2:
          if (cn.dff_has_enable(q)) net.replace_fanin(q, 1, any);
          else net.set_dff_enable(q, any);
          break;
        case 3:
          net.node(q).init_value = !cn.node(q).init_value;
          break;
        case 4:
          net.replace_fanin(q, 0, any);
          break;
        case 5:  // size or delay: the node's key moves, its hash does not
          if (pick(2)) net.node(q).size += 1.0;
          else net.node(any).delay += 1;
          break;
      }
    }
    hasher.update(net.touched_nodes());
    EXPECT_EQ(hasher.value(), structural_hash(net)) << what;
    if (pick(3) == 0) {
      net.rollback_undo();
      hasher.undo();
      EXPECT_EQ(hasher.value(), structural_hash(net)) << what << " undone";
    } else {
      frames.push_back(net.commit_undo_frame());
    }
  }
  for (int k : kinds) EXPECT_GT(k, 0);
}

// The whole generated suite: one local mutation per circuit, exact equality.
TEST(Incremental, FullSuiteDifferential) {
  for (auto& [name, net0] : bench::default_suite()) {
    Netlist net = std::move(net0);
    auto ao = zd_options(512);
    power::IncrementalAnalyzer inc(net, ao);
    net.begin_undo();
    NodeId o = net.outputs()[0];
    if (!net.node(o).fanins.empty()) {
      net.replace_fanin(o, 0, net.add_not(net.add_not(net.node(o).fanins[0])));
    } else {
      net.add_output(net.add_not(o), "extra");
    }
    auto touched = net.touched_nodes();
    net.commit_undo();
    inc.reanalyze(touched);
    auto full = power::analyze(net, ao);
    EXPECT_EQ(inc.analysis().report.breakdown.total_w(),
              full.report.breakdown.total_w())
        << name;
    EXPECT_EQ(inc.analysis().report.weighted_activity,
              full.report.weighted_activity)
        << name;
  }
}

}  // namespace
