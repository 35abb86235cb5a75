// Hybrid BDD→MUX extraction (logicopt/bdd_synth.hpp): soundness of every
// kept cone against the interpreter, the support cap, the shared kernel's
// failure paths, flow integration and worker-count identity, and the power
// estimators' degrade-to-simulation fallback when the BDD node budget is
// exceeded.

#include <gtest/gtest.h>

#include <vector>

#include "bdd/bdd_netlist.hpp"
#include "core/flows.hpp"
#include "core/metrics.hpp"
#include "core/pass.hpp"
#include "logicopt/bdd_synth.hpp"
#include "logicopt/candidate.hpp"
#include "netlist/benchmarks.hpp"
#include "power/probability.hpp"
#include "sim/logicsim.hpp"

namespace lps {
namespace {

std::vector<std::pair<std::string, Netlist>> family() {
  std::vector<std::pair<std::string, Netlist>> f;
  f.emplace_back("mult4", bench::array_multiplier(4));
  f.emplace_back("alu4", bench::alu(4));
  f.emplace_back("addsub8", bench::alu_addsub(8));
  f.emplace_back("dct8", bench::dct_butterfly(8));
  f.emplace_back("cmp8", bench::comparator_gt(8));
  f.emplace_back("csel16", bench::carry_select_adder(16, 4));
  return f;
}

// Every kept cone must be interpreter-exact: the mutated netlist computes
// the original function bit-for-bit, the invariants hold, and the engine
// itself reports zero proof failures.  Power never increases (losers are
// rolled back through the journal).
TEST(BddSynth, KeptConesAreInterpreterExact) {
  for (const auto& [name, orig] : family()) {
    Netlist net = strash(orig);
    auto r = logicopt::synthesize_bdd_cones(net);
    EXPECT_EQ(r.unsound, 0u) << name;
    EXPECT_TRUE(net.check().empty()) << name;
    EXPECT_TRUE(sim::equivalent_random(orig, net, 512, 23)) << name;
    EXPECT_LE(r.power_after_w, r.power_before_w) << name;
    EXPECT_GT(r.cones_examined, 0u) << name;
    EXPECT_EQ(r.cones_examined,
              r.kept + r.reverted + r.unsound + r.cones_capped +
                  r.cones_limited)
        << name;
  }
}

// The engine never leaves journal epochs open or half-applied candidates:
// running inside a caller's epoch and rolling that epoch back restores the
// input circuit exactly.
TEST(BddSynth, NestsInsideCallerEpoch) {
  Netlist net = strash(bench::alu_addsub(8));
  std::uint64_t before = structural_hash(net);
  net.begin_undo();
  auto r = logicopt::synthesize_bdd_cones(net);
  EXPECT_GE(r.kept + r.reverted, 1u);
  net.rollback_undo();
  EXPECT_EQ(structural_hash(net), before);
}

TEST(BddSynth, SupportCapSkipsWideConesLoudly) {
  Netlist net = strash(bench::carry_select_adder(16, 4));  // 33 inputs
  logicopt::BddSynthOptions bo;
  bo.max_inputs = 4;
  auto r = logicopt::synthesize_bdd_cones(net, bo);
  EXPECT_GT(r.cones_capped, 0u);
  EXPECT_FALSE(r.note.empty());
  EXPECT_TRUE(net.check().empty());
}

// The cap and sifting knobs are BddSynthOptions fields (the former
// LPS_BDD_SYNTH_* environment variables are gone): a cap below every
// cone's support keeps nothing, with sifting off.
TEST(BddSynth, EnvKnobsControlCapAndSifting) {
  Netlist net = strash(bench::alu(4));  // 10 inputs: every cone is wider
  logicopt::BddSynthOptions bo;
  bo.max_inputs = 2;
  bo.sift = false;
  auto r = logicopt::synthesize_bdd_cones(net, bo);
  EXPECT_EQ(r.kept, 0u);
  EXPECT_EQ(r.cones_capped, r.cones_examined);
}

// The shared candidate kernel's chaos hooks reach this engine: a forced
// proof failure on a would-be keep rolls the cone back and is counted ...
TEST(BddSynth, InjectedUnsoundKeepIsRolledBackAndCounted) {
  core::metrics::reset();
  const Netlist input = strash(bench::alu_addsub(8));
  Netlist net = input.clone();
  logicopt::candidate::detail::force_unsound_keeps(1);
  auto r = logicopt::synthesize_bdd_cones(net);
  logicopt::candidate::detail::force_unsound_keeps(0);
  EXPECT_EQ(r.unsound, 1u);
  EXPECT_EQ(core::metrics::value("logicopt.bdd_synth.unsound"), 1.0);
  EXPECT_TRUE(net.check().empty());
  EXPECT_TRUE(bdd::equivalent_bdd(input, net));
}

// ... and a transform that dies with a cone's epoch still open fails the
// pass cleanly: the pass epoch unwinds to the input circuit.
TEST(BddSynth, MidCandidateFaultRollsBackThePassEpoch) {
  Netlist net = strash(bench::alu_addsub(8));
  std::uint64_t h0 = structural_hash(net);
  core::PassManager pm;
  pm.add(core::make_bdd_synth_pass());
  logicopt::candidate::detail::force_throw_on_candidate(3);
  auto records = pm.run(net);
  logicopt::candidate::detail::force_throw_on_candidate(0);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].status, "failed");
  EXPECT_EQ(structural_hash(net), h0);
  EXPECT_EQ(net.undo_depth(), 0u);
  EXPECT_EQ(net.check(), "");
}

TEST(BddSynth, PassManagerIntegration) {
  Netlist net = strash(bench::alu_addsub(8));
  core::PassManager pm;
  pm.add(core::make_bdd_synth_pass());
  auto records = pm.run(net);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(core::all_ok(records));
  EXPECT_TRUE(net.check().empty());
}

// The flow stage and the whole ladder around it are bit-identical at any
// candidate-scoring worker count: the bdd_synth engine is sequential by
// construction, and the speculative stages transplant deltas exactly.
TEST(BddSynth, FlowIsBitIdenticalAcrossWorkerCounts) {
  const Netlist input = bench::alu_addsub(8);
  std::vector<std::uint64_t> hashes;
  std::vector<double> finals;
  for (int workers : {1, 4}) {
    core::FlowOptions fo;
    fo.opt_workers = workers;
    fo.run_bdd_synth = true;  // the stage under test is opt-in
    auto res = core::optimize_combinational(input, fo);
    bool saw_stage = false;
    for (const auto& s : res.stages) saw_stage |= s.stage.rfind("bdd_synth", 0) == 0;
    EXPECT_TRUE(saw_stage);
    EXPECT_TRUE(sim::equivalent_random(input, res.circuit, 512, 23));
    hashes.push_back(structural_hash(res.circuit));
    finals.push_back(res.stages.back().power_w);
  }
  EXPECT_EQ(hashes[0], hashes[1]);
  EXPECT_EQ(finals[0], finals[1]);
}

// ---- power-estimator degradation (satellite of the same substrate) -----

TEST(PowerFallback, SignalProbsDegradeToSimulationOnBddLimit) {
  Netlist net = bench::alu(4);
  core::metrics::reset();
  power::detail::force_bdd_limit(1);
  auto p = power::signal_probs_exact(net);
  std::vector<double> pip(net.inputs().size(), 0.5);
  auto ref = sim::measure_activity(net, 4096, 7, pip).signal_prob;
  ASSERT_EQ(p.size(), ref.size());
  for (std::size_t i = 0; i < p.size(); ++i) EXPECT_EQ(p[i], ref[i]) << i;
  EXPECT_EQ(core::metrics::value("power.exact.bdd_limit"), 1.0);
  // The forced failure is consumed: the next call is symbolic again and
  // agrees with the independent estimator on a tree-like circuit's PIs.
  auto p2 = power::signal_probs_exact(net);
  EXPECT_EQ(core::metrics::value("power.exact.bdd_limit"), 1.0);
  for (NodeId pi : net.inputs()) EXPECT_NEAR(p2[pi], 0.5, 1e-12);
}

TEST(PowerFallback, TransitionDensityDegradesToSimulationOnBddLimit) {
  Netlist net = bench::comparator_gt(4);
  core::metrics::reset();
  power::detail::force_bdd_limit(1);
  auto d = power::transition_density(net);
  std::vector<double> pip(net.inputs().size(), 0.5);
  auto ref = sim::measure_activity(net, 4096, 7, pip).transition_prob;
  ASSERT_EQ(d.size(), ref.size());
  for (std::size_t i = 0; i < d.size(); ++i) EXPECT_EQ(d[i], ref[i]) << i;
  EXPECT_EQ(core::metrics::value("power.exact.bdd_limit"), 1.0);
}

}  // namespace
}  // namespace lps
