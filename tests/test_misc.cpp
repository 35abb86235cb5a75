// Coverage for the newest additions: MCNC machines, polling FSM, STG
// predicate gating, clock-power accounting, estimator ladder consistency.

#include <gtest/gtest.h>

#include "netlist/benchmarks.hpp"
#include "power/activity.hpp"
#include "power/probability.hpp"
#include "seq/clock_gating.hpp"
#include "seq/encoding.hpp"
#include "seq/guarded_eval.hpp"
#include "seq/seq_circuit.hpp"
#include "seq/stg.hpp"
#include "sim/waveform.hpp"
#include "sim/logicsim.hpp"

namespace lps {
namespace {

TEST(McncFsm, Dk27WellFormedAndSynthesizable) {
  auto g = seq::mcnc_dk27();
  EXPECT_EQ(g.num_states(), 7);
  EXPECT_EQ(g.num_inputs(), 1);
  EXPECT_EQ(g.num_outputs(), 2);
  EXPECT_EQ(g.check(), "");
  auto net = seq::synthesize_fsm(g, seq::binary_encoding(g));
  EXPECT_EQ(net.check(), "");
  EXPECT_EQ(net.dffs().size(), 3u);
}

TEST(McncFsm, ArbiterNeverDoubleGrants) {
  auto g = seq::mcnc_bbara_fragment();
  EXPECT_EQ(g.check(), "");
  for (const auto& t : g.transitions())
    EXPECT_NE(t.output, "11") << "double grant";
  // Low-power encoding still beats random on it.
  auto rnd = seq::random_encoding(g, 5);
  auto low = seq::low_power_encoding(g);
  EXPECT_LE(low.weighted_switching(g), rnd.weighted_switching(g) + 1e-9);
}

TEST(PollingFsm, SelfLoopsHalfTheTime) {
  auto g = seq::polling_fsm(8);
  EXPECT_EQ(g.check(), "");
  // Under uniform inputs every state self-loops with probability 1/2.
  auto m = g.transition_matrix();
  for (int s = 0; s < g.num_states(); ++s) EXPECT_NEAR(m[s][s], 0.5, 1e-12);
}

TEST(StgPredicateGating, BeatsComparatorOnPollingFsm) {
  auto stg = seq::polling_fsm(16);
  auto enc = seq::binary_encoding(stg);
  auto net = seq::synthesize_fsm(stg, enc);
  power::AnalysisOptions ao;
  ao.n_vectors = 2048;
  double plain = power::analyze(net, ao).report.breakdown.total_w();
  auto gated = net.clone();
  seq::gate_self_loops_from_stg(gated, stg, enc);
  double pred = power::analyze(gated, ao).report.breakdown.total_w();
  EXPECT_LT(pred, plain);  // the [4] transformation pays off
}

TEST(ClockPower, GatingReducesAnalyzeTotals) {
  // A register file whose hold muxes are converted to gated clocks must get
  // cheaper under the full Eqn.(1)+clock analysis.
  auto rf = seq::register_file(8, 8);
  power::AnalysisOptions ao;
  ao.n_vectors = 1024;
  auto before = power::analyze(rf, ao);
  auto gated = rf.clone();
  auto ps = seq::detect_hold_patterns(gated);
  seq::apply_clock_gating(gated, ps);
  auto after = power::analyze(gated, ao);
  EXPECT_GT(before.clock_power_w, 0.0);
  EXPECT_LT(after.clock_power_w, before.clock_power_w);
  EXPECT_LT(after.report.breakdown.total_w(),
            before.report.breakdown.total_w());
}

TEST(ClockPower, FreeRunningRegisterPaysFullClock) {
  Netlist n;
  NodeId a = n.add_input("a");
  NodeId q = n.add_dff(a, false, "q");
  n.add_output(q, "y");
  power::AnalysisOptions ao;
  ao.n_vectors = 256;
  auto r = power::analyze(n, ao);
  power::PowerParams pp;
  double expect = 0.5 * (2.0 * pp.clock_pin_ff) * 1e-15 * pp.vdd * pp.vdd *
                  pp.freq;
  EXPECT_NEAR(r.clock_power_w, expect, expect * 1e-9);
}

TEST(EstimatorLadder, ZeroDelayUnderestimatesTimedOnGlitchyLogic) {
  auto net = bench::ripple_carry_adder(8);
  auto timed = sim::measure_timed_activity(net, 2048, 3);
  auto zd = sim::measure_activity(net, 64, 3);
  double t_total = 0, z_total = 0;
  for (NodeId id = 0; id < net.size(); ++id) {
    t_total += timed.total_toggles[id] / 2048.0;
    z_total += zd.transition_prob[id];
  }
  EXPECT_GT(t_total, z_total * 1.1);  // glitches are real on a ripple adder
  // And the exact-BDD rates agree with zero-delay simulation.
  auto ex = power::toggle_rate_from_probs(power::signal_probs_exact(net));
  double e_total = 0;
  for (NodeId id = 0; id < net.size(); ++id) e_total += ex[id];
  EXPECT_NEAR(e_total, z_total, z_total * 0.05);
}

}  // namespace
}  // namespace lps
