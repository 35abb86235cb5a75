// Power model and probabilistic-estimation tests (Eqn. 1, §IV-A).

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>
#include <utility>

#include "netlist/benchmarks.hpp"
#include "netlist/blif.hpp"
#include "power/activity.hpp"
#include "power/power_model.hpp"
#include "power/probability.hpp"
#include "power_reference.hpp"
#include "sim/logicsim.hpp"

namespace lps::power {
namespace {

TEST(PowerModel, CapacitanceGrowsWithFanout) {
  Netlist n;
  NodeId a = n.add_input("a");
  NodeId g1 = n.add_not(a);
  NodeId g2 = n.add_not(a);
  NodeId g3 = n.add_and(g1, g2);
  n.add_output(g3, "y");
  auto cap = node_capacitances(n, PowerParams{});
  EXPECT_GT(cap[a], cap[g3]);
}

TEST(PowerModel, SizingScalesInputCap) {
  Netlist n;
  NodeId a = n.add_input("a");
  NodeId g = n.add_not(a);
  n.add_output(g, "y");
  PowerParams p;
  double before = node_capacitances(n, p)[a];
  n.node(g).size = 4.0;
  EXPECT_GT(node_capacitances(n, p)[a], before);
}

// Every capacitance and every PowerReport field equal to the per-node-scan
// reference, bit for bit, under the default constants and under constants
// whose sums round (where k * cin_ff and k additions of cin_ff differ).
void expect_matches_reference(const Netlist& net, const std::string& what) {
  PowerParams odd;
  odd.cin_ff = 10.3;
  odd.cwire_ff = 4.7;
  odd.cself_ff = 5.1;
  std::mt19937_64 rng(net.size());
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<double> tg(net.size());
  for (double& t : tg) t = u(rng);
  for (const PowerParams& p : {PowerParams{}, odd}) {
    auto cap = node_capacitances(net, p);
    ASSERT_EQ(cap.size(), net.size()) << what;
    for (NodeId id = 0; id < net.size(); ++id)
      EXPECT_EQ(cap[id], reference::node_capacitance(net, id, p))
          << what << " node " << id;
    PowerReport got;
    compute_power(net, tg, cap, p, got);
    auto want = reference::compute_power(net, tg, p);
    EXPECT_EQ(got.node_switching_w, want.node_switching_w) << what;
    EXPECT_EQ(got.node_power_w, want.node_power_w) << what;
    EXPECT_EQ(got.breakdown.switching_w, want.breakdown.switching_w) << what;
    EXPECT_EQ(got.breakdown.short_circuit_w, want.breakdown.short_circuit_w)
        << what;
    EXPECT_EQ(got.breakdown.leakage_w, want.breakdown.leakage_w) << what;
    EXPECT_EQ(got.total_cap_f, want.total_cap_f) << what;
    EXPECT_EQ(got.weighted_activity, want.weighted_activity) << what;
  }
}

TEST(PowerModel, CapacitancesMatchReference) {
  for (const auto& [name, net] : bench::default_suite())
    expect_matches_reference(net, name);

  // The lpsd-style session net: random_dag exposes every fanout-free node
  // as an output, so the parsed BLIF carries hundreds of POs.
  diag::DiagEngine eng(8);
  auto session = blif::parse_string(
      blif::write_string(bench::random_dag(64, 2000, 1)), eng, "<rand>");
  ASSERT_TRUE(session.has_value()) << eng.str();
  ASSERT_GT(session->outputs().size(), 100u);
  expect_matches_reference(*session, "rand64x2000");
  std::mt19937 rng(7);
  for (NodeId id = 0; id < session->size(); ++id)
    if (!is_source(session->node(id).type))
      session->node(id).size = 1.0 + 0.25 * static_cast<double>(rng() % 13);
  expect_matches_reference(*session, "rand64x2000 resized");

  // Nodes listed several times as POs.  Under the rounding constants, 3
  // loads on a size-1.5 gate and 4 on a size-1 gate round differently when
  // added as k * cin_ff than one at a time.
  Netlist multi;
  NodeId a = multi.add_input("a");
  NodeId b = multi.add_input("b");
  NodeId g2 = multi.add_and(a, b);
  NodeId g3 = multi.add_or(a, b);
  NodeId g4 = multi.add_xor(a, b);
  multi.node(g3).size = 1.5;
  for (auto [g, k] : {std::pair{g2, 2}, {g3, 3}, {g4, 4}})
    for (int i = 0; i < k; ++i)
      multi.add_output(g, "y" + std::to_string(g) + "_" + std::to_string(i));
  multi.add_output(a, "ya");
  expect_matches_reference(multi, "po repeated");

  // A node that is both a PO and a register's load enable, and a register
  // whose D and EN are the same node.
  Netlist regs;
  NodeId x = regs.add_input("x");
  NodeId y = regs.add_input("y");
  NodeId en = regs.add_or(x, y);
  NodeId d1 = regs.add_dff(regs.add_xor(x, y));
  regs.set_dff_enable(d1, en);
  regs.add_output(en, "en");
  NodeId same = regs.add_nand(x, y);
  NodeId d2 = regs.add_dff(same);
  regs.set_dff_enable(d2, same);
  regs.add_output(regs.add_and(d1, d2), "q");
  expect_matches_reference(regs, "po enable / d == en");

  // Dead nodes after sweep.
  Netlist swept;
  NodeId p = swept.add_input("p");
  NodeId q = swept.add_input("q");
  NodeId live = swept.add_xor(p, q);
  swept.add_or(swept.add_not(live), q);  // dangling cone
  swept.add_output(live, "z");
  ASSERT_GT(swept.sweep(), 0u);
  expect_matches_reference(swept, "swept");
}

TEST(PowerModel, BreakdownArithmetic) {
  PowerBreakdown b;
  b.switching_w = 9.0;
  b.short_circuit_w = 0.7;
  b.leakage_w = 0.3;
  EXPECT_DOUBLE_EQ(b.total_w(), 10.0);
  EXPECT_DOUBLE_EQ(b.switching_fraction(), 0.9);
}

TEST(PowerModel, SwitchingDominates) {
  // §I: "switching activity power accounts for over 90% of the total".
  for (const auto& [name, net] : bench::default_suite()) {
    AnalysisOptions opt;
    opt.n_vectors = 512;
    auto a = analyze(net, opt);
    EXPECT_GT(a.report.breakdown.switching_fraction(), 0.90) << name;
  }
}

TEST(PowerModel, MismatchedVectorThrows) {
  auto net = bench::c17();
  std::vector<double> wrong(3, 0.0);
  const auto cap = node_capacitances(net, PowerParams{});
  PowerReport r;
  EXPECT_THROW(compute_power(net, wrong, cap, PowerParams{}, r),
               std::invalid_argument);
  const std::vector<double> toggles(net.size(), 0.0);
  EXPECT_THROW(compute_power(net, toggles, wrong, PowerParams{}, r),
               std::invalid_argument);
}

TEST(Analyze, TimedAtLeastZeroDelayPower) {
  // Glitches only ever add switching.
  auto net = bench::array_multiplier(4);
  AnalysisOptions t;
  t.n_vectors = 1024;
  AnalysisOptions z = t;
  z.mode = ActivityMode::ZeroDelay;
  double pt = analyze(net, t).report.breakdown.total_w();
  double pz = analyze(net, z).report.breakdown.total_w();
  EXPECT_GT(pt, pz * 0.95);
}

TEST(Probability, IndependentExactOnTree) {
  // Fanout-free circuits have no reconvergence: independent propagation is
  // exact.
  auto net = bench::and_tree(8);
  auto ind = signal_probs_independent(net);
  auto ex = signal_probs_exact(net);
  for (NodeId id = 0; id < net.size(); ++id) {
    if (net.is_dead(id)) continue;
    EXPECT_NEAR(ind[id], ex[id], 1e-12);
  }
  EXPECT_NEAR(ex[net.outputs()[0]], 1.0 / 256.0, 1e-12);
}

TEST(Probability, ExactHandlesReconvergence) {
  // y = a AND NOT a == 0; independence model says 0.25.
  Netlist n;
  NodeId a = n.add_input("a");
  NodeId y = n.add_and(a, n.add_not(a));
  n.add_output(y, "y");
  auto ind = signal_probs_independent(n);
  auto ex = signal_probs_exact(n);
  EXPECT_NEAR(ind[y], 0.25, 1e-12);
  EXPECT_NEAR(ex[y], 0.0, 1e-12);
}

TEST(Probability, ExactMatchesSimulation) {
  for (const auto& name : {"c17", "cmp8", "parity16"}) {
    Netlist net;
    if (std::string(name) == "c17") net = bench::c17();
    if (std::string(name) == "cmp8") net = bench::comparator_gt(8);
    if (std::string(name) == "parity16") net = bench::parity_tree(16);
    auto ex = signal_probs_exact(net);
    auto st = sim::measure_activity(net, 4000, 77);
    for (NodeId o : net.outputs())
      EXPECT_NEAR(ex[o], st.signal_prob[o], 0.02) << name;
  }
}

TEST(Probability, BiasedInputsPropagate) {
  Netlist n;
  NodeId a = n.add_input("a");
  NodeId b = n.add_input("b");
  NodeId y = n.add_and(a, b);
  n.add_output(y, "y");
  std::vector<double> pp{0.9, 0.8};
  auto ex = signal_probs_exact(n, pp);
  EXPECT_NEAR(ex[y], 0.72, 1e-12);
}

TEST(Probability, ToggleRateFormula) {
  std::vector<double> p{0.0, 0.5, 1.0, 0.25};
  auto t = toggle_rate_from_probs(p);
  EXPECT_DOUBLE_EQ(t[0], 0.0);
  EXPECT_DOUBLE_EQ(t[1], 0.5);
  EXPECT_DOUBLE_EQ(t[2], 0.0);
  EXPECT_DOUBLE_EQ(t[3], 0.375);
}

TEST(Probability, TransitionDensityExactOnInverter) {
  // With a single input, transitions never coincide, so the density is
  // exact: D(!a) = D(a).
  Netlist n;
  NodeId a = n.add_input("a");
  n.add_output(n.add_not(a), "y");
  auto dens = transition_density(n);
  auto st = sim::measure_activity(n, 8000, 99);
  EXPECT_NEAR(dens[n.outputs()[0]], 0.5, 1e-12);
  EXPECT_NEAR(dens[n.outputs()[0]], st.transition_prob[n.outputs()[0]], 0.02);
}

TEST(Probability, TransitionDensityUpperBoundsTreeSimulation) {
  // Najm's propagation counts each input transition independently; when
  // transitions coincide (iid vectors toggle every input with rate 0.5)
  // some cancel, so the density upper-bounds the simulated rate.
  auto net = bench::and_tree(8);
  auto dens = transition_density(net);
  auto st = sim::measure_activity(net, 8000, 99);
  NodeId o = net.outputs()[0];
  // Analytic density: 8 inputs, each sensitized with prob (1/2)^7.
  EXPECT_NEAR(dens[o], 8.0 * std::ldexp(1.0, -7) * 0.5, 1e-12);
  EXPECT_GE(dens[o], st.transition_prob[o]);
  EXPECT_LT(dens[o], st.transition_prob[o] * 6.0);
}

TEST(Probability, TransitionDensityUpperBoundsReconvergent) {
  // On reconvergent logic Najm's density ignores the correlation between
  // simultaneous input changes and overestimates — the known bias of the
  // estimator.  It must stay within a small constant factor of simulation.
  auto net = bench::c17();
  auto dens = transition_density(net);
  auto st = sim::measure_activity(net, 8000, 99);
  for (NodeId o : net.outputs()) {
    EXPECT_GE(dens[o], st.transition_prob[o] * 0.8);
    EXPECT_LE(dens[o], st.transition_prob[o] * 2.5);
  }
}

TEST(Probability, DensityOfXorSumsInputs) {
  // For y = a XOR b, dy/da = dy/db = 1, so D(y) = D(a) + D(b).
  Netlist n;
  NodeId a = n.add_input("a");
  NodeId b = n.add_input("b");
  n.add_output(n.add_xor(a, b), "y");
  std::vector<double> probs{0.5, 0.5};
  std::vector<double> dens{0.3, 0.2};
  auto d = transition_density(n, probs, dens);
  EXPECT_NEAR(d[n.outputs()[0]], 0.5, 1e-12);
}

TEST(Analyze, GlitchFractionZeroOnBalancedTree) {
  auto net = bench::parity_tree(16);
  AnalysisOptions opt;
  opt.n_vectors = 512;
  auto a = analyze(net, opt);
  EXPECT_NEAR(a.glitch_fraction, 0.0, 1e-9);
}

TEST(TransistorCount, Table) {
  Node n;
  n.type = GateType::Nand;
  n.fanins = {0, 1};
  EXPECT_EQ(transistor_count(n), 4);
  n.type = GateType::And;
  EXPECT_EQ(transistor_count(n), 6);
  n.type = GateType::Dff;
  n.fanins = {0};
  EXPECT_EQ(transistor_count(n), 8);
}

}  // namespace
}  // namespace lps::power
