// Transistor-level tests: switch networks, reordering (§II-A), sizing
// (§II-B).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "circuit/complex_gate.hpp"
#include "circuit/reordering.hpp"
#include "circuit/sizing.hpp"
#include "netlist/benchmarks.hpp"
#include "power/activity.hpp"
#include "power_reference.hpp"
#include "sim/logicsim.hpp"

namespace lps::circuit {
namespace {

SwitchNet aoi_pulldown() {
  // f = !((a+b)·c): pulldown (a+b) in series with c.
  return SwitchNet::series({SwitchNet::parallel({SwitchNet::leaf(0),
                                                 SwitchNet::leaf(1)}),
                            SwitchNet::leaf(2)});
}

TEST(SwitchNet, Conducts) {
  auto net = aoi_pulldown();
  bool v1[] = {true, false, true};
  EXPECT_TRUE(net.conducts({v1, 3}));
  bool v2[] = {true, true, false};
  EXPECT_FALSE(net.conducts({v2, 3}));
  bool v3[] = {false, false, true};
  EXPECT_FALSE(net.conducts({v3, 3}));
  EXPECT_EQ(net.num_transistors(), 3);
  EXPECT_EQ(net.to_string(), "(a+b)c");
}

TEST(ComplexGate, EvalIsInvertedPulldown) {
  ComplexGate g(3, aoi_pulldown());
  for (int m = 0; m < 8; ++m) {
    bool v[3] = {(m & 1) != 0, (m & 2) != 0, (m & 4) != 0};
    bool pdn = (v[0] || v[1]) && v[2];
    EXPECT_EQ(g.eval({v, 3}), !pdn);
  }
}

TEST(ComplexGate, InternalNodeCount) {
  // Series of 3 leaves -> 2 internal nodes.
  ComplexGate chain(3, SwitchNet::series({SwitchNet::leaf(0),
                                          SwitchNet::leaf(1),
                                          SwitchNet::leaf(2)}));
  EXPECT_EQ(chain.num_internal_nodes(), 2);
  // Parallel-only -> none.
  ComplexGate par(2, SwitchNet::parallel({SwitchNet::leaf(0),
                                          SwitchNet::leaf(1)}));
  EXPECT_EQ(par.num_internal_nodes(), 0);
}

TEST(ComplexGate, EnergyDependsOnSeriesOrder) {
  // 3-input NAND chain with one very active input: placing the active
  // transistor at the bottom exposes more internal capacitance switching
  // than placing it at the top.
  SwitchNet active_top = SwitchNet::series(
      {SwitchNet::leaf(0), SwitchNet::leaf(1), SwitchNet::leaf(2)});
  SwitchNet active_bottom = SwitchNet::series(
      {SwitchNet::leaf(2), SwitchNet::leaf(1), SwitchNet::leaf(0)});
  ComplexGate top(3, active_top), bottom(3, active_bottom);
  // Input 0 toggles wildly (p=0.5); inputs 1,2 are nearly static at 1.
  double probs[] = {0.5, 0.95, 0.95};
  double e_top = top.average_energy_fj({probs, 3});
  double e_bottom = bottom.average_energy_fj({probs, 3});
  EXPECT_NE(e_top, e_bottom);
}

TEST(ComplexGate, DelayPrefersLateInputNearOutput) {
  SwitchNet late_top = SwitchNet::series(
      {SwitchNet::leaf(0), SwitchNet::leaf(1), SwitchNet::leaf(2)});
  SwitchNet late_bottom = SwitchNet::series(
      {SwitchNet::leaf(2), SwitchNet::leaf(1), SwitchNet::leaf(0)});
  // Input 0 arrives late.
  double arr[] = {10.0, 0.0, 0.0};
  ComplexGate a(3, late_top), b(3, late_bottom);
  EXPECT_LT(a.worst_delay({arr, 3}), b.worst_delay({arr, 3}));
}

TEST(Reorder, FindsNoWorseOrdering) {
  ComplexGate g(3, SwitchNet::series({SwitchNet::leaf(0), SwitchNet::leaf(1),
                                      SwitchNet::leaf(2)}));
  double probs[] = {0.5, 0.9, 0.1};
  double arr[] = {0.0, 3.0, 1.0};
  for (auto obj : {Objective::Power, Objective::Delay,
                   Objective::PowerDelayProduct}) {
    auto r = reorder(g, {probs, 3}, {arr, 3}, obj);
    if (obj == Objective::Power) {
      EXPECT_LE(r.energy_after_fj, r.energy_before_fj);
    }
    if (obj == Objective::Delay) {
      EXPECT_LE(r.delay_after, r.delay_before);
    }
  }
}

TEST(Reorder, DelayObjectivePlacesLateInputAtTop) {
  ComplexGate g(4, SwitchNet::series(
                       {SwitchNet::leaf(0), SwitchNet::leaf(1),
                        SwitchNet::leaf(2), SwitchNet::leaf(3)}));
  double probs[] = {0.5, 0.5, 0.5, 0.5};
  double arr[] = {0.0, 0.0, 9.0, 0.0};  // input 2 arrives very late
  auto r = reorder(g, {probs, 4}, {arr, 4}, Objective::Delay);
  // Best ordering puts leaf 2 first (closest to the output).
  ASSERT_EQ(r.best_pulldown.kind, SwitchNet::Kind::Series);
  EXPECT_EQ(r.best_pulldown.kids[0].input, 2);
  EXPECT_LT(r.delay_after, r.delay_before);
}

TEST(Sizing, MeetsDelayBudgetAndCutsCap) {
  auto net = bench::ripple_carry_adder(8);
  power::AnalysisOptions ao;
  ao.n_vectors = 256;
  auto a = power::analyze(net, ao);
  SizingParams sp;
  sp.delay_budget_factor = 1.2;
  auto r = size_for_power(net, a.toggles_per_cycle, {}, sp);
  EXPECT_LE(r.delay_after, r.delay_budget * (1 + 1e-9));
  EXPECT_LT(r.cap_after_ff, r.cap_before_ff);
  EXPECT_GT(r.downsizing_moves, 0);
  // Off-critical gates should reach minimum size somewhere.
  bool some_min = false, some_big = false;
  for (NodeId id = 0; id < net.size(); ++id) {
    if (net.is_dead(id)) continue;
    const Node& nd = net.node(id);
    if (is_source(nd.type) || nd.type == GateType::Dff) continue;
    if (nd.size <= sp.min_size + 1e-9) some_min = true;
    if (nd.size >= sp.min_size + sp.step) some_big = true;
  }
  EXPECT_TRUE(some_min);
  EXPECT_TRUE(some_big);
}

// One sort and one cone update per move make the same moves as the
// per-node-scan reference with a full timing pass per move: same result,
// bit for bit, and the same final sizes, under the default parameters and
// the flow's in-place ones.
TEST(Sizing, MatchesReference) {
  std::vector<bench::NamedNetlist> cases = bench::default_suite();
  for (int gates : {250, 500, 1000, 2000})
    cases.push_back({"rand64x" + std::to_string(gates),
                     bench::random_dag(64, gates, 1)});
  SizingParams in_place;
  in_place.start_from_max = false;
  in_place.min_size = 0.5;
  in_place.step = 0.25;
  for (const auto& [name, net0] : cases) {
    power::AnalysisOptions ao;
    ao.n_vectors = 256;
    auto tg = power::analyze(net0, ao).toggles_per_cycle;
    for (const SizingParams& sp : {SizingParams{}, in_place}) {
      const std::string label =
          name + (sp.start_from_max ? " default" : " in-place");
      auto got_net = net0.clone();
      auto want_net = net0.clone();
      auto got = size_for_power(got_net, tg, {}, sp);
      auto want = reference::size_for_power(want_net, tg, {}, sp);
      EXPECT_EQ(got.delay_before, want.delay_before) << label;
      EXPECT_EQ(got.delay_after, want.delay_after) << label;
      EXPECT_EQ(got.delay_budget, want.delay_budget) << label;
      EXPECT_EQ(got.cap_before_ff, want.cap_before_ff) << label;
      EXPECT_EQ(got.cap_after_ff, want.cap_after_ff) << label;
      EXPECT_EQ(got.sizes, want.sizes) << label;
      EXPECT_EQ(got.downsizing_moves, want.downsizing_moves) << label;
      for (NodeId id = 0; id < got_net.size(); ++id)
        EXPECT_EQ(got_net.node(id).size, want_net.node(id).size)
            << label << " node " << id;
    }
  }
}

// A register's enable pin is a timing endpoint like its D pin: a 6-gate
// chain on EN must set the budget and still meet it after sizing, while
// the only PO path (Q -> XOR) is one gate long.
TEST(Sizing, TimesEnablePins) {
  Netlist net;
  NodeId a = net.add_input("a");
  NodeId b = net.add_input("b");
  NodeId en = a;
  for (int i = 0; i < 6; ++i)
    en = i % 2 ? net.add_and(en, b) : net.add_or(en, b);
  NodeId q = net.add_dff(a);
  net.set_dff_enable(q, en);
  net.add_output(net.add_xor(q, b), "y");
  std::vector<double> tg(net.size(), 0.5);
  const power::PowerParams pp;
  const SizingParams sp;
  auto en_arrival = [&](const Netlist& n) {
    const auto cap = power::node_capacitances(n, pp);
    std::vector<double> at(n.size(), 0.0);
    for (NodeId id : n.topo_order()) {
      const Node& nd = n.node(id);
      if (is_source(nd.type) || nd.type == GateType::Dff) continue;
      double m = 0.0;
      for (NodeId f : nd.fanins) m = std::max(m, at[f]);
      at[id] = m + sp.d0 * (sp.alpha + cap[id] * 1e15 / (nd.size * sp.c0_ff));
    }
    return at[en];
  };
  Netlist fastest = net.clone();
  for (NodeId id = 0; id < fastest.size(); ++id)
    if (!is_source(fastest.node(id).type) &&
        fastest.node(id).type != GateType::Dff)
      fastest.node(id).size = sp.max_size;
  auto r = size_for_power(net, tg, pp, sp);
  EXPECT_EQ(r.delay_before, en_arrival(fastest));
  EXPECT_GT(r.downsizing_moves, 0);
  EXPECT_LE(en_arrival(net), r.delay_budget);
  EXPECT_LE(r.delay_after, r.delay_budget);
}

TEST(Sizing, TighterBudgetKeepsMoreDrive) {
  auto net1 = bench::carry_select_adder(8, 2);
  auto net2 = net1.clone();
  power::AnalysisOptions ao;
  ao.n_vectors = 256;
  auto tg = power::analyze(net1, ao).toggles_per_cycle;
  SizingParams tight;
  tight.delay_budget_factor = 1.0;
  SizingParams loose;
  loose.delay_budget_factor = 1.5;
  auto r1 = size_for_power(net1, tg, {}, tight);
  auto r2 = size_for_power(net2, tg, {}, loose);
  EXPECT_LE(r2.cap_after_ff, r1.cap_after_ff + 1e-9);
}

TEST(Sizing, FunctionUntouched) {
  auto net = bench::comparator_gt(8);
  auto golden = net.clone();
  power::AnalysisOptions ao;
  ao.n_vectors = 128;
  auto tg = power::analyze(net, ao).toggles_per_cycle;
  size_for_power(net, tg);
  EXPECT_TRUE(sim::equivalent_random(golden, net, 128, 3));
}

}  // namespace
}  // namespace lps::circuit
