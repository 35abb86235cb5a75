// E4 — §III-A.1: don't-care optimization reduces switching activity [38,19].
// Reproduced: ODC-based rewriting on redundancy-rich circuits, with power
// measured before/after and equivalence verified.

#include <algorithm>
#include <random>

#include "bench_util.hpp"
#include "core/metrics.hpp"
#include "core/report.hpp"
#include "logicopt/dontcare.hpp"
#include "netlist/benchmarks.hpp"
#include "power/activity.hpp"
#include "sim/logicsim.hpp"

namespace {

using namespace lps;

// Inject reconvergent redundancy into a circuit: for a random sample of
// gates g, replace one PO cone piece y by (y AND (g OR NOT g))-style padding
// realized structurally — here we duplicate logic that ODC analysis should
// collapse back.
Netlist with_redundancy(const Netlist& src, std::uint32_t seed) {
  Netlist n = src.clone();
  std::mt19937 rng(seed);
  auto order = n.topo_order();
  int added = 0;
  for (NodeId id : order) {
    if (added >= 8) break;
    const Node& nd = n.node(id);
    if (is_source(nd.type) || nd.type == GateType::Dff) continue;
    if (nd.fanins.size() != 2 || (rng() % 3)) continue;
    // y -> OR(y, AND(y, x)): absorption-redundant (AND gate is removable).
    NodeId a = nd.fanins[0];
    NodeId red = n.add_and(id, a);
    NodeId replacement = n.add_or(id, red);
    std::vector<NodeId> users = n.node(id).fanouts;
    for (NodeId u : users) {
      if (u == red || u == replacement) continue;
      auto& fi = n.node(u).fanins;
      for (std::size_t k = 0; k < fi.size(); ++k)
        if (fi[k] == id) n.replace_fanin(u, k, replacement);
    }
    ++added;
  }
  return n;
}

void report() {
  benchx::banner("E4 bench_dontcare",
                 "Claim (S-III-A.1): exploiting ODC freedom lowers switched "
                 "capacitance [38,19].");
  core::Table t({"circuit", "gates before", "gates after", "rewrites",
                 "power before uW", "after uW", "saving", "equiv"});
  std::vector<std::pair<std::string, Netlist>> suite;
  suite.emplace_back("c17+red", with_redundancy(bench::c17(), 3));
  suite.emplace_back("rca8+red",
                     with_redundancy(bench::ripple_carry_adder(8), 5));
  suite.emplace_back("cmp8+red", with_redundancy(bench::comparator_gt(8), 7));
  suite.emplace_back("alu4+red", with_redundancy(bench::alu(4), 9));
  double saving_min = 1.0;
  bool all_equiv = true;
  double managers = 0.0;  // bdd.managers created inside optimize_dontcare
  for (auto& [name, net0] : suite) {
    auto net = net0.clone();
    power::AnalysisOptions ao;
    ao.n_vectors = 2048;
    double before = power::analyze(net, ao).report.breakdown.total_w();
    auto st = sim::measure_activity(net, 64, 11);
    const double managers_before = core::metrics::value("bdd.managers");
    auto res = logicopt::optimize_dontcare(net, st.transition_prob);
    managers += core::metrics::value("bdd.managers") - managers_before;
    double after = power::analyze(net, ao).report.breakdown.total_w();
    bool equiv = sim::equivalent_random(net0, net, 512, 13);
    saving_min = std::min(saving_min, 1.0 - after / before);
    all_equiv = all_equiv && equiv;
    t.row({name, std::to_string(res.gates_before),
           std::to_string(res.gates_after),
           std::to_string(res.const_replacements + res.merges),
           core::Table::num(before * 1e6, 2), core::Table::num(after * 1e6, 2),
           core::Table::pct(1.0 - after / before), equiv ? "yes" : "NO"});
  }
  t.print(std::cout);
  benchx::claim("E4.saving_min", saving_min);
  benchx::claim("E4.all_equivalent", all_equiv);
  // One BDD manager per call: the stage keeps its global BDDs across
  // rewrites.  Rebuilding them per rewrite reads one more per rewrite.
  benchx::claim("E4.dontcare_managers_per_call",
                managers / static_cast<double>(suite.size()));
  std::cout << '\n';
}

void bm_dontcare(benchmark::State& state) {
  auto base = with_redundancy(bench::ripple_carry_adder(6), 5);
  auto st = sim::measure_activity(base, 32, 11);
  for (auto _ : state) {
    auto net = base.clone();
    auto r = logicopt::optimize_dontcare(net, st.transition_prob);
    benchmark::DoNotOptimize(r.merges);
  }
}
BENCHMARK(bm_dontcare);

// The twelve random_dag(32, 150) circuits of perfbench's flow_random pool,
// strashed as the flow does: one iteration runs the pass on all twelve.
void bm_dontcare_pool(benchmark::State& state) {
  constexpr std::uint32_t kPoolSeeds[] = {
      1535578286u, 2653335377u, 961978839u,  1476624210u,
      374703215u,  1433102928u, 1901963766u, 3814778373u,
      4151018557u, 4059216129u, 2054710263u, 164471577u};
  std::vector<std::pair<Netlist, std::vector<double>>> pool;
  for (std::uint32_t s : kPoolSeeds) {
    Netlist net = strash(bench::random_dag(32, 150, s));
    auto act = sim::measure_activity(net, 64, 1).transition_prob;
    pool.emplace_back(std::move(net), std::move(act));
  }
  for (auto _ : state) {
    int rewrites = 0;
    for (const auto& [base, act] : pool) {
      Netlist net = base.clone();
      auto r = logicopt::optimize_dontcare(net, act);
      rewrites += r.const_replacements + r.merges;
    }
    benchmark::DoNotOptimize(rewrites);
  }
}
BENCHMARK(bm_dontcare_pool)->Unit(benchmark::kMillisecond);

}  // namespace

LPS_BENCH_MAIN(report)
