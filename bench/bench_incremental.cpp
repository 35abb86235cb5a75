// E21 — incremental cone-scoped power re-estimation.  The synthesis loops
// of §III re-estimate power after every local rewrite; re-running the full
// Monte Carlo per candidate move makes activity-driven synthesis scale as
// O(netlist x vectors) per stage.  IncrementalAnalyzer re-simulates only
// the touched fanout cone over the cached value blocks and splices exact
// integer counters, so the estimate is bit-identical to a fresh full
// power::analyze while evaluating a fraction of the nodes.  This bench
// pins the equality across the generated suite (the CI equality gate) and
// reports the node-evaluation reduction and wall-clock speedup, and that
// the session structural hash re-hashes no more than the analyzer's cone.

#include <algorithm>
#include <chrono>
#include <random>
#include <vector>

#include "../tests/flow_reference.hpp"
#include "bench_util.hpp"
#include "core/flows.hpp"
#include "core/report.hpp"
#include "netlist/benchmarks.hpp"
#include "netlist/blif.hpp"
#include "netlist/hasher.hpp"
#include "power/incremental.hpp"
#include "seq/encoding.hpp"
#include "seq/stg.hpp"
#include "sim/compiled.hpp"

namespace {

using namespace lps;

power::AnalysisOptions zd_options() {
  power::AnalysisOptions ao;
  ao.mode = power::ActivityMode::ZeroDelay;
  ao.n_vectors = 2048;
  return ao;
}

// The scripted local rewrite: a double inverter spliced into one primary
// output's driver — function-preserving, touches a thin output-side cone.
Netlist::TouchedNodes mutate_po_driver(Netlist& net) {
  net.begin_undo();
  NodeId o = net.outputs()[0];
  if (!net.node(o).fanins.empty())
    net.replace_fanin(o, 0, net.add_not(net.add_not(net.node(o).fanins[0])));
  else
    net.add_output(net.add_not(o), "extra");
  auto touched = net.touched_nodes();
  net.commit_undo();
  return touched;
}

bool stages_identical(const core::FlowResult& a, const core::FlowResult& b) {
  if (a.stages.size() != b.stages.size()) return false;
  for (std::size_t i = 0; i < a.stages.size(); ++i) {
    if (a.stages[i].power_w != b.stages[i].power_w ||
        a.stages[i].status != b.stages[i].status)
      return false;
  }
  return true;
}

void report() {
  benchx::banner(
      "E21 bench_incremental",
      "Incremental cone-scoped re-estimation: bit-identical to full "
      "re-analysis while re-simulating only the touched fanout cone "
      "(the Simopt-style metadata-reuse lever for synthesis loops).");

  // ---- per-circuit mutation differential --------------------------------
  core::Table t({"circuit", "live nodes", "cone nodes", "evals saved",
                 "identical", "vectors"});
  bool identical_all = true;
  double reduction_max = 0.0;
  std::size_t vectors_used = 0;
  auto ao = zd_options();
  for (auto& [name, net0] : bench::default_suite()) {
    Netlist net = std::move(net0);
    power::IncrementalAnalyzer inc(net, ao);
    auto touched = mutate_po_driver(net);
    inc.reanalyze(touched);
    auto full = power::analyze(net, ao);
    bool same =
        inc.analysis().report.breakdown.total_w() ==
            full.report.breakdown.total_w() &&
        inc.analysis().report.weighted_activity == full.report.weighted_activity &&
        inc.analysis().toggles_per_cycle == full.toggles_per_cycle;
    identical_all = identical_all && same;
    const auto& up = inc.last_update();
    double reduction = up.resim_nodes > 0
                           ? static_cast<double>(up.live_nodes) /
                                 static_cast<double>(up.resim_nodes)
                           : static_cast<double>(up.live_nodes);
    reduction_max = std::max(reduction_max, reduction);
    vectors_used = full.vectors_used;
    t.row({name, std::to_string(up.live_nodes),
           std::to_string(up.resim_nodes),
           core::Table::num(reduction, 1) + "x", same ? "yes" : "NO",
           std::to_string(full.vectors_used)});
  }
  t.print(std::cout);

  // ---- flow equality gate: all three flows vs per-stage full analyses ---
  core::FlowOptions io;
  io.sim_vectors = 512;
  io.estimate_mode = power::ActivityMode::ZeroDelay;
  bool flow_comb = true, flow_seq = true;
  for (const auto& [name, net] : bench::default_suite()) {
    if (net.num_gates() > 300) continue;  // keep the sweep quick
    flow_comb = flow_comb && stages_identical(core::optimize_combinational(net, io),
                                              reference::flow(net, io, false));
  }
  for (auto* mk : {+[] { return bench::counter(8); },
                   +[] { return bench::shift_register(16); }}) {
    Netlist net = mk();
    flow_seq = flow_seq && stages_identical(core::optimize_sequential(net, io),
                                            reference::flow(net, io, true));
  }
  bool flow_fsm = true;
  {
    core::FlowOptions fo = io;
    fo.sim_vectors = 256;
    auto stg = seq::counter_fsm(8);
    auto r = core::optimize_fsm(stg, fo);
    // Reference: fresh full analyses of the ungated and gated circuits.
    auto ao = core::flow_runner_options(fo).estimate;
    seq::AnnealOptions an;
    an.seed = static_cast<std::uint32_t>(fo.seed);
    Netlist low = seq::synthesize_fsm(stg, seq::low_power_encoding(stg, an),
                                      stg.state_name(0) + "_low");
    flow_fsm = r.power_lowpower_w ==
                   power::analyze(low, ao).report.breakdown.total_w() &&
               r.power_gated_w ==
                   power::analyze(r.circuit, ao).report.breakdown.total_w();
  }

  std::cout << "\nflow equality (incremental vs full estimates): comb "
            << (flow_comb ? "identical" : "DIFFERS") << ", seq "
            << (flow_seq ? "identical" : "DIFFERS") << ", fsm "
            << (flow_fsm ? "identical" : "DIFFERS") << "\n";

  // ---- structural hash at cone cost ------------------------------------
  // Seeded replace_fanin scripts over the suite and the two lpsd session
  // shapes (BLIF round-tripped, as lpsd holds them): the nodes the session
  // hasher re-hashes per edit against the analyzer's resim_nodes.  The
  // hash cone stops at registers and the analyzer's crosses them, so the
  // ratio stays at or under 1; a full pass per edit reads ~live/cone.  The
  // fanin entries it reads per re-simulated node (edge terms, and the user
  // scans that re-sum a touched driver) bound the rest of its work.
  double hashed = 0, hash_edges = 0, resim = 0;
  {
    std::vector<bench::NamedNetlist> nets = bench::default_suite();
    for (auto [name, net] : {std::pair{"rand", bench::random_dag(64, 2000, 1)},
                             std::pair{"mult16", bench::array_multiplier(16)}}) {
      diag::DiagEngine eng(8);
      nets.push_back({name, *blif::parse_string(blif::write_string(net), eng)});
    }
    power::AnalysisOptions hao = ao;
    hao.n_vectors = 256;
    std::mt19937_64 rng(21);
    for (auto& [name, net] : nets) {
      power::IncrementalAnalyzer inc(net, hao);
      StructuralHasher hasher(net);
      const Netlist& cn = net;
      std::vector<NodeId> gates;
      for (NodeId id = 0; id < cn.size(); ++id)
        if (!cn.is_dead(id) && !cn.node(id).fanins.empty() &&
            cn.node(id).type != GateType::Dff)
          gates.push_back(id);
      for (int e = 0; e < 40; ++e) {
        const NodeId g = gates[rng() % gates.size()];
        const std::size_t k = rng() % cn.node(g).fanins.size();
        const NodeId f = static_cast<NodeId>(rng() % cn.size());
        if (cn.is_dead(f) || f == cn.node(g).fanins[k] ||
            cn.fanout_cone_of(std::span<const NodeId>(&g, 1))[f])
          continue;
        net.begin_undo();
        net.replace_fanin(g, k, f);
        const auto touched = net.touched_nodes();
        const std::uint64_t before = hasher.rehashed();
        const std::uint64_t edges_before = hasher.edges_read();
        inc.reanalyze(touched);
        hasher.update(touched);
        hashed += static_cast<double>(hasher.rehashed() - before);
        hash_edges += static_cast<double>(hasher.edges_read() - edges_before);
        resim += static_cast<double>(inc.last_update().resim_nodes);
        if (rng() % 2) {
          net.commit_undo();
        } else {
          net.rollback_undo();
          inc.revert_last();
          hasher.undo();
        }
      }
    }
  }
  const double hash_cone_ratio = resim > 0 ? hashed / resim : 0.0;
  const double hash_edge_ratio = resim > 0 ? hash_edges / resim : 0.0;
  std::cout << "structural hash: " << hashed << " nodes re-hashed and "
            << hash_edges << " fanin entries read for " << resim
            << " re-simulated (ratios "
            << core::Table::num(hash_cone_ratio, 3) << ", "
            << core::Table::num(hash_edge_ratio, 3) << ")\n";

  benchx::claim("E21.identical_all", identical_all);
  benchx::claim("E21.flow_identical_comb", flow_comb);
  benchx::claim("E21.flow_identical_seq", flow_seq);
  benchx::claim("E21.flow_identical_fsm", flow_fsm);
  benchx::claim("E21.eval_reduction_max", reduction_max);
  benchx::claim("E21.vectors_used", static_cast<double>(vectors_used));
  benchx::claim("E21.hash_cone_ratio", hash_cone_ratio);
  benchx::claim("E21.hash_edge_ratio", hash_edge_ratio);

  // ---- per-update wall clock on the lpsd rand shape ---------------------
  // Median reanalyze() of 400 seeded replace_fanin edits (each rolled back
  // and reverted) on random_dag(64, 2000).  Reported without a band: a
  // wall-clock reading on a shared runner is a trend, not a gate.
  {
    Netlist net = bench::random_dag(64, 2000, 11);
    power::IncrementalAnalyzer inc(net, ao);
    const Netlist& cn = net;
    std::vector<NodeId> gates;
    for (NodeId id = 0; id < cn.size(); ++id)
      if (!cn.is_dead(id) && !cn.node(id).fanins.empty()) gates.push_back(id);
    std::mt19937_64 rng(5);
    std::vector<double> ms;
    for (int e = 0; e < 400; ++e) {
      const NodeId g = gates[rng() % gates.size()];
      net.begin_undo();
      net.replace_fanin(g, rng() % cn.node(g).fanins.size(),
                        cn.inputs()[rng() % cn.inputs().size()]);
      const auto touched = net.touched_nodes();
      const auto t0 = std::chrono::steady_clock::now();
      inc.reanalyze(touched);
      const auto t1 = std::chrono::steady_clock::now();
      ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
      net.rollback_undo();
      inc.revert_last();
    }
    std::nth_element(ms.begin(), ms.begin() + ms.size() / 2, ms.end());
    std::cout << "reanalyze per replace_fanin edit, random_dag(64,2000): "
              << core::Table::num(ms[ms.size() / 2], 4) << " ms (median of "
              << ms.size() << ")\n";
    benchx::claim("reanalyze_ms_rand4k", ms[ms.size() / 2]);
  }

  std::cout << '\n';
}

// ---- timings: full re-analysis vs incremental update, paired -------------
// Names pair as <base>_full / <base>_inc; aggregate_bench.py derives the
// incremental-vs-full speedup column from the pairs.

template <typename Make>
void bm_full(benchmark::State& state, Make make) {
  Netlist net = make();
  auto ao = zd_options();
  mutate_po_driver(net);
  for (auto _ : state) {
    auto a = power::analyze(net, ao);
    benchmark::DoNotOptimize(a.report.breakdown.switching_w);
  }
}

template <typename Make>
void bm_inc(benchmark::State& state, Make make) {
  Netlist net = make();
  auto ao = zd_options();
  power::IncrementalAnalyzer inc(net, ao);
  auto touched = mutate_po_driver(net);
  for (auto _ : state) {
    // Idempotent: the cone re-evaluates to the same words every iteration.
    const auto& a = inc.reanalyze(touched);
    benchmark::DoNotOptimize(a.report.breakdown.switching_w);
  }
}

void bm_reestimate_mult8_full(benchmark::State& s) {
  bm_full(s, [] { return bench::array_multiplier(8); });
}
void bm_reestimate_mult8_inc(benchmark::State& s) {
  bm_inc(s, [] { return bench::array_multiplier(8); });
}
void bm_reestimate_dag_full(benchmark::State& s) {
  bm_full(s, [] { return bench::random_dag(16, 400, 11); });
}
void bm_reestimate_dag_inc(benchmark::State& s) {
  bm_inc(s, [] { return bench::random_dag(16, 400, 11); });
}
void bm_reestimate_counter_full(benchmark::State& s) {
  bm_full(s, [] { return bench::counter(16); });
}
void bm_reestimate_counter_inc(benchmark::State& s) {
  bm_inc(s, [] { return bench::counter(16); });
}
BENCHMARK(bm_reestimate_mult8_full);
BENCHMARK(bm_reestimate_mult8_inc);
BENCHMARK(bm_reestimate_dag_full);
BENCHMARK(bm_reestimate_dag_inc);
BENCHMARK(bm_reestimate_counter_full);
BENCHMARK(bm_reestimate_counter_inc);

// Width-paired incremental updates: <base>_wide_scalar / <base>_wide_<isa>
// feed the SIMD speedup column in aggregate_bench.py.  The cone driver
// replays the cone in place over the cached value blocks under the
// selected kernels; the lane width must change only the wall clock.  Unsupported widths are skipped with an error so
// the JSON omits them.
template <typename Make>
void bm_inc_width(benchmark::State& state, Make make, sim::SimdWidth w) {
  if (sim::resolve_simd(w) != w) {
    state.SkipWithError("lane width unsupported on this host");
    return;
  }
  sim::ScopedSimOptions scope({.width = w});
  Netlist net = make();
  auto ao = zd_options();
  power::IncrementalAnalyzer inc(net, ao);
  auto touched = mutate_po_driver(net);
  for (auto _ : state) {
    const auto& a = inc.reanalyze(touched);
    benchmark::DoNotOptimize(a.report.breakdown.switching_w);
  }
}

void bm_reestimate_mult8_wide_scalar(benchmark::State& s) {
  bm_inc_width(s, [] { return bench::array_multiplier(8); },
               sim::SimdWidth::Scalar);
}
void bm_reestimate_mult8_wide_avx2(benchmark::State& s) {
  bm_inc_width(s, [] { return bench::array_multiplier(8); },
               sim::SimdWidth::Avx2);
}
void bm_reestimate_mult8_wide_avx512(benchmark::State& s) {
  bm_inc_width(s, [] { return bench::array_multiplier(8); },
               sim::SimdWidth::Avx512);
}
void bm_reestimate_dag_wide_scalar(benchmark::State& s) {
  bm_inc_width(s, [] { return bench::random_dag(16, 400, 11); },
               sim::SimdWidth::Scalar);
}
void bm_reestimate_dag_wide_avx2(benchmark::State& s) {
  bm_inc_width(s, [] { return bench::random_dag(16, 400, 11); },
               sim::SimdWidth::Avx2);
}
void bm_reestimate_dag_wide_avx512(benchmark::State& s) {
  bm_inc_width(s, [] { return bench::random_dag(16, 400, 11); },
               sim::SimdWidth::Avx512);
}
BENCHMARK(bm_reestimate_mult8_wide_scalar);
BENCHMARK(bm_reestimate_mult8_wide_avx2);
BENCHMARK(bm_reestimate_mult8_wide_avx512);
BENCHMARK(bm_reestimate_dag_wide_scalar);
BENCHMARK(bm_reestimate_dag_wide_avx2);
BENCHMARK(bm_reestimate_dag_wide_avx512);

}  // namespace

LPS_BENCH_MAIN(report)
