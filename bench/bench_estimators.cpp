// E19 — §IV-A presumes a ladder of power estimators ("reasonably accurate
// low-level power analysis tools" to calibrate against; Najm's companion
// survey [31] catalogues them).  This bench compares every estimator in the
// library against the timed-simulation reference on the same circuits:
//   timed simulation          (reference: functional + spurious)
//   zero-delay simulation     (misses glitches)
//   exact BDD probabilities   (zero-delay, temporal-independence closed form)
//   independent probabilities (adds the spatial-independence error)
//   Najm transition density   (adds the coincident-toggle error)
// Accuracy is total switched capacitance vs the reference; runtimes come
// from the google-benchmark section.

#include <chrono>
#include <cmath>
#include <thread>

#include "../tests/activity_reference.hpp"
#include "bench_util.hpp"
#include "bdd/bdd_netlist.hpp"
#include "core/parallel.hpp"
#include "core/report.hpp"
#include "netlist/benchmarks.hpp"
#include "power/activity.hpp"
#include "power/probability.hpp"
#include "sim/compiled.hpp"

namespace {

using namespace lps;

// One Monte Carlo activity run: the compiled tape (sim::measure_activity)
// or the per-gate interpreter reference (tests/activity_reference.hpp).
sim::ActivityStats run_activity(const Netlist& net, bool compiled,
                                std::size_t frames, std::uint64_t seed) {
  return compiled ? sim::measure_activity(net, frames, seed)
                  : reference::measure_activity(net, frames, seed);
}

// Best-of-3 wall time of one activity run under the given engine.
// Best-of (not mean) because the question is the engines' intrinsic cost
// ratio, and the minimum is the least contaminated by scheduling noise.
double activity_ms(const Netlist& net, bool compiled, std::size_t frames) {
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    auto r = run_activity(net, compiled, frames, 3);
    benchmark::DoNotOptimize(r.patterns);
    auto t1 = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

// E22 — compiled flat-tape simulation vs the per-gate interpreter.  The
// tape must be a pure speed lever: bit-identical counters on every suite
// circuit (including a sequential one), and a >=2x single-thread win on
// the medium/large circuits where the Monte Carlo loop actually hurts.
void report_compiled() {
  std::cout << "E22: compiled tape vs interpreter (block=" << sim::kSimBlock
            << ")\n";

  // Equality gate across the suite, plus a register circuit for the
  // sequential (block=1) driver path.
  auto suite = bench::default_suite();
  suite.push_back({"counter16", bench::counter(16)});
  bool identical = true;
  for (const auto& [name, net] : suite) {
    auto a = sim::measure_activity(net, 128, 3);
    auto b = reference::measure_activity(net, 128, 3);
    bool same = a.patterns == b.patterns && a.signal_prob == b.signal_prob &&
                a.transition_prob == b.transition_prob;
    identical = identical && same;
    if (!same) std::cout << "  MISMATCH on " << name << "\n";
  }

  // Single-thread speedup, medium/large circuits, geometric mean.  One
  // thread isolates the tape-vs-interpreter ratio from shard scheduling.
  core::Table t({"circuit", "nodes", "interp ms", "compiled ms", "speedup"});
  double log_sum = 0.0;
  std::size_t timed = 0;
  {
    core::ScopedThreads one(1);
    for (const auto& [name, net] : suite) {
      if (net.size() < 100 || !net.dffs().empty()) continue;
      double mi = activity_ms(net, false, 2048);
      double mc = activity_ms(net, true, 2048);
      double sp = mc > 0 ? mi / mc : 0.0;
      log_sum += std::log(sp);
      ++timed;
      t.row({name, std::to_string(net.size()), core::Table::num(mi, 2),
             core::Table::num(mc, 2), core::Table::num(sp, 2) + "x"});
    }
  }
  double geomean = timed > 0 ? std::exp(log_sum / static_cast<double>(timed))
                             : 0.0;
  t.print(std::cout);
  std::cout << "identical across suite: " << (identical ? "yes" : "NO")
            << ", single-thread speedup geomean: "
            << core::Table::num(geomean, 2) << "x\n";

  benchx::claim("E22.compiled_identical_suite", identical);
  benchx::claim("E22.compiled_speedup_suite", geomean);

  // Parallel scaling of the sharded Monte Carlo loop.  Only measurable
  // (and only claimed) on hosts with >=4 hardware threads; the band in
  // experiments_expected.json is marked optional for that reason.
  if (std::thread::hardware_concurrency() >= 4) {
    auto net = bench::alu(4);
    auto par_ms = [&](unsigned n) {
      core::ScopedThreads threads(n);
      double best = 1e300;
      for (int rep = 0; rep < 3; ++rep) {
        auto t0 = std::chrono::steady_clock::now();
        auto r = sim::measure_activity(net, 8192, 3);
        benchmark::DoNotOptimize(r.patterns);
        auto t1 = std::chrono::steady_clock::now();
        best = std::min(
            best, std::chrono::duration<double, std::milli>(t1 - t0).count());
      }
      return best;
    };
    double m1 = par_ms(1), m4 = par_ms(4);
    double sp = m4 > 0 ? m1 / m4 : 0.0;
    std::cout << "parallel alu4 x8192 frames: 1t "
              << core::Table::num(m1, 2) << " ms, 4t "
              << core::Table::num(m4, 2) << " ms ("
              << core::Table::num(sp, 2) << "x)\n";
    benchx::claim("E22.parallel_speedup_4t", sp);
  } else {
    std::cout << "parallel speedup: skipped ("
              << std::thread::hardware_concurrency()
              << " hardware thread(s); claim is optional)\n";
  }
  std::cout << '\n';
}

// E24 — SIMD-wide tape frames.  The lane width (scalar / AVX2 / AVX-512)
// and the pinning knob riding with it must be pure speed levers:
// bit-identical counters at every runnable width and at every thread
// count, with the wide kernels delivering a measurable single-thread win
// over the forced-scalar fallback on medium/large circuits.
void report_simd() {
  std::vector<sim::SimdWidth> widths{sim::SimdWidth::Scalar};
  if (sim::resolve_simd(sim::SimdWidth::Avx2) == sim::SimdWidth::Avx2)
    widths.push_back(sim::SimdWidth::Avx2);
  if (sim::resolve_simd(sim::SimdWidth::Avx512) == sim::SimdWidth::Avx512)
    widths.push_back(sim::SimdWidth::Avx512);
  const sim::SimdWidth widest = widths.back();
  std::cout << "E24: SIMD lane width (detected "
            << sim::simd_name(sim::detect_simd()) << "; runnable kernels:";
  for (auto w : widths) std::cout << ' ' << sim::simd_name(w);
  std::cout << ")\n";

  auto suite = bench::default_suite();
  suite.push_back({"counter16", bench::counter(16)});

  // Equality gate: every runnable width against the interpreter,
  // including a register circuit for the sequential path.
  bool identical = true;
  for (const auto& [name, net] : suite) {
    const auto ref = reference::measure_activity(net, 128, 3);
    for (auto w : widths) {
      sim::ScopedSimOptions s({.width = w});
      auto st = sim::measure_activity(net, 128, 3);
      bool same = st.patterns == ref.patterns &&
                  st.signal_prob == ref.signal_prob &&
                  st.transition_prob == ref.transition_prob;
      identical = identical && same;
      if (!same)
        std::cout << "  MISMATCH " << name << " width=" << sim::simd_name(w)
                  << "\n";
    }
  }

  // Thread-count equality under the widest kernels: the chunked shard
  // plan and first-touch placement must leave counters equal to the
  // interpreter's.
  bool identical_threads = true;
  {
    auto net = bench::alu(4);
    sim::ScopedSimOptions s({.width = widest});
    const auto ref = reference::measure_activity(net, 1024, 5);
    for (unsigned n : {1u, 2u, 4u, 8u}) {
      core::ScopedThreads threads(n);
      auto st = sim::measure_activity(net, 1024, 5);
      bool same = st.patterns == ref.patterns &&
                  st.signal_prob == ref.signal_prob &&
                  st.transition_prob == ref.transition_prob;
      identical_threads = identical_threads && same;
      if (!same) std::cout << "  MISMATCH at " << n << " threads\n";
    }
  }

  std::cout << "identical across widths: " << (identical ? "yes" : "NO")
            << ", across thread counts: "
            << (identical_threads ? "yes" : "NO") << "\n";
  benchx::claim("E24.simd_identical_suite", identical);
  benchx::claim("E24.simd_identical_threads", identical_threads);

  // Widest-tape-vs-interpreter single-thread geomean, with the scalar tape
  // as an informational middle column.  E22 banded the scalar fallback vs
  // the interpreter (>= 2.0); this claim bands what the wide build delivers
  // end to end over the same baseline (>= 4.0).  The wide-vs-scalar ratio
  // is deliberately not a band: after the counting pass moved to per-ISA
  // kernels the tape replay itself is near memory speed, so that ratio is
  // counting-bound and host-dependent (POPCNT vs software fold).  Only
  // measurable (and only claimed) when a wide kernel build is runnable;
  // the band is optional.
  if (widest != sim::SimdWidth::Scalar) {
    auto engine_ms = [&](const Netlist& net, bool compiled, sim::SimdWidth w) {
      sim::ScopedSimOptions scope({.width = w});
      return activity_ms(net, compiled, 2048);
    };
    core::Table t({"circuit", "nodes", "interp ms", "scalar ms",
                   std::string(sim::simd_name(widest)) + " ms", "vs interp",
                   "vs scalar"});
    double log_sum = 0.0;
    std::size_t timed = 0;
    {
      core::ScopedThreads one(1);
      for (const auto& [name, net] : suite) {
        if (net.size() < 100 || !net.dffs().empty()) continue;
        double mi = engine_ms(net, false, widest);
        double ms = engine_ms(net, true, sim::SimdWidth::Scalar);
        double mw = engine_ms(net, true, widest);
        double sp = mw > 0 ? mi / mw : 0.0;
        double sps = mw > 0 ? ms / mw : 0.0;
        log_sum += std::log(sp);
        ++timed;
        t.row({name, std::to_string(net.size()), core::Table::num(mi, 2),
               core::Table::num(ms, 2), core::Table::num(mw, 2),
               core::Table::num(sp, 2) + "x", core::Table::num(sps, 2) + "x"});
      }
    }
    double geomean =
        timed > 0 ? std::exp(log_sum / static_cast<double>(timed)) : 0.0;
    t.print(std::cout);
    std::cout << "single-thread " << sim::simd_name(widest)
              << "-vs-interpreter geomean: " << core::Table::num(geomean, 2)
              << "x\n";
    benchx::claim("E24.simd_speedup_suite", geomean);
  } else {
    std::cout << "wide kernels unavailable on this host; "
                 "E24.simd_speedup_suite skipped (claim is optional)\n";
  }

  // Sharded Monte Carlo scaling at 8 threads under the wide kernels, with
  // pinning on.  Host-gated: only meaningful (and only claimed) with >=8
  // hardware threads.
  if (std::thread::hardware_concurrency() >= 8) {
    auto net = bench::alu(4);
    sim::ScopedSimOptions scope({.width = widest});
    core::ScopedPinning place(true);
    auto par_ms = [&](unsigned n) {
      core::ScopedThreads threads(n);
      double best = 1e300;
      for (int rep = 0; rep < 3; ++rep) {
        auto t0 = std::chrono::steady_clock::now();
        auto r = sim::measure_activity(net, 16384, 3);
        benchmark::DoNotOptimize(r.patterns);
        auto t1 = std::chrono::steady_clock::now();
        best = std::min(
            best, std::chrono::duration<double, std::milli>(t1 - t0).count());
      }
      return best;
    };
    double m1 = par_ms(1), m8 = par_ms(8);
    double sp = m8 > 0 ? m1 / m8 : 0.0;
    std::cout << "parallel alu4 x16384 frames (pinned, first-touch): 1t "
              << core::Table::num(m1, 2) << " ms, 8t "
              << core::Table::num(m8, 2) << " ms ("
              << core::Table::num(sp, 2) << "x)\n";
    benchx::claim("E24.parallel_speedup_8t", sp);
  } else {
    std::cout << "8-thread scaling: skipped ("
              << std::thread::hardware_concurrency()
              << " hardware thread(s); claim is optional)\n";
  }
  std::cout << '\n';
}

double weighted_cap(const Netlist& net, const std::vector<double>& toggles) {
  const std::vector<double> cap =
      power::node_capacitances(net, power::PowerParams{});
  double c = 0;
  for (NodeId id = 0; id < net.size(); ++id) {
    if (net.is_dead(id)) continue;
    c += cap[id] * 1e15 * toggles[id];
  }
  return c;
}

void report() {
  benchx::banner(
      "E19 bench_estimators",
      "Context (S-IV-A / [31]): the estimator ladder trades accuracy for "
      "speed; each simplifying assumption shows up as a bias.");
  core::Table t({"circuit", "timed (ref) fF/cyc", "zero-delay", "BDD exact",
                 "independent", "Najm density"});
  std::vector<bench::NamedNetlist> suite;
  suite.push_back({"c17", bench::c17()});
  suite.push_back({"rca8", bench::ripple_carry_adder(8)});
  suite.push_back({"cmp8", bench::comparator_gt(8)});
  suite.push_back({"alu4", bench::alu(4)});
  suite.push_back({"parity16", bench::parity_tree(16)});
  for (auto& [name, net] : suite) {
    auto timed = sim::measure_timed_activity(net, 4096, 3);
    std::vector<double> timed_rate(net.size(), 0.0);
    for (NodeId id = 0; id < net.size(); ++id)
      timed_rate[id] = timed.total_toggles[id] / 4096.0;
    auto zd = sim::measure_activity(net, 64, 3);
    auto exact = power::toggle_rate_from_probs(power::signal_probs_exact(net));
    auto indep =
        power::toggle_rate_from_probs(power::signal_probs_independent(net));
    auto dens = power::transition_density(net);
    double ref = weighted_cap(net, timed_rate);
    auto cell = [&](const std::vector<double>& r) {
      double c = weighted_cap(net, r);
      return core::Table::num(c, 0) + " (" +
             core::Table::pct(c / ref - 1.0) + ")";
    };
    if (name == "rca8") {
      // Each estimator's bias on the glitchy ripple adder: simulators below
      // the timed reference miss glitch power (negative bias).
      benchx::claim("E19.zero_delay_bias_rca8",
                    weighted_cap(net, zd.transition_prob) / ref - 1.0);
      benchx::claim("E19.bdd_exact_bias_rca8",
                    weighted_cap(net, exact) / ref - 1.0);
      benchx::claim("E19.independent_bias_rca8",
                    weighted_cap(net, indep) / ref - 1.0);
      benchx::claim("E19.density_bias_rca8",
                    weighted_cap(net, dens) / ref - 1.0);
    }
    t.row({name, core::Table::num(ref, 0), cell(zd.transition_prob),
           cell(exact), cell(indep), cell(dens)});
  }
  t.print(std::cout);
  std::cout << "\n(negative bias = estimator misses glitch power; positive "
               "= overcounts via independence assumptions)\n\n";

  // BDD package instrumentation: unique-table size and computed-table hit
  // rate per circuit, so table-sizing wins stay visible across PRs.
  core::Table bt({"circuit", "BDD nodes", "ITE lookups", "ITE hit %",
                  "unique hits"});
  for (auto& [name, net] : suite) {
    auto b = bdd::build_bdds(net);
    double hit_pct = b.mgr.cache_lookups() > 0
                         ? 100.0 * static_cast<double>(b.mgr.cache_hits()) /
                               static_cast<double>(b.mgr.cache_lookups())
                         : 0.0;
    bt.row({name, std::to_string(b.mgr.num_nodes()),
            std::to_string(b.mgr.cache_lookups()),
            core::Table::num(hit_pct, 1),
            std::to_string(b.mgr.unique_hits())});
  }
  std::cout << "BDD manager counters (open-addressing unique table + lossy "
               "ITE cache):\n";
  bt.print(std::cout);
  std::cout << '\n';

  report_compiled();
  report_simd();
}

void bm_timed(benchmark::State& state) {
  auto net = bench::comparator_gt(8);
  for (auto _ : state) {
    auto r = sim::measure_timed_activity(net, 512, 3);
    benchmark::DoNotOptimize(r.vectors);
  }
}
BENCHMARK(bm_timed);

void bm_zero_delay(benchmark::State& state) {
  auto net = bench::comparator_gt(8);
  for (auto _ : state) {
    auto r = sim::measure_activity(net, 8, 3);
    benchmark::DoNotOptimize(r.patterns);
  }
}
BENCHMARK(bm_zero_delay);

void bm_bdd_exact(benchmark::State& state) {
  auto net = bench::comparator_gt(8);
  for (auto _ : state) {
    auto p = power::signal_probs_exact(net);
    benchmark::DoNotOptimize(p.data());
  }
}
BENCHMARK(bm_bdd_exact);

void bm_independent(benchmark::State& state) {
  auto net = bench::comparator_gt(8);
  for (auto _ : state) {
    auto p = power::signal_probs_independent(net);
    benchmark::DoNotOptimize(p.data());
  }
}
BENCHMARK(bm_independent);

void bm_density(benchmark::State& state) {
  auto net = bench::comparator_gt(8);
  for (auto _ : state) {
    auto p = power::transition_density(net);
    benchmark::DoNotOptimize(p.data());
  }
}
BENCHMARK(bm_density);

// Sharded Monte Carlo estimators at a fixed thread count (the Arg).  The
// workload is large enough to fill every shard; results are bit-identical
// across the Arg values by the determinism contract in core/parallel.hpp.
void bm_zero_delay_par(benchmark::State& state) {
  lps::core::ScopedThreads threads(static_cast<unsigned>(state.range(0)));
  auto net = bench::alu(4);
  for (auto _ : state) {
    auto r = sim::measure_activity(net, 8192, 3);
    benchmark::DoNotOptimize(r.patterns);
  }
}
BENCHMARK(bm_zero_delay_par)->Arg(1)->Arg(2)->Arg(4);

void bm_timed_par(benchmark::State& state) {
  lps::core::ScopedThreads threads(static_cast<unsigned>(state.range(0)));
  auto net = bench::comparator_gt(8);
  for (auto _ : state) {
    auto r = sim::measure_timed_activity(net, 2048, 3);
    benchmark::DoNotOptimize(r.vectors);
  }
}
BENCHMARK(bm_timed_par)->Arg(1)->Arg(2)->Arg(4);

// Engine-paired Monte Carlo benches.  Names pair as <base>_interp (the
// interpreter reference driver) / <base>_comp (the compiled tape);
// aggregate_bench.py derives the compiled-vs-interpreted speedup column
// from the pairs (same workload, only the engine differs).
template <typename Make>
void bm_activity_engine(benchmark::State& state, Make make, bool compiled) {
  Netlist net = make();
  for (auto _ : state) {
    auto r = run_activity(net, compiled, 2048, 3);
    benchmark::DoNotOptimize(r.patterns);
  }
}

void bm_zero_delay_mult8_interp(benchmark::State& s) {
  bm_activity_engine(s, [] { return bench::array_multiplier(8); }, false);
}
void bm_zero_delay_mult8_comp(benchmark::State& s) {
  bm_activity_engine(s, [] { return bench::array_multiplier(8); }, true);
}
void bm_zero_delay_dag_interp(benchmark::State& s) {
  bm_activity_engine(s, [] { return bench::random_dag(16, 400, 11); }, false);
}
void bm_zero_delay_dag_comp(benchmark::State& s) {
  bm_activity_engine(s, [] { return bench::random_dag(16, 400, 11); }, true);
}
BENCHMARK(bm_zero_delay_mult8_interp);
BENCHMARK(bm_zero_delay_mult8_comp);
BENCHMARK(bm_zero_delay_dag_interp);
BENCHMARK(bm_zero_delay_dag_comp);

// Width-paired Monte Carlo benches.  Names pair as <base>_wide_scalar /
// <base>_wide_<isa>; aggregate_bench.py derives the SIMD speedup column
// from the pairs.  A width the host cannot run is skipped with an error,
// so the JSON omits it and the pairing degrades gracefully.
template <typename Make>
void bm_activity_width(benchmark::State& state, Make make, sim::SimdWidth w) {
  if (sim::resolve_simd(w) != w) {
    state.SkipWithError("lane width unsupported on this host");
    return;
  }
  sim::ScopedSimOptions scope({.width = w});
  Netlist net = make();
  for (auto _ : state) {
    auto r = sim::measure_activity(net, 2048, 3);
    benchmark::DoNotOptimize(r.patterns);
  }
}

void bm_zero_delay_mult8_wide_scalar(benchmark::State& s) {
  bm_activity_width(s, [] { return bench::array_multiplier(8); },
                    sim::SimdWidth::Scalar);
}
void bm_zero_delay_mult8_wide_avx2(benchmark::State& s) {
  bm_activity_width(s, [] { return bench::array_multiplier(8); },
                    sim::SimdWidth::Avx2);
}
void bm_zero_delay_mult8_wide_avx512(benchmark::State& s) {
  bm_activity_width(s, [] { return bench::array_multiplier(8); },
                    sim::SimdWidth::Avx512);
}
void bm_zero_delay_dag_wide_scalar(benchmark::State& s) {
  bm_activity_width(s, [] { return bench::random_dag(16, 400, 11); },
                    sim::SimdWidth::Scalar);
}
void bm_zero_delay_dag_wide_avx2(benchmark::State& s) {
  bm_activity_width(s, [] { return bench::random_dag(16, 400, 11); },
                    sim::SimdWidth::Avx2);
}
void bm_zero_delay_dag_wide_avx512(benchmark::State& s) {
  bm_activity_width(s, [] { return bench::random_dag(16, 400, 11); },
                    sim::SimdWidth::Avx512);
}
BENCHMARK(bm_zero_delay_mult8_wide_scalar);
BENCHMARK(bm_zero_delay_mult8_wide_avx2);
BENCHMARK(bm_zero_delay_mult8_wide_avx512);
BENCHMARK(bm_zero_delay_dag_wide_scalar);
BENCHMARK(bm_zero_delay_dag_wide_avx2);
BENCHMARK(bm_zero_delay_dag_wide_avx512);

void bm_bdd_build(benchmark::State& state) {
  auto net = bench::alu(4);
  for (auto _ : state) {
    auto b = bdd::build_bdds(net);
    benchmark::DoNotOptimize(b.mgr.num_nodes());
  }
}
BENCHMARK(bm_bdd_build);

}  // namespace

LPS_BENCH_MAIN(report)
