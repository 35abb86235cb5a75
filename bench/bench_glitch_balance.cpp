// E5 — §III-A.2: "Spurious transitions account for between 10% and 40% of
// the switching activity power in typical combinational logic circuits
// [16]", and path balancing removes them at the cost of buffer capacitance
// [25].  Reproduced: glitch fraction across the suite + the balancing
// tradeoff sweep.

#include <chrono>
#include <cmath>

#include "../tests/eventsim_reference.hpp"
#include "bench_util.hpp"
#include "core/parallel.hpp"
#include "core/report.hpp"
#include "logicopt/path_balance.hpp"
#include "netlist/benchmarks.hpp"
#include "power/activity.hpp"

namespace {

using namespace lps;

// Best-of-3 wall time of one timed-activity run: the waveform simulator
// (sim::measure_timed_activity) or the event-driven reference
// (tests/eventsim_reference.hpp).
double timed_ms(const Netlist& net, bool waveform, std::size_t n) {
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    auto r = waveform ? sim::measure_timed_activity(net, n, 3)
                      : reference::measure_timed_activity(net, n, 3);
    benchmark::DoNotOptimize(r.vectors);
    auto t1 = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

// The waveform simulator must be a pure speed lever: the event reference's
// exact per-node counts on every suite circuit (plus a register circuit),
// and a single-thread geomean win at the flow's 2048 vectors.
void report_engine() {
  auto suite = bench::default_suite();
  suite.push_back({"counter16", bench::counter(16)});
  bool identical = true;
  for (const auto& [name, net] : suite) {
    auto a = sim::measure_timed_activity(net, 500, 3);
    auto b = reference::measure_timed_activity(net, 500, 3);
    bool same = a.vectors == b.vectors &&
                a.total_toggles == b.total_toggles &&
                a.functional_toggles == b.functional_toggles;
    identical = identical && same;
    if (!same) std::cout << "  MISMATCH on " << name << "\n";
  }
  core::Table t({"circuit", "nodes", "event ms", "waveform ms", "speedup"});
  double log_sum = 0.0;
  std::size_t timed = 0;
  {
    core::ScopedThreads one(1);
    for (const auto& [name, net] : suite) {
      if (!net.dffs().empty()) continue;
      double me = timed_ms(net, false, 2048);
      double mw = timed_ms(net, true, 2048);
      double sp = mw > 0 ? me / mw : 0.0;
      log_sum += std::log(sp);
      ++timed;
      t.row({name, std::to_string(net.size()), core::Table::num(me, 2),
             core::Table::num(mw, 2), core::Table::num(sp, 2) + "x"});
    }
  }
  double geomean =
      timed > 0 ? std::exp(log_sum / static_cast<double>(timed)) : 0.0;
  std::cout << "\nTimed engine: waveform simulator vs event-driven reference "
               "(2048 vectors, 1 thread):\n";
  t.print(std::cout);
  std::cout << "identical across suite: " << (identical ? "yes" : "NO")
            << ", speedup geomean: " << core::Table::num(geomean, 2)
            << "x\n";
  benchx::claim("E5.timed_identical_suite", identical);
  benchx::claim("E5.timed_speedup_suite", geomean);
}

void report() {
  benchx::banner("E5 bench_glitch_balance",
                 "Claim (S-III-A.2): glitches are 10-40% of switching power; "
                 "balancing removes them but adds buffer capacitance.");
  {
    core::Table t({"circuit", "glitch % of switching"});
    for (const auto& [name, net] : bench::default_suite()) {
      power::AnalysisOptions ao;
      ao.n_vectors = 1024;
      auto a = power::analyze(net, ao);
      benchx::claim("E5.glitch." + name, a.glitch_fraction);
      t.row({name, core::Table::pct(a.glitch_fraction)});
    }
    std::cout << "Glitch fraction over the suite (paper range: 10-40% for "
                 "typical circuits; balanced trees ~0, multipliers high):\n";
    t.print(std::cout);
  }
  {
    std::cout << "\nPath balancing on the array multiplier (the [25] "
                 "design):\n";
    core::Table t({"variant", "buffers", "delay", "glitch %", "power uW",
                   "vs unbalanced"});
    auto base = bench::array_multiplier(6);
    power::AnalysisOptions ao;
    ao.n_vectors = 1024;
    auto a0 = power::analyze(base, ao);
    double p0 = a0.report.breakdown.total_w();
    t.row({"unbalanced", "0", std::to_string(base.critical_delay()),
           core::Table::pct(a0.glitch_fraction),
           core::Table::num(p0 * 1e6, 1), "--"});
    for (int budget : {25, 100, 400, -1}) {
      auto net = base.clone();
      auto r = budget < 0 ? logicopt::full_balance(net)
                          : logicopt::partial_balance(net, budget);
      auto a = power::analyze(net, ao);
      double p = a.report.breakdown.total_w();
      if (budget < 0) {
        benchx::claim("E5.full_balance_saving", 1.0 - p / p0);
        benchx::claim("E5.full_balance_glitch", a.glitch_fraction);
      }
      t.row({budget < 0 ? "full balance" : "budget " + std::to_string(budget),
             std::to_string(r.buffers_inserted),
             std::to_string(net.critical_delay()),
             core::Table::pct(a.glitch_fraction),
             core::Table::num(p * 1e6, 1),
             core::Table::pct(1.0 - p / p0)});
    }
    t.print(std::cout);
  }
  report_engine();
  std::cout << '\n';
}

void bm_balance(benchmark::State& state) {
  auto base = bench::array_multiplier(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto net = base.clone();
    auto r = logicopt::full_balance(net);
    benchmark::DoNotOptimize(r.buffers_inserted);
  }
}
BENCHMARK(bm_balance)->Arg(4)->Arg(6);

void bm_timed_sim(benchmark::State& state) {
  auto net = bench::array_multiplier(6);
  for (auto _ : state) {
    auto ts = sim::measure_timed_activity(net, 128, 3);
    benchmark::DoNotOptimize(ts.vectors);
  }
}
BENCHMARK(bm_timed_sim);

// The glitch counter sharded across the thread pool at a fixed thread count
// (the Arg); shard decomposition is workload-only, so the counts are
// bit-identical at /1, /2 and /4.
void bm_timed_sim_par(benchmark::State& state) {
  lps::core::ScopedThreads threads(static_cast<unsigned>(state.range(0)));
  auto net = bench::array_multiplier(6);
  for (auto _ : state) {
    auto ts = sim::measure_timed_activity(net, 1024, 3);
    benchmark::DoNotOptimize(ts.vectors);
  }
}
BENCHMARK(bm_timed_sim_par)->Arg(1)->Arg(2)->Arg(4);

}  // namespace

LPS_BENCH_MAIN(report)
