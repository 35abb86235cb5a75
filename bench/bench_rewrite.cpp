// E25 — power-driven datapath rewriting.  The §III-A synthesis story ends
// with structure: arithmetic cones carry algebraic freedom (associativity,
// carry-save forms, shared subterms, mux distribution) that window-local
// resynthesis cannot see.  logicopt/rewrite/ applies exact datapath rules
// one candidate at a time, each scored through a cone-scoped incremental
// power oracle on the circuit as it currently stands and proven
// bit-identical against the interpreter before it may commit.  This bench
// pins rule soundness (every rule at every match site on the generated
// family), measures the switching-power reduction of the flow with the
// datapath stage against the same flow without it, and checks that no
// engine run silently truncated its candidate queue.
//
// It also carries E26 — speculative parallel candidate scoring
// (logicopt/speculate.hpp): worker threads score candidate batches against
// a snapshot and the engine commits the deltas, so the bench pins
// bit-identity of the result across worker counts, measures the
// hardware-gated wall-clock speedup at 4 workers, and bands the
// hardware-independent price of speculation: the process CPU time it
// spends at 4 workers over the time at 1.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "bench_util.hpp"
#include "core/flows.hpp"
#include "core/metrics.hpp"
#include "core/report.hpp"
#include "logicopt/rewrite/engine.hpp"
#include "netlist/benchmarks.hpp"
#include "sim/logicsim.hpp"

namespace {

using namespace lps;

// Process CPU time of every thread, user plus system, in ms.
double process_cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ms = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) * 1e3 +
           static_cast<double>(t.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

// The datapath family of the E25 claim: multipliers, ALUs and the
// DCT-butterfly add/sub pairs the carry/share/reassociation rules target.
std::vector<bench::NamedNetlist> family() {
  std::vector<bench::NamedNetlist> fam;
  fam.push_back({"mult4", bench::array_multiplier(4)});
  fam.push_back({"mult8", bench::array_multiplier(8)});
  fam.push_back({"alu4", bench::alu(4)});
  fam.push_back({"addsub8", bench::alu_addsub(8)});
  fam.push_back({"dct8", bench::dct_butterfly(8)});
  fam.push_back({"dct16", bench::dct_butterfly(16)});
  return fam;
}

double switching_w(const Netlist& net) {
  power::AnalysisOptions ao;
  ao.mode = power::ActivityMode::ZeroDelay;
  ao.n_vectors = 4096;
  ao.seed = 123;  // independent of every oracle/estimator seed in the flows
  return power::analyze(net, ao).report.breakdown.switching_w;
}

void report() {
  benchx::banner(
      "E25 bench_rewrite",
      "Power-driven datapath rewriting: exact structural rules (reassoc, "
      "carry-save, sharing, mux laws) scored per candidate through the "
      "cone-scoped incremental oracle, every keep proven bit-identical "
      "against the interpreter before it commits.");

  // ---- rule soundness: every rule at every match site -------------------
  bool sound = true;
  std::size_t sites = 0;
  for (const auto& [name, net] : family()) {
    const sim::SimTrace ref = sim::functional_trace(net, 64, 33);
    for (const auto& cand : logicopt::rewrite::match_rules(net)) {
      Netlist work = net.clone();
      if (!logicopt::rewrite::apply_rule(work, cand)) continue;
      ++sites;
      const sim::SimTrace now = sim::functional_trace(work, 64, 33);
      if (!(now == ref) || !work.check().empty()) {
        sound = false;
        std::cout << "UNSOUND: " << name << " rule "
                  << logicopt::rewrite::rule_name(cand.rule) << " target "
                  << cand.target << " variant " << int(cand.variant) << "\n";
      }
    }
  }
  std::cout << "rule soundness: " << sites << " applied match sites, "
            << (sound ? "all exact" : "MISMATCHES") << "\n\n";

  // ---- engine-level switching reduction ---------------------------------
  // The headline measure: rewrite_datapath on the naively elaborated
  // family circuits (constant carry-ins, zero-padded reduction rows,
  // per-bit complemented operands — exactly what the generators produce),
  // measured before/after with an independent ZeroDelay stimulus.  This is
  // the subsystem's own claim; E20 already bands the composed flow.
  core::Table t({"circuit", "before W", "after W", "saving", "kept",
                 "reverted", "gates"});
  double log_ratio_sum = 0.0;
  std::size_t n_measured = 0;
  double capped_runs = 0.0;
  for (const auto& [name, net] : family()) {
    Netlist work = net.clone();
    core::metrics::reset();  // scope the cap metric to this engine run
    auto res = logicopt::rewrite::rewrite_datapath(work);
    capped_runs += core::metrics::value("logicopt.rewrite.capped_runs");
    double pb = switching_w(net);
    double pa = switching_w(work);
    double saving = pb > 0.0 ? 1.0 - pa / pb : 0.0;
    log_ratio_sum += std::log(pa / pb);
    ++n_measured;
    benchx::claim("E25.saving." + std::string(name), saving);
    t.row({name, core::Table::num(pb * 1e6, 2) + "u",
           core::Table::num(pa * 1e6, 2) + "u",
           core::Table::num(saving * 100.0, 1) + "%",
           core::Table::num(static_cast<double>(res.kept), 0),
           core::Table::num(static_cast<double>(res.reverted), 0),
           std::to_string(res.gates_before) + "->" +
               std::to_string(res.gates_after)});
  }
  t.print(std::cout);
  double reduction_geomean =
      1.0 - std::exp(log_ratio_sum / static_cast<double>(n_measured));
  std::cout << "\nswitching reduction geomean (engine vs input): "
            << core::Table::num(reduction_geomean * 100.0, 1) << "%\n";

  // ---- flow-level no-regression gate ------------------------------------
  // The stage rides behind strash/don't-care/resynth, which already absorb
  // the constant redundancy; what's left to it there is the algebraic
  // restructuring.  The claim is that turning the stage on never costs
  // measurable power on the family (the keep-check backs out losers).
  double flow_delta_min = 1.0;
  for (const auto& [name, net] : family()) {
    core::FlowOptions base;
    base.estimate_mode = power::ActivityMode::ZeroDelay;
    base.run_datapath = false;
    core::FlowOptions with = base;
    with.run_datapath = true;
    double pb = switching_w(core::optimize_combinational(net, base).circuit);
    double pd = switching_w(core::optimize_combinational(net, with).circuit);
    double delta = pb > 0.0 ? 1.0 - pd / pb : 0.0;
    flow_delta_min = std::min(flow_delta_min, delta);
  }
  std::cout << "flow-level delta (datapath stage on vs off), worst circuit: "
            << core::Table::num(flow_delta_min * 100.0, 1) << "%\n\n";

  benchx::claim("E25.soundness", sound);
  benchx::claim("E25.match_sites", static_cast<double>(sites));
  benchx::claim("E25.reduction_geomean", reduction_geomean);
  benchx::claim("E25.flow_delta_min", flow_delta_min);
  benchx::claim("E25.capped_runs", capped_runs);

  // ---- E26: speculative parallel candidate scoring ----------------------
  // The load-bearing claim is identity: at any worker count the engine must
  // produce the same kept sequence, the same final netlist and the same
  // (bitwise) exit power as the sequential run — speculation is a wall-clock
  // optimization, never a result change.  The speedup claim is measured
  // here too but banded as optional/hardware-gated: it only moves when real
  // cores exist under the worker threads.  Work inflation does not depend
  // on the cores: it is the extra CPU the workers burn (clones, batch
  // scoring, conflicted re-scores) for the same result.
  bool identical = true;
  bool accounted = true;
  double speedup_log_sum = 0.0;
  std::size_t speedup_n = 0;
  double cpu_1w = 0.0, cpu_4w = 0.0;
  core::Table ts({"circuit", "kept", "batches", "conflicts", "rescored",
                  "t 1w ms", "t 4w ms", "speedup"});
  for (const auto& [name, net] : family()) {
    auto timed_run = [&](int workers, Netlist& work,
                         logicopt::rewrite::RewriteResult& res) {
      logicopt::rewrite::RewriteOptions opt;
      opt.workers = workers;
      auto t0 = std::chrono::steady_clock::now();
      res = logicopt::rewrite::rewrite_datapath(work, opt);
      return std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - t0)
          .count();
    };
    Netlist base = net.clone();
    logicopt::rewrite::RewriteResult r1;
    double c0 = process_cpu_ms();
    double t1 = timed_run(1, base, r1);
    cpu_1w += process_cpu_ms() - c0;
    logicopt::rewrite::RewriteResult r4;
    double t4 = 0.0;
    for (int w : {2, 4, 8}) {
      Netlist work = net.clone();
      logicopt::rewrite::RewriteResult rw;
      c0 = process_cpu_ms();
      double tw = timed_run(w, work, rw);
      if (w == 4) {
        r4 = rw;
        t4 = tw;
        cpu_4w += process_cpu_ms() - c0;
      }
      bool same = structural_hash(work) == structural_hash(base) &&
                  rw.kept == r1.kept && rw.reverted == r1.reverted &&
                  rw.unsound == r1.unsound &&
                  rw.candidates_scored == r1.candidates_scored &&
                  rw.power_after_w == r1.power_after_w;
      if (!same) {
        identical = false;
        std::cout << "IDENTITY BREAK: " << name << " workers " << w << "\n";
      }
      accounted = accounted && rw.candidates_scored == rw.kept + rw.reverted;
    }
    if (t4 > 0.0) {
      speedup_log_sum += std::log(t1 / t4);
      ++speedup_n;
    }
    ts.row({name, core::Table::num(static_cast<double>(r1.kept), 0),
            core::Table::num(static_cast<double>(r4.spec_batches), 0),
            core::Table::num(static_cast<double>(r4.spec_conflicts), 0),
            core::Table::num(static_cast<double>(r4.spec_rescored), 0),
            core::Table::num(t1, 1), core::Table::num(t4, 1),
            core::Table::num(t1 / t4, 2) + "x"});
  }
  ts.print(std::cout);
  double speedup_geomean =
      speedup_n ? std::exp(speedup_log_sum / static_cast<double>(speedup_n))
                : 0.0;
  std::cout << "\nspeculative scoring identity (1/2/4/8 workers): "
            << (identical ? "bit-identical" : "BROKEN")
            << "; engine speedup geomean at 4 workers: "
            << core::Table::num(speedup_geomean, 2) << "x ("
            << std::thread::hardware_concurrency() << " hw threads)\n";
  const double work_inflation = cpu_1w > 0.0 ? cpu_4w / cpu_1w : 0.0;
  std::cout << "speculation work inflation at 4 workers: "
            << core::Table::num(work_inflation, 2) << "x (process CPU "
            << core::Table::num(cpu_4w, 1) << " ms vs "
            << core::Table::num(cpu_1w, 1) << " ms at 1 worker)\n\n";

  benchx::claim("E26.identity", identical);
  benchx::claim("E26.conflicts_accounted", accounted);
  benchx::claim("E26.work_inflation_4w", work_inflation);
  // Wall-clock only means anything with cores behind the workers; boxes
  // with fewer than 4 hardware threads skip the (optional) band entirely.
  if (std::thread::hardware_concurrency() >= 4)
    benchx::claim("E26.spec_speedup_4w", speedup_geomean);
}

// ---- timings: the engine itself, and the flow with/without the stage -----
// Names pair as <base>_base / <base>_dp; the pairing feeds the
// rewrite_savings table row alongside the per-circuit E25.saving.* claims.

template <typename Make>
void bm_engine(benchmark::State& state, Make make, int workers = 0) {
  Netlist net = make();
  logicopt::rewrite::RewriteOptions opt;
  opt.sim_vectors = 1024;
  opt.workers = workers;
  for (auto _ : state) {
    Netlist work = net.clone();
    auto res = logicopt::rewrite::rewrite_datapath(work, opt);
    benchmark::DoNotOptimize(res.kept);
  }
}

template <typename Make>
void bm_flow(benchmark::State& state, Make make, bool datapath) {
  Netlist net = make();
  core::FlowOptions opt;
  opt.estimate_mode = power::ActivityMode::ZeroDelay;
  opt.sim_vectors = 512;
  opt.run_datapath = datapath;
  for (auto _ : state) {
    auto res = core::optimize_combinational(net, opt);
    benchmark::DoNotOptimize(res.circuit.num_gates());
  }
}

void bm_rewrite_engine_dct8(benchmark::State& s) {
  bm_engine(s, [] { return bench::dct_butterfly(8); });
}
void bm_rewrite_engine_mult8(benchmark::State& s) {
  bm_engine(s, [] { return bench::array_multiplier(8); });
}
// Speculation worker matrix: _w1/_w4 pairs feed the speculative_speedups
// table in aggregate_bench.py (and the E26 wall-clock story).
void bm_rewrite_engine_dct8_w1(benchmark::State& s) {
  bm_engine(s, [] { return bench::dct_butterfly(8); }, 1);
}
void bm_rewrite_engine_dct8_w4(benchmark::State& s) {
  bm_engine(s, [] { return bench::dct_butterfly(8); }, 4);
}
void bm_rewrite_engine_mult8_w1(benchmark::State& s) {
  bm_engine(s, [] { return bench::array_multiplier(8); }, 1);
}
void bm_rewrite_engine_mult8_w4(benchmark::State& s) {
  bm_engine(s, [] { return bench::array_multiplier(8); }, 4);
}
void bm_rewrite_flow_dct8_base(benchmark::State& s) {
  bm_flow(s, [] { return bench::dct_butterfly(8); }, false);
}
void bm_rewrite_flow_dct8_dp(benchmark::State& s) {
  bm_flow(s, [] { return bench::dct_butterfly(8); }, true);
}
BENCHMARK(bm_rewrite_engine_dct8);
BENCHMARK(bm_rewrite_engine_mult8);
BENCHMARK(bm_rewrite_engine_dct8_w1);
BENCHMARK(bm_rewrite_engine_dct8_w4);
BENCHMARK(bm_rewrite_engine_mult8_w1);
BENCHMARK(bm_rewrite_engine_mult8_w4);
BENCHMARK(bm_rewrite_flow_dct8_base);
BENCHMARK(bm_rewrite_flow_dct8_dp);

}  // namespace

LPS_BENCH_MAIN(report)
