// E20 — the survey's thesis, §VI: "We have surveyed power optimizations
// applicable at various levels of abstraction" — the point of a CAD system
// is that they compose.  This bench runs the full combinational low-power
// flow (strash -> ODC rewriting -> window resynthesis -> datapath rewriting
// -> BDD synthesis -> path balancing -> in-place sizing, each stage measured
// and reverted if it loses) across the benchmark suite and reports the
// composed savings with stage attribution.  BDD synthesis is opt-in in the
// library flow; this bench turns it on so the full ladder is measured.

#include <algorithm>

#include "bench_util.hpp"
#include "core/flows.hpp"
#include "core/metrics.hpp"
#include "core/report.hpp"
#include "netlist/benchmarks.hpp"
#include "sim/logicsim.hpp"

namespace {

using namespace lps;

void report() {
  benchx::banner("E20 bench_flow",
                 "Composition: the surveyed optimizations stack; losing "
                 "stages are measured and reverted (the buffer-capacitance "
                 "caveat of S-III-A.2 made operational).");
  core::Table t({"circuit", "power in uW", "power out uW", "saving",
                 "gates in->out", "stages kept", "equiv"});
  double saving_min = 1.0, saving_max = -1.0;
  bool all_equiv = true;
  const auto metrics_before = core::metrics::Registry::global().counters();
  for (const auto& [name, net] : bench::default_suite()) {
    if (net.num_gates() > 300) continue;  // keep the sweep quick
    core::FlowOptions opt;
    opt.sim_vectors = 1024;
    opt.run_bdd_synth = true;  // E20 measures the full ladder
    auto r = core::optimize_combinational(net, opt);
    int kept = 0;
    for (const auto& s : r.stages)
      if (s.status == "kept") ++kept;
    kept -= 2;  // input + strash rows
    const std::size_t attempted = r.stages.size() - 2;
    const core::StageReport* out = r.last_kept_stage();
    bool equiv = sim::equivalent_random(net, r.circuit, 256, 5);
    saving_min = std::min(saving_min, r.saving());
    saving_max = std::max(saving_max, r.saving());
    all_equiv = all_equiv && equiv;
    t.row({name, core::Table::num(r.stages.front().power_w * 1e6, 1),
           core::Table::num(out->power_w * 1e6, 1),
           core::Table::pct(r.saving()),
           std::to_string(r.stages.front().gates) + " -> " +
               std::to_string(out->gates),
           std::to_string(kept) + "/" + std::to_string(attempted),
           equiv ? "yes" : "NO"});
  }
  t.print(std::cout);
  // Don't-care's and resynthesis' shares of the flow stages' wall-clock:
  // host-independent ratios, so one stage coming to dominate every flow
  // fails its band.
  double stage_ms = 0.0, dontcare_ms = 0.0, resynth_ms = 0.0;
  for (const auto& [key, ms] : core::metrics::Registry::global().counters()) {
    if (!key.starts_with("time_ms.flow.")) continue;
    auto before = metrics_before.find(key);
    const double delta =
        ms - (before == metrics_before.end() ? 0.0 : before->second);
    stage_ms += delta;
    if (key == "time_ms.flow.dontcare") dontcare_ms = delta;
    if (key == "time_ms.flow.resynth") resynth_ms = delta;
  }
  const double dontcare_share = stage_ms > 0 ? dontcare_ms / stage_ms : 0.0;
  const double resynth_share = stage_ms > 0 ? resynth_ms / stage_ms : 0.0;
  std::cout << "don't-care share of flow stage time: "
            << core::Table::pct(dontcare_share) << '\n'
            << "resynthesis share of flow stage time: "
            << core::Table::pct(resynth_share) << '\n';
  benchx::claim("E20.saving_min", saving_min);
  benchx::claim("E20.saving_max", saving_max);
  benchx::claim("E20.all_equivalent", all_equiv);
  benchx::claim("E20.dontcare_share", dontcare_share);
  benchx::claim("E20.resynth_share", resynth_share);
  std::cout << '\n';
}

void bm_flow_workers(benchmark::State& state, int workers) {
  auto net = bench::carry_select_adder(8, 2);
  core::FlowOptions opt;
  opt.sim_vectors = 256;
  opt.opt_workers = workers;
  opt.run_bdd_synth = true;
  for (auto _ : state) {
    auto r = core::optimize_combinational(net, opt);
    benchmark::DoNotOptimize(r.stages.size());
  }
}
void bm_flow(benchmark::State& state) { bm_flow_workers(state, 0); }
// _w1/_w4 pair: speculative candidate scoring off/on in the optimization
// stages — aggregate_bench.py derives the flow-level speedup from it.
void bm_flow_w1(benchmark::State& state) { bm_flow_workers(state, 1); }
void bm_flow_w4(benchmark::State& state) { bm_flow_workers(state, 4); }
BENCHMARK(bm_flow);
BENCHMARK(bm_flow_w1);
BENCHMARK(bm_flow_w4);

}  // namespace

LPS_BENCH_MAIN(report)
