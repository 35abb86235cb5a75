// E27 — synthesis-scale BDD substrate and hybrid BDD→MUX extraction.
// The §III-A story needs a BDD package that survives synthesis workloads:
// complement edges make negation free and halve parity-style node counts,
// reference-counted roots plus mark-and-sweep GC bound the live footprint
// across long optimization runs, and activity-weighted sifting reorders
// variables so high-toggle signals sit near the MUX-network root.  On top
// rides logicopt/bdd_synth.hpp: per-cone BDD→MUX extraction, each kept
// cone scored through the incremental power oracle and proven bit-identical
// against the interpreter before it commits (hybrid extraction — losers
// keep their original structure).
//
// This bench pins: (1) soundness of every engine run on the datapath
// family, (2) the per-circuit engine-level switching savings and their
// geomean, (3) the flow-level no-regression gate for the bdd_synth stage,
// (4) the live-node footprint of a suite rebuild under complement edges +
// GC versus the seed manager's plain monotonic pool, (5) that a node budget
// which kills the plain encoding completes under complement + GC, and
// (6) bit-identity of the flow across candidate-scoring worker counts.

#include <algorithm>
#include <cmath>
#include <vector>

#include "bench_util.hpp"
#include "bdd/bdd.hpp"
#include "core/flows.hpp"
#include "core/metrics.hpp"
#include "core/report.hpp"
#include "logicopt/bdd_synth.hpp"
#include "netlist/benchmarks.hpp"
#include "power/activity.hpp"
#include "sim/logicsim.hpp"

namespace {

using namespace lps;

// The datapath family of the E27 claims: the same multiplier/ALU/DCT
// shapes the rewrite engine targets, plus the comparator and carry-select
// circuits whose cones exercise the support cap and the sifting weights.
std::vector<bench::NamedNetlist> family() {
  std::vector<bench::NamedNetlist> fam;
  fam.push_back({"mult4", bench::array_multiplier(4)});
  fam.push_back({"alu4", bench::alu(4)});
  fam.push_back({"addsub8", bench::alu_addsub(8)});
  fam.push_back({"dct8", bench::dct_butterfly(8)});
  fam.push_back({"cmp8", bench::comparator_gt(8)});
  fam.push_back({"csel16", bench::carry_select_adder(16, 4)});
  return fam;
}

double switching_w(const Netlist& net) {
  power::AnalysisOptions ao;
  ao.mode = power::ActivityMode::ZeroDelay;
  ao.n_vectors = 4096;
  ao.seed = 123;  // independent of every oracle/estimator seed in the flows
  return power::analyze(net, ao).report.breakdown.switching_w;
}

// ---- suite rebuild: footprint of complement edges + GC ------------------
//
// Builds the output BDDs of every (combinational, <=24-input) suite
// circuit back to back inside ONE manager — the long-lived analysis-server
// workload.  Per-gate intermediates are dropped as soon as their last
// consumer is built and each circuit's outputs are dropped before the next
// circuit; the substrate's collector reclaims everything unreachable while
// the seed manager (plain edges, no collector) can only accumulate.
// Returns the manager's peak live-node high-water mark.

std::vector<NodeId> dfs_sources(const Netlist& net) {
  std::vector<NodeId> order;
  std::vector<bool> seen(net.size(), false);
  auto rec = [&](auto&& self, NodeId n) -> void {
    if (seen[n]) return;
    seen[n] = true;
    const Node& nd = net.node(n);
    if (nd.type == GateType::Input || nd.type == GateType::Dff) {
      order.push_back(n);
      return;
    }
    for (NodeId f : nd.fanins) self(self, f);
  };
  for (NodeId o : net.outputs()) rec(rec, o);
  for (NodeId pi : net.inputs())
    if (!seen[pi]) {
      seen[pi] = true;
      order.push_back(pi);
    }
  return order;
}

std::size_t suite_rebuild_peak(const bdd::Config& cfg, unsigned num_vars,
                               const std::vector<const Netlist*>& suite) {
  bdd::Manager m(num_vars, cfg);
  for (const Netlist* netp : suite) {
    const Netlist& net = *netp;
    // Interleaved variable order (DFS from the outputs, fanin first) so
    // both managers build the same linear-width adder/comparator BDDs.
    std::unordered_map<NodeId, unsigned> var_of;
    unsigned v = 0;
    for (NodeId s : dfs_sources(net)) var_of[s] = v++;
    std::vector<bdd::Ref> fn(net.size(), bdd::kFalse);
    // Remaining consumers per node: a function's root is dropped as soon
    // as its last fanout is built (outputs hold one extra use until the
    // end of the circuit) — only the output BDDs stay live.
    std::vector<unsigned> uses(net.size(), 0);
    for (NodeId id : net.topo_order()) {
      const Node& nd = net.node(id);
      if (nd.type == GateType::Input || nd.type == GateType::Dff) continue;
      for (NodeId f : nd.fanins) ++uses[f];
    }
    for (NodeId o : net.outputs()) ++uses[o];
    auto release = [&](NodeId n) {
      const Node& nd = net.node(n);
      if (nd.type == GateType::Const0 || nd.type == GateType::Const1) return;
      m.deref(fn[n]);
    };
    for (NodeId pi : net.inputs()) {
      fn[pi] = m.ref(m.var(var_of.at(pi)));
      if (uses[pi] == 0) release(pi);
    }
    // Every per-node function is rooted as soon as it exists (the auto-GC
    // contract); intermediates are arguments of the next call.
    for (NodeId id : net.topo_order()) {
      const Node& nd = net.node(id);
      switch (nd.type) {
        case GateType::Input:
        case GateType::Dff:
          continue;
        case GateType::Const0:
          fn[id] = bdd::kFalse;
          break;
        case GateType::Const1:
          fn[id] = bdd::kTrue;
          break;
        case GateType::Buf:
          fn[id] = fn[nd.fanins[0]];
          break;
        case GateType::Not:
          fn[id] = m.lnot(fn[nd.fanins[0]]);
          break;
        case GateType::And:
        case GateType::Nand: {
          bdd::Ref r = bdd::kTrue;
          for (NodeId f : nd.fanins) r = m.land(r, fn[f]);
          fn[id] = nd.type == GateType::Nand ? m.lnot(r) : r;
          break;
        }
        case GateType::Or:
        case GateType::Nor: {
          bdd::Ref r = bdd::kFalse;
          for (NodeId f : nd.fanins) r = m.lor(r, fn[f]);
          fn[id] = nd.type == GateType::Nor ? m.lnot(r) : r;
          break;
        }
        case GateType::Xor:
        case GateType::Xnor: {
          bdd::Ref r = bdd::kFalse;
          for (NodeId f : nd.fanins) r = m.lxor(r, fn[f]);
          fn[id] = nd.type == GateType::Xnor ? m.lnot(r) : r;
          break;
        }
        case GateType::Mux:
          fn[id] = m.ite(fn[nd.fanins[0]], fn[nd.fanins[2]], fn[nd.fanins[1]]);
          break;
      }
      if (nd.type != GateType::Const0 && nd.type != GateType::Const1)
        m.ref(fn[id]);
      for (NodeId f : nd.fanins)
        if (--uses[f] == 0) release(f);
      if (uses[id] == 0) release(id);
    }
    // This circuit is done: drop its outputs.  With the collector the
    // whole corpse is reclaimed before the next build; the plain pool
    // keeps it.
    for (NodeId o : net.outputs())
      if (--uses[o] == 0) release(o);
    if (cfg.auto_gc) m.gc();
  }
  return m.peak_live_nodes();
}

// ---- halved node budget: complement edges + GC where the seed threw -----
//
// 40-variable parity chain, built tail first: one node per level with
// complement edges (both polarities share a node), two per level without.
// At a 96-node budget the plain encoding must throw; the substrate
// completes with the collector sweeping each superseded prefix parity.

bool plain_build_throws_and_substrate_completes() {
  auto build_parity = [](bdd::Manager& m) {
    bdd::Ref f = m.ref(bdd::kFalse);
    for (unsigned v = 0; v < 40; ++v) {
      bdd::Ref x = m.ref(m.var(v));
      bdd::Ref t = m.ref(m.lxor(f, x));
      m.deref(x);
      m.deref(f);
      f = t;
    }
    return f;
  };
  bdd::Config plain;
  plain.complement_edges = false;
  plain.auto_gc = true;
  plain.node_limit = 96;
  bool plain_threw = false;
  try {
    bdd::Manager mp(40, plain);
    build_parity(mp);
  } catch (const bdd::NodeLimitExceeded&) {
    plain_threw = true;
  }
  bdd::Config cfg;
  cfg.auto_gc = true;
  cfg.node_limit = 96;
  bdd::Manager m(40, cfg);
  bdd::Ref f = build_parity(m);
  std::vector<bool> a(40, false);
  a[3] = true;
  bool correct = m.eval(f, a) && m.peak_live_nodes() <= 96;
  return plain_threw && correct;
}

void report() {
  benchx::banner(
      "E27 bench_bdd_synth",
      "Synthesis-scale BDD substrate (complement edges, mark-and-sweep GC, "
      "activity-weighted sifting) driving hybrid per-cone BDD->MUX "
      "extraction: every kept cone scored through the incremental oracle "
      "and proven bit-identical against the interpreter.");

  // ---- engine soundness + per-circuit savings ----------------------------
  bool sound = true;
  std::size_t examined = 0;
  core::Table t({"circuit", "cones", "kept", "capped", "peak live",
                 "before W", "after W", "saving"});
  double log_ratio_sum = 0.0;
  std::size_t n_measured = 0;
  // The engine runs on the naively elaborated family circuits (constant
  // carry-ins, zero-padded rows — exactly what the generators produce),
  // the same framing as the E25 engine claim: BDD extraction collapses the
  // constant redundancy exactly while the keep-check prices the MUX
  // network against the original cone.  E20/E27.flow_delta_min band the
  // composed flow, where strash has already absorbed the constants.
  for (const auto& [name, net] : family()) {
    Netlist work = net.clone();
    auto r = logicopt::synthesize_bdd_cones(work);
    examined += r.cones_examined;
    bool ok = r.unsound == 0 && work.check().empty() &&
              sim::equivalent_random(net, work, 512, 23);
    if (!ok) {
      sound = false;
      std::cout << "UNSOUND: " << name << "\n";
    }
    double pb = switching_w(net);
    double pa = switching_w(work);
    double saving = pb > 0.0 ? 1.0 - pa / pb : 0.0;
    log_ratio_sum += std::log(pa / pb);
    ++n_measured;
    benchx::claim("E27.saving." + std::string(name), saving);
    t.row({name, core::Table::num(static_cast<double>(r.cones_examined), 0),
           core::Table::num(static_cast<double>(r.kept), 0),
           core::Table::num(static_cast<double>(r.cones_capped), 0),
           core::Table::num(static_cast<double>(r.peak_live_nodes), 0),
           core::Table::num(pb * 1e6, 2) + "u",
           core::Table::num(pa * 1e6, 2) + "u",
           core::Table::num(saving * 100.0, 2) + "%"});
  }
  t.print(std::cout);
  double synth_geomean =
      1.0 - std::exp(log_ratio_sum / static_cast<double>(n_measured));
  std::cout << "\nhybrid extraction: most cones honestly revert (per-output "
               "MUX networks duplicate shared logic and toggle harder than "
               "low-activity ripple structures); the keep-check only commits "
               "strict oracle wins.\nengine saving geomean: "
            << core::Table::num(synth_geomean * 100.0, 2) << "%\n\n";

  // ---- flow-level no-regression gate --------------------------------------
  double flow_delta_min = 1.0;
  for (const auto& [name, net] : family()) {
    core::FlowOptions base;
    base.estimate_mode = power::ActivityMode::ZeroDelay;
    base.run_bdd_synth = false;
    core::FlowOptions with = base;
    with.run_bdd_synth = true;
    double pb = switching_w(core::optimize_combinational(net, base).circuit);
    double pw = switching_w(core::optimize_combinational(net, with).circuit);
    double delta = pb > 0.0 ? 1.0 - pw / pb : 0.0;
    flow_delta_min = std::min(flow_delta_min, delta);
  }
  std::cout << "flow-level delta (bdd_synth stage on vs off), worst circuit: "
            << core::Table::num(flow_delta_min * 100.0, 2) << "%\n";

  // ---- suite-rebuild footprint: complement + GC vs the seed pool ---------
  auto suite = bench::default_suite();
  std::vector<const Netlist*> picks;
  unsigned num_vars = 0;
  for (const auto& [name, net] : suite) {
    if (!net.dffs().empty() || net.inputs().size() > 24) continue;
    picks.push_back(&net);
    num_vars = std::max(num_vars, static_cast<unsigned>(net.inputs().size()));
  }
  bdd::Config seed_cfg;
  seed_cfg.complement_edges = false;
  seed_cfg.auto_gc = false;
  bdd::Config sub_cfg;
  sub_cfg.auto_gc = true;
  sub_cfg.gc_trigger = 1u << 12;
  std::size_t peak_seed = suite_rebuild_peak(seed_cfg, num_vars, picks);
  std::size_t peak_sub = suite_rebuild_peak(sub_cfg, num_vars, picks);
  double peak_ratio =
      peak_seed ? static_cast<double>(peak_sub) / peak_seed : 1.0;
  std::cout << "suite rebuild (" << picks.size()
            << " circuits, one manager): peak live nodes "
            << peak_seed << " (seed pool) vs " << peak_sub
            << " (complement+GC), ratio "
            << core::Table::num(peak_ratio, 3) << "\n";

  // ---- halved node budget -------------------------------------------------
  bool halved_ok = plain_build_throws_and_substrate_completes();
  std::cout << "halved node budget (96 nodes, 40-var parity chain): plain "
               "encoding throws, complement+GC completes: "
            << (halved_ok ? "yes" : "NO") << "\n";

  // ---- flow identity across worker counts ---------------------------------
  // The bdd_synth engine is sequential by construction; the speculative
  // stages around it transplant deltas exactly, so the whole ladder must be
  // bit-identical at any candidate-scoring worker count.
  bool identity = true;
  {
    const Netlist input = bench::alu_addsub(8);
    std::vector<std::uint64_t> hashes;
    std::vector<double> finals;
    for (int workers : {1, 4}) {
      core::FlowOptions fo;
      fo.estimate_mode = power::ActivityMode::ZeroDelay;
      fo.opt_workers = workers;
      fo.run_bdd_synth = true;
      auto res = core::optimize_combinational(input, fo);
      hashes.push_back(structural_hash(res.circuit));
      finals.push_back(res.stages.back().power_w);
    }
    identity = hashes[0] == hashes[1] && finals[0] == finals[1];
  }
  std::cout << "flow bit-identity at 1 vs 4 scoring workers: "
            << (identity ? "bit-identical" : "BROKEN") << "\n\n";

  benchx::claim("E27.soundness", sound);
  benchx::claim("E27.cones_examined", static_cast<double>(examined));
  benchx::claim("E27.synth_saving_geomean", synth_geomean);
  benchx::claim("E27.flow_delta_min", flow_delta_min);
  benchx::claim("E27.peak_live_ratio", peak_ratio);
  benchx::claim("E27.halved_limit_ok", halved_ok);
  benchx::claim("E27.identity_workers", identity);
}

// ---- timings: the engine itself, and the flow with/without the stage -----

template <typename Make>
void bm_engine(benchmark::State& state, Make make) {
  Netlist net = strash(make());
  logicopt::BddSynthOptions opt;
  opt.sim_vectors = 1024;
  for (auto _ : state) {
    Netlist work = net.clone();
    auto res = logicopt::synthesize_bdd_cones(work, opt);
    benchmark::DoNotOptimize(res.kept);
  }
}

template <typename Make>
void bm_flow(benchmark::State& state, Make make, bool bdd_synth) {
  Netlist net = make();
  core::FlowOptions opt;
  opt.estimate_mode = power::ActivityMode::ZeroDelay;
  opt.sim_vectors = 512;
  opt.run_bdd_synth = bdd_synth;
  for (auto _ : state) {
    auto res = core::optimize_combinational(net, opt);
    benchmark::DoNotOptimize(res.circuit.num_gates());
  }
}

void bm_bdd_synth_engine_addsub8(benchmark::State& s) {
  bm_engine(s, [] { return bench::alu_addsub(8); });
}
void bm_bdd_synth_engine_dct8(benchmark::State& s) {
  bm_engine(s, [] { return bench::dct_butterfly(8); });
}
void bm_bdd_synth_engine_mult4(benchmark::State& s) {
  bm_engine(s, [] { return bench::array_multiplier(4); });
}
void bm_bdd_synth_flow_addsub8_base(benchmark::State& s) {
  bm_flow(s, [] { return bench::alu_addsub(8); }, false);
}
void bm_bdd_synth_flow_addsub8_bdd(benchmark::State& s) {
  bm_flow(s, [] { return bench::alu_addsub(8); }, true);
}
BENCHMARK(bm_bdd_synth_engine_addsub8);
BENCHMARK(bm_bdd_synth_engine_dct8);
BENCHMARK(bm_bdd_synth_engine_mult4);
BENCHMARK(bm_bdd_synth_flow_addsub8_base);
BENCHMARK(bm_bdd_synth_flow_addsub8_bdd);

}  // namespace

LPS_BENCH_MAIN(report)
