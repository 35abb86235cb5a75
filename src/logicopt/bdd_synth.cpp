#include "logicopt/bdd_synth.hpp"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "bdd/bdd_netlist.hpp"
#include "core/metrics.hpp"
#include "logicopt/candidate.hpp"
#include "power/incremental.hpp"

namespace lps::logicopt {

namespace {

// Sifting bail-out: abandon a variable's walk past best × growth.
constexpr double kSiftGrowth = 2.0;
// Interpreter-trace frames proving each would-be keep on top of the PO
// digest.
constexpr std::size_t kVerifyFrames = 256;

// Extraction roots: the observation points (bdd_netlist.hpp),
// deduplicated, logic gates only (sources and registers have nothing to
// extract).
std::vector<NodeId> cone_roots(const Netlist& net) {
  std::vector<NodeId> roots;
  std::vector<bool> seen(net.size(), false);
  for (NodeId n : bdd::observation_points(net)) {
    if (seen[n]) continue;
    seen[n] = true;
    const Node& nd = net.node(n);
    if (nd.dead || is_source(nd.type) || nd.type == GateType::Dff) continue;
    roots.push_back(n);
  }
  return roots;
}

// Build the cone's function bottom-up in a fresh manager over variable v =
// cone.sources[v] and return the rooted function of the cone root.  Every
// per-gate function is ref()'d as soon as it exists (the auto-GC contract
// of bdd.hpp); once the root is known the scaffolding is deref'd and
// collected, so sifting and the peak-live watermark see only the root cone.
bdd::Ref build_cone(bdd::Manager& m, const Netlist& net, NodeId root,
                    const bdd::FaninOrder& cone) {
  std::vector<bdd::Ref> fn(net.size(), bdd::kFalse);
  // var() allocates a node, so the order the variables are created in
  // fixes the numbering of every Ref in the cone; it is this map's.
  std::unordered_map<NodeId, unsigned> var_of;
  for (unsigned v = 0; v < cone.sources.size(); ++v)
    var_of.emplace(cone.sources[v], v);
  for (const auto& [n, v] : var_of) fn[n] = m.ref(m.var(v));
  for (NodeId id : cone.gates)
    fn[id] = m.ref(bdd::lower_gate(m, net.node(id), fn));
  for (NodeId n : cone.sources) m.deref(fn[n]);
  for (NodeId id : cone.gates)
    if (id != root) m.deref(fn[id]);
  m.gc();
  return fn[root];
}

}  // namespace

BddSynthResult synthesize_bdd_cones(Netlist& net, const BddSynthOptions& opt) {
  core::metrics::ScopedTimer timer("logicopt.bdd_synth", /*trace=*/true);
  BddSynthResult res;
  res.gates_before = net.num_gates();
  // Private deterministic oracle: ZeroDelay statistics are bit-identical
  // across sim engines, lane widths and thread counts, so the kept-cone
  // sequence depends only on (netlist, options).
  power::AnalysisOptions ao;
  ao.mode = power::ActivityMode::ZeroDelay;
  ao.n_vectors = opt.sim_vectors;
  ao.seed = opt.seed;
  power::IncrementalAnalyzer inc(net, ao);
  res.power_before_w = inc.analysis().report.breakdown.total_w();
  candidate::Kernel kernel(
      net, inc, {.engine = "bdd_synth", .verify_frames = kVerifyFrames});

  for (NodeId root : cone_roots(net)) {
    if (net.is_dead(root)) continue;  // swept behind an earlier kept cone
    ++res.cones_examined;
    core::metrics::count("logicopt.bdd_synth.cones");
    const bdd::FaninOrder cone = bdd::fanin_dfs(net, {&root, 1});
    const std::vector<NodeId>& sources = cone.sources;
    if (sources.size() > opt.max_inputs) {
      ++res.cones_capped;
      core::metrics::count("logicopt.bdd_synth.capped");
      continue;
    }

    bdd::Config cfg;
    cfg.node_limit = opt.node_limit;
    cfg.auto_gc = true;
    bdd::Manager m(static_cast<unsigned>(sources.size()), cfg);
    bdd::Ref f;
    try {
      f = build_cone(m, net, root, cone);
      if (opt.sift && !sources.empty()) {
        // Weight each variable by its measured switching activity (from
        // the *current* circuit — the oracle re-scores after every kept
        // cone, so there is no stale-activity bias).  The floor keeps
        // plain node count as the tiebreaker for toggle-free inputs.
        const auto& tog = inc.analysis().toggles_per_cycle;
        std::vector<double> w(sources.size(), 1.0);
        for (unsigned v = 0; v < sources.size(); ++v)
          w[v] = 1e-3 + (sources[v] < tog.size() ? tog[sources[v]] : 0.0);
        bdd::Manager::SiftOptions so;
        so.weights = w;
        so.growth_limit = kSiftGrowth;
        m.sift(so);  // rooted f keeps its identity and function
      }
    } catch (const bdd::NodeLimitExceeded&) {
      ++res.cones_limited;
      core::metrics::count("logicopt.bdd_synth.limited");
      continue;
    }
    res.peak_live_nodes = std::max(res.peak_live_nodes, m.peak_live_nodes());

    // Splice the MUX network (variable v selects on sources[v]) in place
    // of the root; the kernel scores the dirty cone, proves a would-be keep
    // and keeps only a strict power win.
    candidate::Probe p = kernel.apply([&] {
      net.substitute(root, bdd::synthesize_bdd(net, m, f, sources));
      net.sweep();
      return true;
    });
    kernel.score(p);
    kernel.settle(p);
  }

  const candidate::Tally& t = kernel.tally();
  res.kept = t.kept;
  res.reverted = t.reverted;
  res.unsound = t.unsound;
  res.power_after_w = inc.analysis().report.breakdown.total_w();
  res.gates_after = net.num_gates();
  if (res.cones_capped != 0 || res.cones_limited != 0)
    res.note = std::to_string(res.cones_capped) + " cone(s) over the " +
               std::to_string(opt.max_inputs) + "-input cap, " +
               std::to_string(res.cones_limited) +
               " over the node budget (skipped, not silent)";
  return res;
}

}  // namespace lps::logicopt
