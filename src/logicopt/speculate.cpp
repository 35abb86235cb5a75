#include "logicopt/speculate.hpp"

#include <algorithm>
#include <atomic>
#include <optional>
#include <thread>

#include "core/env.hpp"
#include "core/metrics.hpp"
#include "core/parallel.hpp"
#include "logicopt/candidate.hpp"
#include "power/activity.hpp"

namespace lps::logicopt::speculate {

namespace {

std::atomic<int> g_override{0};

int env_workers() {
  static const int cached = static_cast<int>(
      core::env_long_or("LPS_OPT_WORKERS", 1, 256, 1));
  return cached;
}

}  // namespace

int default_workers() {
  int o = g_override.load(std::memory_order_relaxed);
  return o > 0 ? o : env_workers();
}

int resolve_workers(int requested) {
  int w = requested > 0 ? requested : default_workers();
  return std::clamp(w, 1, 256);
}

ScopedWorkers::ScopedWorkers(int n)
    : prev_(g_override.load(std::memory_order_relaxed)) {
  g_override.store(n > 0 ? n : 0, std::memory_order_relaxed);
}

ScopedWorkers::~ScopedWorkers() {
  g_override.store(prev_, std::memory_order_relaxed);
}

void run_workers(int workers, const std::function<void(int)>& fn) {
  if (workers <= 1) {
    fn(0);
    return;
  }
  std::vector<std::thread> team;
  team.reserve(static_cast<std::size_t>(workers) - 1);
  for (int w = 1; w < workers; ++w) team.emplace_back(fn, w);
  fn(0);
  for (auto& t : team) t.join();
}

DeltaScore score_delta(const power::Analysis& before,
                       const power::Analysis& after,
                       std::span<const NodeId> footprint) {
  DeltaScore r;
  const auto& pb = before.report.node_power_w;
  const auto& pa = after.report.node_power_w;
  double acc = 0.0;
  for (NodeId id : footprint) {
    double b = id < pb.size() ? pb[id] : 0.0;
    double a = id < pa.size() ? pa[id] : 0.0;
    acc += a - b;
  }
  r.clock_moved = before.clock_power_w != after.clock_power_w;
  r.delta_w = acc + (after.clock_power_w - before.clock_power_w);
  return r;
}

std::vector<NodeId> dirty_footprint(const Netlist& net,
                                    const Netlist::TouchedNodes& touched) {
  std::vector<bool> mask =
      net.fanout_cone_of(touched.value_roots, /*through_dffs=*/true);
  if (mask.size() < net.size()) mask.resize(net.size(), false);
  for (NodeId id : touched.ids)
    if (id < mask.size()) mask[id] = true;
  std::vector<NodeId> out;
  for (NodeId id = 0; id < mask.size(); ++id)
    if (mask[id]) out.push_back(id);
  return out;
}

std::vector<NodeId> read_closure(const Netlist& net,
                                 std::span<const NodeId> seeds, int depth) {
  std::vector<NodeId> all;
  std::vector<NodeId> frontier;
  for (NodeId s : seeds)
    if (s != kNoNode && s < net.size()) frontier.push_back(s);
  all = frontier;
  for (int d = 0; d < depth && !frontier.empty(); ++d) {
    std::vector<NodeId> next;
    for (NodeId u : frontier)
      for (NodeId f : net.node(u).fanins)
        if (f < net.size()) next.push_back(f);
    all.insert(all.end(), next.begin(), next.end());
    frontier = std::move(next);
  }
  // Sharing scans (find_gate) walk the fanout lists of closure nodes and
  // compare those fanouts' fanins; include the fanouts so an edit that
  // could flip such a comparison intersects this set.
  std::size_t base = all.size();
  for (std::size_t i = 0; i < base; ++i)
    for (NodeId u : net.node(all[i]).fanouts)
      if (u < net.size()) all.push_back(u);
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

namespace {

// A gated register's clock contribution is summed per distinct enable net,
// in enable-id order — an ordering that can differ between the snapshot and
// the live netlist.  Any candidate touching such a register is re-scored
// serially; the record keeps its type even when tombstoned, so removed
// registers are caught too.
bool touches_gated_register(const Netlist& net,
                            const Netlist::TouchedNodes& touched) {
  for (NodeId id : touched.ids) {
    if (id >= net.size()) continue;
    const Node& n = net.node(id);
    if (n.type == GateType::Dff && n.fanins.size() == 2) return true;
  }
  return false;
}

// Sorted unique copy of `ids` restricted to [0, limit).
std::vector<NodeId> canonical_below(std::span<const NodeId> ids,
                                    std::size_t limit) {
  std::vector<NodeId> out;
  out.reserve(ids.size());
  for (NodeId id : ids)
    if (id < limit) out.push_back(id);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

void rethrow_if_cancelled(const std::exception_ptr& e) {
  if (!e) return;
  try {
    std::rethrow_exception(e);
  } catch (const core::CancelledError&) {
    throw;
  } catch (...) {
    // Not a cancellation: the caller re-scores the candidate serially.
  }
}

bool same_touched(std::span<const NodeId> snap_ids,
                  std::span<const NodeId> snap_roots,
                  const Netlist::TouchedNodes& live,
                  std::size_t snapshot_size) {
  std::vector<NodeId> ids = canonical_below(live.ids, snapshot_size);
  if (ids.size() != snap_ids.size() ||
      !std::equal(ids.begin(), ids.end(), snap_ids.begin()))
    return false;
  std::vector<NodeId> roots = canonical_below(live.value_roots, snapshot_size);
  return roots.size() == snap_roots.size() &&
         std::equal(roots.begin(), roots.end(), snap_roots.begin());
}

std::vector<CandidateScore> score_rewrite_batch(
    const Netlist& net, const power::IncrementalAnalyzer& oracle,
    std::span<const rewrite::Candidate> batch, double min_gain_w,
    int workers) {
  std::vector<CandidateScore> out(batch.size());
  const std::size_t snap_size = net.size();
  std::atomic<std::size_t> next{0};

  auto work = [&](int) {
    std::optional<Netlist> clone;
    std::optional<power::IncrementalAnalyzer> worker_oracle;
    std::optional<candidate::Kernel> kernel;
    for (;;) {
      std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= batch.size()) break;
      CandidateScore& sc = out[i];
      try {
        if (!clone) {
          clone.emplace(net.clone());
          worker_oracle.emplace(oracle.clone_for(*clone));
          kernel.emplace(*clone, *worker_oracle,
                         candidate::KernelOptions{.min_gain_w = min_gain_w});
        }
        const rewrite::Candidate& cand = batch[i];
        std::vector<NodeId> seeds{cand.target};
        if (cand.aux != kNoNode) seeds.push_back(cand.aux);
        sc.reads = read_closure(*clone, seeds, rewrite::kMaxMatchDepth);

        candidate::Probe p =
            kernel->apply([&] { return rewrite::apply_rule(*clone, cand); });
        if (!p.applied) continue;  // stale at the snapshot; nothing mutated
        sc.applied = true;
        if (p.touched.all) {
          // Wholesale invalidation would force the clone's oracle into a
          // full rebaseline (shared-pool work) — defer to the serial path.
          kernel->reject(p);
          sc.forced_conflict = true;
          continue;
        }
        sc.touched_snap = canonical_below(p.touched.ids, snap_size);
        sc.roots_snap = canonical_below(p.touched.value_roots, snap_size);
        if (touches_gated_register(*clone, p.touched))
          sc.forced_conflict = true;
        kernel->score(p);
        if (p.clock_moved) sc.forced_conflict = true;
        sc.keep = !sc.forced_conflict && p.wins;
        sc.sound = p.sound;
        kernel->reject(p);
        sc.footprint = canonical_below(p.footprint, snap_size);
      } catch (...) {
        sc.error = std::current_exception();
        // The clone's exact state after a mid-candidate failure is not worth
        // reasoning about; rebuild it for the next pull.
        kernel.reset();
        worker_oracle.reset();
        clone.reset();
      }
    }
  };
  run_workers(workers, work);
  core::metrics::count("logicopt.spec.speculated",
                       static_cast<double>(batch.size()));
  return out;
}

}  // namespace lps::logicopt::speculate
