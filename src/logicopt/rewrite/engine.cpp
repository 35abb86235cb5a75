#include "logicopt/rewrite/engine.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include "core/metrics.hpp"
#include "logicopt/candidate.hpp"
#include "logicopt/speculate.hpp"
#include "power/incremental.hpp"

namespace lps::logicopt::rewrite {

namespace {

// Full-rule match/apply sweeps until a fixpoint.  Constant folding runs
// first as its own fixpoint prephase (fold-only queues, same scoring and
// proof per candidate) so const propagation doesn't consume these.
constexpr int kMaxRounds = 4;

// Touched-set union of keeps committed since the oracle was last synced.
// Flushed as one synthetic reanalyze: the resimulated cone words converge to
// the current netlist and the spliced counters are integers, so one union
// update leaves the oracle bit-identical to per-keep updates.
struct PendingTouched {
  std::vector<NodeId> ids;
  std::vector<NodeId> roots;
  bool any = false;

  void add(const Netlist::TouchedNodes& t) {
    any = true;
    ids.insert(ids.end(), t.ids.begin(), t.ids.end());
    roots.insert(roots.end(), t.value_roots.begin(), t.value_roots.end());
  }
};

void sort_unique(std::vector<NodeId>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

}  // namespace

RewriteResult rewrite_datapath(Netlist& net, const RewriteOptions& opt) {
  core::metrics::ScopedTimer timer("logicopt.rewrite", /*trace=*/true);
  RewriteResult res;
  res.gates_before = net.num_gates();
  const int workers = speculate::resolve_workers(opt.workers);
  res.workers_used = workers;

  // Private deterministic oracle: ZeroDelay statistics are bit-identical
  // across sim engines/widths/threads, so the kept-rewrite sequence never
  // depends on the caller's estimation configuration.
  power::AnalysisOptions ao;
  ao.mode = power::ActivityMode::ZeroDelay;
  ao.n_vectors = opt.sim_vectors;
  ao.seed = opt.seed;
  power::IncrementalAnalyzer oracle(net, ao);
  res.power_before_w = oracle.analysis().report.breakdown.total_w();
  candidate::Kernel kernel(net, oracle,
                           {.engine = "rewrite",
                            .min_gain_w = opt.min_gain_w,
                            .verify_frames = opt.verify_frames});

  PendingTouched pending;
  auto sync_oracle = [&] {
    if (!pending.any) return;
    Netlist::TouchedNodes t;
    t.all = false;
    sort_unique(pending.ids);
    sort_unique(pending.roots);
    t.ids = std::move(pending.ids);
    t.value_roots = std::move(pending.roots);
    pending = {};
    oracle.reanalyze(t);
  };

  // The one apply site on the live netlist, serial and speculative alike.
  auto apply = [&](const Candidate& cand, bool retry = false) {
    return kernel.apply([&] { return apply_rule(net, cand); }, retry);
  };

  // Sequential candidate processing (workers == 1, and the reference
  // semantics the speculative path must reproduce bit-for-bit).
  auto process_serial = [&](const Candidate& cand) -> bool {
    candidate::Probe p = apply(cand);
    if (!p.applied) return false;
    kernel.score(p);
    return kernel.settle(p);
  };

  // Speculative processing: score the batch against a snapshot on worker
  // threads, then commit in queue order.  Disjoint winners transplant the
  // worker's verdict; anything that overlapped an earlier keep (or whose
  // snapshot verdict is unusable) is re-scored serially at exactly the
  // point the sequential engine would have scored it.
  auto run_spec_batch = [&](std::span<const Candidate> batch) -> std::size_t {
    sync_oracle();  // workers clone the oracle; it must mirror the net
    const std::size_t snap_size = net.size();
    int team = static_cast<int>(
        std::min<std::size_t>(static_cast<std::size_t>(workers), batch.size()));
    std::vector<speculate::CandidateScore> scores =
        speculate::score_rewrite_batch(net, oracle, batch, opt.min_gain_w,
                                       team);
    ++res.spec_batches;
    core::metrics::count("logicopt.spec.batches");
    speculate::ConflictSet committed(snap_size);
    std::size_t kept_this_batch = 0;
    auto note_conflict = [&] {
      ++res.spec_conflicts;
      core::metrics::count("logicopt.spec.conflicts");
      sync_oracle();  // serial scoring needs a live previous_analysis
    };
    for (std::size_t k = 0; k < batch.size(); ++k) {
      const Candidate& cand = batch[k];
      speculate::CandidateScore& sc = scores[k];
      // A cancellation raised on a worker must abort the run (at this
      // candidate's sequential position), not be re-executed serially.
      speculate::rethrow_if_cancelled(sc.error);
      bool conflict = sc.error != nullptr || sc.forced_conflict ||
                      committed.hits(sc.reads) || committed.hits(sc.footprint);
      if (conflict) note_conflict();
      candidate::Probe p = apply(cand);
      if (!p.applied) continue;
      if (!conflict &&
          (!sc.applied || p.touched.all ||
           !speculate::same_touched(sc.touched_snap, sc.roots_snap, p.touched,
                                    snap_size))) {
        // The snapshot verdict is unusable (the candidate was stale there,
        // the live apply invalidated wholesale, or the live apply made a
        // *different* edit than the snapshot scored — a read outside the
        // structural closure): surface it as a conflict and redo the
        // apply with the oracle synced first.
        kernel.reject(p);
        conflict = true;
        note_conflict();
        p = apply(cand, /*retry=*/true);
        if (!p.applied) continue;
      }
      if (conflict) {
        ++res.spec_rescored;
        core::metrics::count("logicopt.spec.rescored");
        kernel.score(p);
      } else {
        // Disjoint from every committed keep: the worker's delta and digest
        // verdict transplant bit-for-bit; the oracle update is deferred.
        p.wins = sc.keep;
        p.sound = sc.sound;
      }
      if (!kernel.settle(p)) continue;
      ++kept_this_batch;
      // The conflict set carries the keep's structural edit *and* its dirty
      // activity footprint: a later candidate whose cone reconverges with
      // this keep's toggle changes downstream (no structural overlap) must
      // not transplant a pre-keep delta.
      committed.add(p.touched.ids);
      if (p.scored) {
        committed.add(p.footprint);  // the live oracle is already synced
      } else {
        committed.add(speculate::dirty_footprint(net, p.touched));
        pending.add(p.touched);
      }
    }
    return kept_this_batch;
  };

  auto run_queue = [&](std::vector<Candidate> queue) -> std::size_t {
    res.candidates_seen += queue.size();
    if (queue.size() > opt.max_candidates) {
      // Never truncate silently: the result flags it, metrics count it, and
      // the diagnostic names the bound that did it.
      if (!res.capped)
        core::metrics::count("logicopt.rewrite.capped_runs");
      core::metrics::count("logicopt.rewrite.capped",
                           static_cast<double>(queue.size() -
                                               opt.max_candidates));
      res.capped = true;
      queue.resize(opt.max_candidates);
    }
    std::size_t kept_this_round = 0;
    if (workers <= 1) {
      for (const Candidate& cand : queue)
        if (process_serial(cand)) ++kept_this_round;
      return kept_this_round;
    }
    const std::size_t batch_size = 32 * static_cast<std::size_t>(workers);
    for (std::size_t start = 0; start < queue.size(); start += batch_size) {
      std::size_t n = std::min(batch_size, queue.size() - start);
      kept_this_round +=
          run_spec_batch(std::span<const Candidate>(queue).subspan(start, n));
    }
    return kept_this_round;
  };

  // Constant folding cascades — each folded gate exposes const sites one
  // level downstream — so drain fold-only queues to a fixpoint first.
  // Every fold is scored and proven like any other candidate; this phase
  // just keeps the propagation from paying a full-rule-space rescore per
  // level.  The iteration bound is a backstop: each productive pass
  // retires at least one gate, so it can't loop.
  for (int pass = 0; pass < 256; ++pass) {
    std::vector<Candidate> queue = match_rules(net, /*fold_only=*/true);
    if (queue.empty() || run_queue(std::move(queue)) == 0) break;
  }

  for (int round = 0; round < kMaxRounds; ++round) {
    if (run_queue(match_rules(net)) == 0) break;
  }

  // Transplanted keeps deferred their oracle updates; settle them so the
  // exit estimate is the same full assembly the sequential engine ends on.
  sync_oracle();
  res.power_after_w = oracle.analysis().report.breakdown.total_w();
  const candidate::Tally& t = kernel.tally();
  res.candidates_scored = t.settled;
  res.kept = t.kept;
  res.reverted = t.reverted;
  res.stale = t.stale;
  res.unsound = t.unsound;
  res.gates_after = net.num_gates();
  return res;
}

}  // namespace lps::logicopt::rewrite
