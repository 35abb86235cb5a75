// speculate.hpp — speculative parallel candidate scoring with a
// deterministic commit order.
//
// The optimization engines (rewrite/engine.cpp, resynth.cpp) evaluate long
// queues of independent candidates, each scored through a power oracle — serially, on one thread, while the
// simulator underneath scales to SIMD lanes and pinned threads.  This layer
// parallelizes the *candidate* axis without giving up the engines' defining
// guarantee: the kept sequence and the final netlist are bit-identical to
// the sequential engine at any worker count.
//
// How identity is preserved:
//
//  * Workers score candidates against a *snapshot* of the netlist: each
//    worker owns a Netlist::clone() plus an IncrementalAnalyzer::clone_for()
//    fork of the engine's oracle, and runs the candidate kernel's apply and
//    score steps there (logicopt/candidate.hpp), then rejects on its clone.
//    The live netlist is never touched, and the kernel's chaos hooks fire
//    only in the commit loop, at each candidate's sequential position.
//
//  * Decisions are expressed as footprint-local power *deltas*
//    (score_delta): the sum, in ascending node-id order, of per-node
//    total-power differences over the candidate's dirty footprint, plus the
//    global clock-tree term when it moved.  Every addend is a pure function
//    of per-node state, so a candidate whose footprint and read set are
//    disjoint from every earlier keep in the batch produces the same addend
//    sequence — and therefore the bit-identical delta — on the snapshot as
//    it would on the live netlist.  Such candidates commit without
//    re-scoring.
//
//  * Candidates that overlap an earlier keep (ConflictSet over the
//    snapshot id space, read closure ∪ dirty footprint vs committed
//    touched sets ∪ *their* dirty footprints — both sides carry the
//    activity cone, so downstream reconvergence with a keep's toggle
//    changes is a conflict even without structural overlap) are re-scored
//    serially through the engine's own oracle, exactly where the
//    sequential engine would have scored them.  Counted as
//    logicopt.spec.conflicts / logicopt.spec.rescored — never silent.
//
//  * Commits re-apply the candidate on the live netlist in queue order, so
//    node-id assignment matches the sequential engine exactly.
//
// Workers are dedicated std::threads, never the shared core::ThreadPool:
// the pool is non-reentrant, and a worker's oracle fallback path could
// otherwise deadlock behind its own batch.  For the same reason a worker
// never scores a wholesale-invalidation (`touched.all`) candidate — it
// defers it to the serial path instead of re-entering measure_activity.

#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <span>
#include <vector>

#include "logicopt/rewrite/rules.hpp"
#include "netlist/netlist.hpp"
#include "power/incremental.hpp"

namespace lps::logicopt::speculate {

/// Resolved LPS_OPT_WORKERS knob (parsed once through core/env, range
/// 1..256, default 1 = sequential engines).
int default_workers();
/// Map an options field to an effective worker count: `requested` when
/// positive, else default_workers(); clamped to [1, 256].
int resolve_workers(int requested);

/// RAII process-wide override of default_workers() for tests (n <= 0
/// restores the environment value for the scope).
class ScopedWorkers {
 public:
  explicit ScopedWorkers(int n);
  ~ScopedWorkers();
  ScopedWorkers(const ScopedWorkers&) = delete;
  ScopedWorkers& operator=(const ScopedWorkers&) = delete;

 private:
  int prev_;
};

/// Run fn(worker_index) for indices [0, workers) on dedicated threads (the
/// calling thread participates as worker 0).  fn must not throw — capture
/// per-item exceptions into result slots instead, so the commit loop can
/// rethrow them in deterministic queue order.
void run_workers(int workers, const std::function<void(int)>& fn);

/// Footprint-local power delta between two analyses of the same oracle
/// stimulus.  delta_w = Σ over `footprint` (ascending ids) of
/// node_power_w[after] − node_power_w[before], plus the clock-tree
/// difference; clock_moved reports whether that global term changed at all
/// (such candidates must be re-scored serially — the clock sum's term
/// order depends on enable node ids, which shift between snapshot and live
/// commits).
struct DeltaScore {
  double delta_w = 0.0;
  bool clock_moved = false;
};
DeltaScore score_delta(const power::Analysis& before,
                       const power::Analysis& after,
                       std::span<const NodeId> footprint);

/// Sorted unique dirty footprint of a journaled mutation: the touched ids
/// plus the transitive fanout cone of its value roots (through registers),
/// evaluated on the mutated netlist.
std::vector<NodeId> dirty_footprint(const Netlist& net,
                                    const Netlist::TouchedNodes& touched);

/// Conservative structural read set: the fanin closure of `seeds` to
/// `depth` levels, plus every fanout-list member of a closure node (the
/// rewrite matchers re-validate via fanin walks and find-gate sharing
/// scans over operand fanouts; any structural change that could flip a
/// match journals a node this closure contains).
std::vector<NodeId> read_closure(const Netlist& net,
                                 std::span<const NodeId> seeds, int depth);

/// Committed-keep id set over the snapshot id space.  Ids at or beyond the
/// snapshot size are ignored on both sides: nodes created after the
/// snapshot can never be read by a snapshot-scored candidate.
class ConflictSet {
 public:
  explicit ConflictSet(std::size_t snapshot_size)
      : mask_(snapshot_size, 0) {}
  void add(std::span<const NodeId> ids) {
    for (NodeId id : ids)
      if (id < mask_.size() && !mask_[id]) {
        mask_[id] = 1;
        ++count_;
      }
  }
  bool hits(std::span<const NodeId> ids) const {
    if (count_ == 0) return false;
    for (NodeId id : ids)
      if (id < mask_.size() && mask_[id]) return true;
    return false;
  }
  bool empty() const { return count_ == 0; }

 private:
  std::vector<char> mask_;
  std::size_t count_ = 0;
};

/// One speculated verdict for a rewrite-engine candidate.
struct CandidateScore {
  /// apply_rule() succeeded on the worker's snapshot clone.  False = the
  /// candidate was already stale at the snapshot; the commit loop still
  /// re-checks staleness when the candidate conflicts.
  bool applied = false;
  /// Always re-score serially: wholesale invalidation (`touched.all`),
  /// gated-register edits (clock-term ordering risk) or a moved clock term.
  bool forced_conflict = false;
  bool keep = false;   // delta_w < -min_gain_w
  bool sound = true;   // cone-digest proof verdict (meaningful when keep)
  std::vector<NodeId> reads;      // snapshot-id read closure (pre-apply)
  std::vector<NodeId> footprint;  // dirty footprint, filtered < snapshot size
  /// Canonical (sorted unique, < snapshot size) touched ids and value
  /// roots of the snapshot apply.  The commit loop cross-checks these
  /// against the live apply's touched set: a mismatch means the live edit
  /// differs from the one the snapshot scored (e.g. a matcher read past
  /// the read closure), so the verdict must not transplant — the
  /// candidate is re-scored serially instead.
  std::vector<NodeId> touched_snap;
  std::vector<NodeId> roots_snap;
  /// Scoring failed on the worker (its clone was discarded).  The commit
  /// loop rethrows a core::CancelledError at this candidate's queue
  /// position — after committing every earlier candidate, the same prefix
  /// the sequential engine would have committed before the deadline —
  /// via rethrow_if_cancelled().  Any other failure is treated as a
  /// conflict: the candidate is re-applied and re-scored serially, so a
  /// worker-side engine failure is retried on the live path and counted
  /// (logicopt.spec.conflicts / .rescored), never silently dropped.
  std::exception_ptr error;
};

/// Rethrow `e` when it holds a core::CancelledError; return normally for
/// null or any other exception.  Commit loops call this on a speculated
/// candidate's error slot so cooperative cancellation propagates instead
/// of being swallowed by the serial re-score fallback (which would re-run
/// the cancelled work).
void rethrow_if_cancelled(const std::exception_ptr& e);

/// True when the live apply's touched set matches the snapshot apply's,
/// restricted to pre-snapshot ids: both the touched ids and the value
/// roots, compared as sorted unique sets below `snapshot_size`.
/// `snap_ids`/`snap_roots` must already be canonical (CandidateScore
/// stores them that way); ids created after the snapshot differ freely.
bool same_touched(std::span<const NodeId> snap_ids,
                  std::span<const NodeId> snap_roots,
                  const Netlist::TouchedNodes& live,
                  std::size_t snapshot_size);

/// Score a batch of rewrite candidates against the current state of `net`
/// on `workers` dedicated threads.  `oracle` must be synced to `net`
/// (pending keeps reanalyzed) before the call; it is only read (cloned),
/// never mutated.  Counts logicopt.spec.speculated.
std::vector<CandidateScore> score_rewrite_batch(
    const Netlist& net, const power::IncrementalAnalyzer& oracle,
    std::span<const rewrite::Candidate> batch, double min_gain_w,
    int workers);

}  // namespace lps::logicopt::speculate
