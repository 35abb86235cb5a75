// incremental.hpp — cone-scoped incremental power re-estimation.
//
// The candidate-scoring loops (the datapath rewriter, BDD→MUX synthesis
// and window resynthesis, through logicopt/candidate.hpp and
// logicopt/speculate.hpp) and lpsd sessions re-estimate switching activity
// after each local rewrite, yet a local rewrite touches a handful of nodes
// while `power::analyze` re-simulates the whole netlist.  The stage runner
// (core/pass.hpp) pays one full analysis per stage instead: that is cheap
// beside a stage, and its default Timed estimate has no per-frame cache.
// IncrementalAnalyzer is ZeroDelay only and caches the raw simulation record
// of one full baseline run — the per-frame value words and the exact
// integer toggle counters behind the ActivityStats doubles — and after a
// mutation re-evaluates only the transitive fanout cone of the touched
// nodes over the *same* cached frames: same seed, same frame count, same
// shard seams.  The updated per-node counters are spliced into the cached
// totals, and the final report is assembled through the same arithmetic
// `analyze()` uses (power::detail::assemble_zero_delay), so the result is
// bit-identical to a fresh full analysis of the mutated netlist.
//
// Why the splice is exact: primary-input value words depend only on the
// seed and the input's position in `inputs()` (never on netlist edits), so
// everything outside the fanout cone of the touched set replays to the
// very same words — the cached frame already holds them.  Re-evaluating
// the cone in place inside such a frame (CompiledSim::exec_gates over the
// persistent, patched tape) then produces word-for-word what a full
// re-simulation would, and integer popcount splicing introduces no
// floating-point divergence.
//
// Cache invalidation rule — fall back to a full re-baseline when the
// touched-node report says `all` (no journal, wholesale restore such as
// compact()/assignment, or a PI-list change that re-maps the input→stream
// binding), or when patching the compiled tape fails.  Fallbacks are full
// analyze() runs, so correctness never depends on the cone path applying.

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/aligned.hpp"
#include "netlist/netlist.hpp"
#include "power/activity.hpp"
#include "sim/compiled.hpp"
#include "sim/logicsim.hpp"

namespace lps::power {

namespace detail {
/// Chaos hook (tests and the service soak harness): force the next `n`
/// compiled-tape patch attempts inside IncrementalAnalyzer::reanalyze() to
/// throw, exercising the tape→full-rebaseline degradation path
/// (`power.inc.tape_fallback`) without needing a genuinely corrupt tape.
/// Thread-safe; 0 disables.
void force_tape_failures(int n);
}  // namespace detail

class IncrementalAnalyzer {
 public:
  /// What the most recent reanalyze() actually did.
  struct UpdateStats {
    bool full_rebaseline = false;  // fell back to a fresh full analysis
    bool tape_fallback = false;    // tape patch failed; full re-baseline ran
    std::size_t resim_nodes = 0;   // nodes re-evaluated (cone, or all live)
    std::size_t live_nodes = 0;    // what a full re-analysis evaluates
  };

  /// Binds to `net` and runs the full baseline analysis immediately.  The
  /// netlist must outlive the analyzer.  `opt.mode` must be ZeroDelay
  /// (Timed throws diag::CheckError: the timed waveform simulation keeps
  /// no per-frame cache to splice into).
  explicit IncrementalAnalyzer(const Netlist& net, AnalysisOptions opt = {});

  /// Current estimate — always equal (bit-for-bit) to what
  /// `power::analyze(net, options())` would return for the bound netlist's
  /// current state, provided every mutation was reported via reanalyze().
  const Analysis& analysis() const { return analysis_; }
  const AnalysisOptions& options() const { return opt_; }
  const UpdateStats& last_update() const { return last_; }

  /// Rebind the cancellation token polled by subsequent operations.  The
  /// analyzer usually outlives any single request, so a per-request token
  /// must be bound for the duration of the operation it guards and unbound
  /// (nullptr) before it goes out of scope — never left to dangle.
  void set_cancel(const core::CancelToken* c) { opt_.cancel = c; }

  /// Re-estimate after a mutation of the bound netlist.  `touched` must be
  /// captured via Netlist::touched_nodes() *before* the undo epoch is
  /// committed or rolled back (the journal is the source of the set), and
  /// the netlist must currently be in the mutated state.  Returns the
  /// updated analysis().
  ///
  /// Exception safety (strong): if the update throws — a fired
  /// AnalysisOptions::cancel token, or an engine failure — the analyzer has
  /// already restored its caches (trace, counters, compiled tape) to the
  /// pre-call state before the exception escapes.  The caller then only has
  /// to roll back its own netlist mutation to be fully consistent again; it
  /// must NOT call revert_last() for the failed update (there is nothing to
  /// revert — the pending snapshot still belongs to the previous successful
  /// one).  A compiled-tape patch failure alone is not an error: the tape
  /// is dropped and the update transparently degrades to a full
  /// re-baseline, which compiles a fresh tape (recorded as
  /// `power.inc.tape_fallback`, UpdateStats::tape_fallback and
  /// UpdateStats::full_rebaseline).
  const Analysis& reanalyze(const Netlist::TouchedNodes& touched);

  /// Restore the cache and analysis to their state before the most recent
  /// reanalyze().  Call after rolling back the corresponding netlist
  /// mutation (Netlist::rollback_undo) so cache and netlist agree again.
  /// One level deep; throws std::logic_error if there is nothing to revert.
  void revert_last();

  /// Candidate-scoring probe for rewrite loops: reanalyze(touched) and
  /// return the resulting total power (watts).  Both reanalyze() success
  /// paths — cone splice and full rebaseline — leave a pending snapshot, so
  /// the caller makes exactly one of two moves next: keep the candidate
  /// (commit its undo epoch; the estimate already matches the netlist) or
  /// reject it (Netlist::rollback_undo, then revert_last()).  Inherits
  /// reanalyze()'s strong exception safety; counted as power.inc.probes.
  double score_candidate(const Netlist::TouchedNodes& touched);

  /// Analysis as it stood before the most recent successful reanalyze()
  /// (the pending snapshot's).  Lets candidate scorers form footprint-local
  /// power deltas without copying the whole Analysis per probe.  Throws
  /// std::logic_error when no update is pending.
  const Analysis& previous_analysis() const;

  /// Fork a scoring oracle bound to `net`, which must be an element-wise
  /// clone of this analyzer's netlist in its current state (same node ids,
  /// same tombstones — Netlist::clone() of the bound net after every
  /// mutation was reported here).  The clone copies the cached frame
  /// stream, counters and analysis — no re-simulation — and starts with no
  /// pending snapshot; its compiled tape is built lazily against `net` on
  /// first reanalyze().  Used by logicopt/speculate.cpp to score candidate
  /// batches on worker threads without touching the primary oracle.
  IncrementalAnalyzer clone_for(const Netlist& net) const;

  /// Digest of the primary-output value streams in the cached trace,
  /// mix64-chained over frames with each output's position folded into
  /// its term — deliberately order-*sensitive*, so it pins the exact
  /// (frame, output) placement of every word, not just the multiset of
  /// values.  The cone-scoped soundness proof: two calls — one before a
  /// mutation is applied, one after reanalyze() — agree iff every output
  /// column is bit-identical across the whole cached stimulus, which is
  /// exactly what the full-circuit differential trace checked (the PO
  /// streams), at O(outputs x frames) instead of O(netlist x frames).
  /// Covers PO-list redirection: the digest reads the *current* outputs()
  /// binding.
  std::uint64_t outputs_digest() const;

 private:
  struct CloneTag {};
  IncrementalAnalyzer(CloneTag, const Netlist& net,
                      const IncrementalAnalyzer& src);
  struct Snapshot {
    bool full = false;  // snapshot of a whole pre-fallback cache
    // full == true: the entire previous trace (moved, so cost-free).
    sim::ActivityTrace trace;
    // full == false: per-node deltas, all ids < old_size.
    std::size_t old_size = 0;
    std::vector<NodeId> resim_ids;  // columns[i] = old frame words of id i
    std::vector<std::vector<std::uint64_t>> columns;
    std::vector<NodeId> count_ids;  // old (ones, toggles) per id
    std::vector<std::pair<std::uint64_t, std::uint64_t>> counts;
    // Tape-patch roots of the reverted mutation: revert_to() re-emits
    // their records from the restored netlist.
    std::vector<NodeId> patched;
    Analysis analysis;
  };

  void run_full();  // (re)build trace_ + analysis_ from scratch
  // Restore trace/counter/analysis state from a cone snapshot (the shared
  // tail of revert_last() and the in-flight exception restore).
  void restore_cone(Snapshot& s);
  // Return a retired snapshot's column buffers to the scratch pool so the
  // next reanalyze() reuses their capacity instead of reallocating
  // per candidate (bounded; excess is freed).
  void recycle(Snapshot& s);

  const Netlist* net_;
  AnalysisOptions opt_;
  Analysis analysis_;
  sim::ActivityTrace trace_;  // frame/counter cache
  // Persistent compiled tape: patched in place from each mutation's
  // touched-node report instead of recompiled, so a pass loop pays
  // O(edit) per candidate, not O(netlist).
  std::optional<sim::CompiledSim> csim_;
  UpdateStats last_;
  std::optional<Snapshot> snap_;
  // Scratch: retired snapshot columns, reused across candidate probes.
  std::vector<std::vector<std::uint64_t>> col_pool_;
  // Scratch: the blocked cone sweep's node-major value block (n * kSimBlock
  // words), reused across updates instead of allocated per call.  Its
  // contents never outlive an update, so a copy starts empty.
  struct Block {
    core::AlignedWords words;
    Block() = default;
    Block(const Block&) {}
    Block& operator=(const Block&) { return *this; }
  };
  Block block_;
};

}  // namespace lps::power
