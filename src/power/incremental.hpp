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
// of one full baseline run — the value words in the tape's block layout
// and the exact integer toggle counters behind the ActivityStats doubles —
// and after a mutation re-evaluates only the transitive fanout cone of the
// touched nodes over the *same* cached blocks: same seed, same frame count,
// same shard seams.  Only the changed counters, probabilities and
// capacitances are spliced in, and the report is re-priced in place through
// the arithmetic `analyze()` uses (power::detail::price_zero_delay), so the
// result is bit-identical to a fresh full analysis of the mutated netlist.
//
// Why the splice is exact: primary-input value words depend only on the
// seed and the input's position in `inputs()` (never on netlist edits), so
// everything outside the fanout cone of the touched set replays to the
// very same words — the cached block already holds them.  Re-evaluating
// the cone in place inside such a block (CompiledSim::exec_gates over the
// persistent, patched tape, all lanes at once) then produces word-for-word
// what a full re-simulation would, and integer popcount splicing
// introduces no floating-point divergence.
//
// Cache invalidation rule — fall back to a full re-baseline when the
// touched-node report says `all` (no journal, wholesale restore such as
// compact()/assignment, or a PI-list change that re-maps the input→stream
// binding), when the edit adds or removes a register, or when patching the
// compiled tape fails.  Fallbacks are full analyze() runs, so correctness
// never depends on the cone path applying.

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
  /// mutation was reported here).  The clone copies the cached blocks,
  /// counters and analysis — no re-simulation — and starts with no
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

  /// The cached capacitances: always power::node_capacitances() of the net.
  const std::vector<double>& capacitances() const { return cache_.cap; }

 private:
  struct CloneTag {};
  IncrementalAnalyzer(CloneTag, const Netlist& net,
                      const IncrementalAnalyzer& src);

  // Everything the report is priced from.
  struct Cache {
    sim::ActivityTrace trace;          // value blocks + exact counters
    std::vector<double> signal_prob;   // per node, from trace.ones
    std::vector<double> cap;           // per node, node_capacitances()
    std::vector<NodeId> dffs;          // live registers, ascending
    std::vector<NodeId> outputs;       // the PO list `cap` is priced with
    std::vector<std::uint32_t> po_count;  // per node: count in `outputs`
  };
  struct Snapshot {
    bool full = false;  // snapshot of a whole pre-fallback cache
    Analysis analysis;
    // full == true: the entire previous cache (moved, so cost-free).
    Cache cache;
    // full == false: per-node deltas, all ids < old_size.
    std::size_t old_size = 0;
    std::vector<NodeId> resim_ids;  // cone nodes re-evaluated in place
    std::vector<std::uint64_t> columns;  // their old words, block by block
    struct Saved { NodeId id; std::uint64_t ones, toggles; double p1, cap; };
    std::vector<Saved> nodes;  // old per-node state, in save order
    std::optional<std::vector<NodeId>> outputs;  // when the PO list changed
    // Tape-patch roots of the reverted mutation: revert_to() re-emits
    // their records from the restored netlist.
    std::vector<NodeId> patched;
  };

  void run_full();  // (re)build cache_ + analysis_ from scratch
  // Restore cache/analysis state from a cone snapshot (the shared tail of
  // revert_last() and the in-flight exception restore).
  void restore_cone(Snapshot& s);

  const Netlist* net_;
  AnalysisOptions opt_;
  Analysis analysis_;
  Cache cache_;
  // Persistent compiled tape: patched in place from each mutation's
  // touched-node report instead of recompiled, so a pass loop pays
  // O(edit) per candidate, not O(netlist).
  std::optional<sim::CompiledSim> csim_;
  UpdateStats last_;
  // The pending update's snapshot, and the one the next update builds in;
  // they swap on success, so both keep their buffers' capacity.
  Snapshot snap_, work_;
  bool pending_ = false;
  // Scratch of one update: count-update ids, seam words, register steps.
  std::vector<NodeId> recount_;
  std::vector<std::uint64_t> last_words_, regs_;
};

}  // namespace lps::power
