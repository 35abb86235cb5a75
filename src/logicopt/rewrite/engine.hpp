// engine.hpp — switching-power-driven datapath rewrite engine.
//
// Couples the exact rewrite rules of rules.hpp to the cone-scoped
// incremental power oracle (power/incremental.hpp) through the shared
// candidate kernel (logicopt/candidate.hpp): every candidate is applied in
// its own nested undo epoch, re-estimated over just its dirty fanout cone,
// kept only when switching power strictly drops and the proof passes, and
// otherwise rolled back in O(edit).  This is the survey's "power-driven
// logic restructuring" loop made concrete: the cost oracle is always the
// power of the *current* circuit, so rewrite A flipping the profitability
// of rewrite B is handled by construction.  The rules are exact identities;
// the proof (PO-stream digest, plus with verify_frames a whole-netlist
// interpreter trace — the rule-soundness fuzzer's mode) means a rule bug
// can cost an optimization but never correctness.
//
// Determinism: the engine owns a private ZeroDelay analyzer (seeded from
// RewriteOptions, independent of the caller's estimate mode, sim engine,
// lane width or thread count — ZeroDelay statistics are bit-identical
// across all of those), so the kept-rewrite sequence is a pure function of
// the input netlist and options.  Candidates are judged by footprint-local
// power *deltas* (logicopt/speculate.hpp), which transplant bit-for-bit
// between a batch snapshot and the live netlist — that is what lets
// RewriteOptions::workers > 1 score candidates speculatively on worker
// threads while keeping the kept sequence and the final netlist
// bit-identical to workers == 1.

#pragma once

#include <cstddef>

#include "logicopt/rewrite/rules.hpp"

namespace lps::logicopt::rewrite {

struct RewriteOptions {
  std::size_t max_candidates = 4096;  // per-round queue bound (see `capped`)
  /// Scoring stimulus for the private ZeroDelay oracle.
  std::size_t sim_vectors = 4096;
  std::uint64_t seed = 7;
  /// Interpreter-trace frames proving each would-be keep on top of the
  /// PO-stream digest (0 = digest only; the soundness fuzzer sets 256).
  std::size_t verify_frames = 0;
  /// Keep a candidate only when it saves strictly more than this (watts).
  double min_gain_w = 0.0;
  /// Candidate-scoring worker threads (logicopt/speculate.hpp).  Workers
  /// score batches of 32 candidates per worker against a snapshot on
  /// private netlist+oracle clones; disjoint winners commit without
  /// re-scoring, overlapping candidates are re-scored serially.  Kept
  /// sequence and final netlist are bit-identical at any value.  0 = the
  /// LPS_OPT_WORKERS environment default; 1 = the plain sequential loop.
  int workers = 0;
};

struct RewriteResult {
  std::size_t candidates_seen = 0;    // matches enumerated over all rounds
  std::size_t candidates_scored = 0;  // probes through the power oracle
  std::size_t kept = 0;               // applied and committed
  std::size_t reverted = 0;           // not a strict win; rolled back
  std::size_t stale = 0;              // invalidated by earlier keeps (no-op)
  std::size_t unsound = 0;            // would-be keeps that failed the proof
                                      // (rolled back; also
                                      // logicopt.rewrite.unsound)
  /// True when a round's candidate queue was truncated at max_candidates —
  /// surfaced (never silent): also counted as logicopt.rewrite.capped.
  bool capped = false;
  /// Speculation accounting (workers > 1; all zero in sequential runs,
  /// mirrored in logicopt.spec.* metrics — conflicts are never silent).
  std::size_t spec_batches = 0;    // snapshot batches scored by workers
  std::size_t spec_conflicts = 0;  // candidates overlapping an earlier keep
  std::size_t spec_rescored = 0;   // conflicted candidates re-scored serially
  int workers_used = 1;            // resolved worker count for this run
  double power_before_w = 0.0;  // oracle estimate at entry
  double power_after_w = 0.0;   // oracle estimate at exit
  std::size_t gates_before = 0;
  std::size_t gates_after = 0;
};

/// Run the rewrite loop in place.  Mutations nest correctly inside a
/// caller's active undo epoch (each candidate runs in an inner epoch).
RewriteResult rewrite_datapath(Netlist& net, const RewriteOptions& opt = {});

}  // namespace lps::logicopt::rewrite
