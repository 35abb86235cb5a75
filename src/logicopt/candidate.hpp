// candidate.hpp — the one candidate kernel: apply → score → prove → commit.
//
// The survey's power-driven restructuring loop (§III-A) has one protocol:
// apply a local change, re-score power on the *current* circuit, keep only
// a strict win, and back out the rest.  The oracle-scored engines
// (rewrite/engine.cpp, bdd_synth.cpp) and the speculation workers
// (speculate.cpp) all run it through this kernel, over a Netlist and the
// engine's private ZeroDelay power::IncrementalAnalyzer.
//
// Proof: the oracle's PO-stream digest (IncrementalAnalyzer::
// outputs_digest) must be unchanged, plus — when verify_frames != 0 — a
// whole-netlist sim::functional_trace must match the reference
// taken when the kernel is built (kept candidates are exact, so one
// reference serves the whole run).  Only would-be keeps are proven; losers
// are rolled back unproven.

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "power/incremental.hpp"
#include "sim/logicsim.hpp"

namespace lps::logicopt::candidate {

namespace detail {
/// Chaos hooks (tests only; 0 disables).  Each counts down and fires once,
/// on the n-th event, and only in a live (engine-named) kernel — so the
/// firing point is a candidate's sequential position, identical at any
/// speculation worker count.
///
/// Pretend the n-th proof of a would-be keep fails, exercising the unsound
/// rollback path without planting a genuinely broken edit.
void force_unsound_keeps(int n);
/// Throw std::runtime_error right after the n-th candidate epoch opens —
/// deliberately *without* unwinding it, reproducing the "transform dies
/// with an inner epoch open" failure mode that flow-stage and pass
/// rollback accounting must survive.
void force_throw_on_candidate(int n);
}  // namespace detail

struct KernelOptions {
  /// Names the logicopt.<engine>.{kept,reverted,unsound} counters.  Null
  /// for a speculation worker's snapshot kernel, which only applies,
  /// scores and rejects, and never consumes the chaos hooks.
  const char* engine = nullptr;
  /// Keep a candidate only when it saves strictly more than this (watts).
  double min_gain_w = 0.0;
  /// Interpreter trace frames proving each would-be keep on top of the
  /// PO digest (0 = digest only).
  std::size_t verify_frames = 0;
};

/// One candidate in flight: apply() fills `applied` and `touched`, score()
/// the rest.  A speculative commit may instead transplant `wins`/`sound`
/// from a worker's snapshot score before settle().
struct Probe {
  bool applied = false;  // false: stale; its empty epoch was committed
  bool scored = false;   // the oracle holds this candidate's pending update
  Netlist::TouchedNodes touched;
  std::vector<NodeId> footprint;  // sorted dirty footprint (scored only)
  bool clock_moved = false;       // the global clock-tree term changed
  bool wins = false;              // delta_w < -min_gain_w
  bool sound = true;              // PO digest unchanged (checked if wins)
};

struct Tally {
  std::size_t settled = 0;   // candidates decided (scored or transplanted)
  std::size_t kept = 0;      // committed
  std::size_t reverted = 0;  // not a strict win; rolled back unproven
  std::size_t unsound = 0;   // would-be keeps that failed the proof
  std::size_t stale = 0;     // edits that no longer applied (no-op)
};

class Kernel {
 public:
  /// `oracle` must be bound to `net` and synced to its current state; the
  /// digest baseline and the reference trace are taken here.
  Kernel(Netlist& net, power::IncrementalAnalyzer& oracle,
         KernelOptions opt);

  /// Open a nested epoch and run `edit` on the bound netlist.  A stale edit
  /// (returns false) commits its empty epoch; a throw rolls the epoch back
  /// and rethrows.  `retry` marks a re-apply of the candidate just rejected
  /// (the speculative commit re-applies after syncing its oracle): the
  /// throw hook fires once per candidate, so a retry does not consume it.
  Probe apply(const std::function<bool()>& edit, bool retry = false);
  /// Re-estimate the applied candidate's dirty cone (score_candidate; on a
  /// throw the oracle has restored itself, and the epoch is rolled back),
  /// then its footprint-local delta (speculate::score_delta) and, for a
  /// would-be keep, the digest verdict.
  void score(Probe& p);
  /// Keep iff it wins and the proof passes; otherwise roll back the epoch
  /// (and the oracle, if scored).  Counts logicopt.<engine>.{kept,
  /// reverted,unsound} — a partition of the settled candidates.  True when
  /// kept.
  bool settle(Probe& p);
  /// Roll back an applied candidate without deciding it (no counters).
  void reject(Probe& p);

  const Tally& tally() const { return tally_; }

 private:
  bool prove(const Probe& p);

  Netlist& net_;
  power::IncrementalAnalyzer& oracle_;
  KernelOptions opt_;
  std::uint64_t base_digest_ = 0;
  sim::SimTrace ref_;
  std::string kept_metric_, reverted_metric_, unsound_metric_;
  Tally tally_;
};

}  // namespace lps::logicopt::candidate
