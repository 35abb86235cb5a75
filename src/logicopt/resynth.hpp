// resynth.hpp — window-based node resynthesis with local don't-cares.
//
// The §III-A.1 papers operate on *local* functions: Savoj/Brayton/Touati
// [37] extract local don't-cares for network optimization, Shen et al. [38]
// and Iman & Pedram [19] re-express nodes inside that freedom to reduce
// switching activity.  This pass implements the window form of the idea:
//
//   1. around each gate, take the two-level fanin window and its boundary
//      cut (<= max_window_inputs signals);
//   2. tabulate the node's local function over all boundary minterms in
//      one bit-parallel pass on a 256-bit truth table (sop/truth_table.hpp);
//   3. compute the local *controllability* don't-cares — boundary patterns
//      no primary-input assignment can produce.  Simulation first: a
//      pattern seen in the round's batch of random vectors is reachable by
//      construction; only unseen patterns go to the exact check, a
//      conjunction of global BDDs, so the don't-care set is exact;
//   4. minimize the local cover against those don't-cares (sop::minimize,
//      memoized per call on the (k, onset, don't-care) tables), factor it
//      (activity-weighted when power_aware), and rebuild;
//   5. keep the rewrite when it lowers the cost (literals, or
//      activity-weighted literals).
//
// Function preservation is exact: the rewritten node agrees with the old
// one on every *reachable* boundary pattern.  Per call, the counters
// logicopt.resynth.{minimize_calls, memo_hits, sim_reached, exact_checks}
// record the windows minimized, the memo hits among them, and the boundary
// patterns settled by simulation and by BDD.

#pragma once

#include <cstddef>
#include <vector>

#include "netlist/netlist.hpp"

namespace lps::logicopt {

struct ResynthOptions {
  /// At most 8 (a window is tabulated on a 256-bit truth table); larger
  /// values act as 8.
  int max_window_inputs = 8;
  int max_rewrites = 200;
  bool power_aware = true;  // weigh literals by boundary-signal activity
  std::size_t bdd_limit = 1u << 22;
  /// Seed of the internal re-scoring analyzer (ZeroDelay, 4096 vectors).
  /// When power_aware, activities are re-scored through a cone-scoped
  /// incremental re-estimate (power/incremental.hpp) after every kept
  /// rewrite, so later windows are costed against the *current* circuit's
  /// switching instead of the caller's pre-pass vector (which scores nodes
  /// created by earlier keeps as toggle-free).  Its stimulus reproduces
  /// the stage's measure_activity(net, 64, seed) frames; the flows set
  /// rescore_seed to FlowOptions::seed.
  std::uint64_t rescore_seed = 5;
  /// Window-examination worker threads (logicopt/speculate.hpp): workers
  /// evaluate window plans read-only against the live netlist using private
  /// per-round BDD views; plans commit in candidate order and anything an
  /// earlier keep touched (structurally or through its activity cone) is
  /// re-examined serially, in batches of 8 candidates per worker.  Results
  /// are bit-identical at any value.  0 = the LPS_OPT_WORKERS environment
  /// default; 1 = sequential.
  int workers = 0;
};

struct ResynthResult {
  int windows_examined = 0;
  int nodes_rewritten = 0;
  std::size_t gates_before = 0;
  std::size_t gates_after = 0;
  /// Kept rewrites whose activities were refreshed through the incremental
  /// analyzer (== nodes_rewritten when power_aware and the analyzer is
  /// healthy).
  int rescored = 0;
  /// Windows skipped because their boundary exceeded max_window_inputs even
  /// after the one-level retry.  Never silent: also counted as the
  /// logicopt.resynth.capped metric and described in `note`.
  int windows_capped = 0;
  /// True when the max_rewrites budget stopped the pass with candidate
  /// windows still unexamined (logicopt.resynth.rewrites_capped metric).
  bool rewrites_capped = false;
  /// True when building the global BDDs outgrew bdd_limit and the pass
  /// stopped, keeping the rewrites made so far (logicopt.resynth.limited
  /// metric; "BDD node limit hit" in `note`).
  bool limited = false;
  /// Speculation accounting (workers > 1; zero in sequential runs, mirrored
  /// in logicopt.spec.* metrics — conflicts are never silent).
  std::size_t spec_batches = 0;    // plan batches examined by workers
  std::size_t spec_conflicts = 0;  // plans invalidated by an earlier keep
  std::size_t spec_rescored = 0;   // conflicted plans re-examined serially
  int workers_used = 1;            // resolved worker count for this run
  /// One-line diagnostic describing any cap or limit that was hit; empty
  /// otherwise.
  std::string note;
};

/// Rewrite nodes in place.  `toggles_per_cycle` supplies activities (e.g.
/// from sim::measure_activity) for the power-aware cost; may be shorter
/// than net.size() (new nodes default to inactive).
ResynthResult resynthesize_windows(Netlist& net,
                                   const std::vector<double>& toggles_per_cycle,
                                   const ResynthOptions& opt = {});

}  // namespace lps::logicopt
