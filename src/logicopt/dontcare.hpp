// dontcare.hpp — observability-don't-care optimization for low power.
//
// §III-A.1: "The power dissipation of a gate is dependent on the probability
// of the gate evaluating to a 1 or a 0.  This probability can be changed by
// utilizing the don't-care sets" (Shen et al. [38], improved by Iman &
// Pedram [19] which considers the transitive fanout).
//
// We implement the exact-ODC form of the idea: n's care set is the Boolean
// difference of the observation points with respect to n (its fanout
// re-lowered with n at 0 and at 1) on global BDDs built once per call and
// refreshed only in each rewrite's fanout.  Within it n is replaced by
//   - a constant, when the care set pins it;
//   - an existing signal g (possibly a fanin), when f_n and f_g agree on the
//     care set and the swap reduces activity-weighted capacitance.
// Each accepted rewrite removes the node's switched capacitance entirely —
// the activity-directed selection among admissible rewrites is exactly the
// power-vs-area distinction [38] draws against classic don't-care methods.
// A change at n is observed at the primary outputs and at every register
// pin, the load enable included.
//
// Most nodes admit no rewrite, so a simulation prefilter runs first: 512
// random vectors, n complemented and its fanout replayed on the compiled
// tape (sim/compiled.hpp), give a care mask, and a candidate survives only
// if it agrees with n on every care vector.  That is a necessary condition
// for the exact check to pass, so the filter never drops an admissible
// rewrite; the BDD check still decides every rewrite, and only nodes with
// a surviving candidate build the BDD care set.  The counters
// logicopt.dontcare.{exact_checks, sim_pruned, sim_survivor_rejected}
// record how often the filter settles a node and how many of its
// survivors the BDD rejects; logicopt.dontcare.relowered counts the gates
// re-lowered after rewrites.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"

namespace lps::logicopt {

struct DontCareOptions {
  std::size_t bdd_limit = 1u << 22;
  int max_rewrites = 1000;
  // Only consider merge targets whose added fanout activity is below the
  // removed node's activity gain (power-aware filter); with false, any
  // functionally admissible merge is taken (area-style optimization).
  bool power_aware = true;
};

struct DontCareResult {
  int const_replacements = 0;
  int merges = 0;
  std::size_t gates_before = 0;
  std::size_t gates_after = 0;
  /// The BDDs outgrew bdd_limit and the pass stopped early, keeping the
  /// rewrites made so far (also the logicopt.dontcare.limited metric).
  bool limited = false;
};

/// Run ODC-based rewriting until fixpoint (or the rewrite cap).  Preserves
/// I/O behaviour exactly; callers can verify with bdd::equivalent_bdd.
/// `toggles_per_cycle` supplies per-node activities for the power-aware
/// candidate ranking (e.g. from sim::measure_activity on the same net).
DontCareResult optimize_dontcare(Netlist& net,
                                 const std::vector<double>& toggles_per_cycle,
                                 const DontCareOptions& opt = {});

namespace detail {
/// The prefilter's care masks on `net` as first scanned: 512 vectors, 8
/// words per node id (zero for sources, registers and dead nodes).
std::vector<std::uint64_t> simulated_care_masks(const Netlist& net);
}  // namespace detail

}  // namespace lps::logicopt
