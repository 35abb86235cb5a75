// power_factor.hpp — netlist bridges for (power-aware) factoring.
//
// Connects the SOP algebra of sop/ to the gate-network world so the E6
// experiment can compare literal-count factoring against activity-weighted
// factoring (§III-A.3, SYCLOP [35]) on equal terms: both forms are built
// into netlists and measured with the same simulator and power model.

#pragma once

#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "sop/factoring.hpp"

namespace lps::logicopt {

/// Build a flat two-level netlist (AND-OR) computing the SOP.
Netlist sop_to_netlist(const sop::Sop& f, const std::string& name = "sop");

/// Build a netlist computing the factored expression over `num_vars` inputs.
Netlist expr_to_netlist(const sop::Expr& e, unsigned num_vars,
                        const std::string& name = "factored");

struct FactoringComparison {
  Netlist flat;          // two-level
  Netlist literal_form;  // classic factoring
  Netlist power_form;    // activity-weighted factoring
  unsigned lits_flat = 0;
  unsigned lits_literal = 0;
  unsigned lits_power = 0;
  /// Measured ZeroDelay switching power of each built form under the given
  /// input probabilities (rescore=true only).  The heuristic weights above
  /// describe the *inputs* of the pre-factoring cover; internal nodes a
  /// factoring creates carry activities the weights never saw — the same
  /// stale-cost-oracle family as resynth's bug — so the decision of record
  /// is made on these measured numbers, not the weighted literal counts.
  double power_flat_w = 0.0;
  double power_literal_w = 0.0;
  double power_power_w = 0.0;
  /// Which built form measured cheapest: "literal" or "power" ("" when
  /// rescore=false).  May disagree with the weighted-literal ranking.
  std::string measured_winner;
};

/// Run both factorings of `f` given per-input one-probabilities (weights are
/// the input toggle rates 2p(1-p)).  With `rescore` (default) each built
/// form is additionally measured with the ZeroDelay simulator under
/// `one_prob`-biased stimulus, and `measured_winner` records the verdict.
FactoringComparison compare_factorings(const sop::Sop& f,
                                       const std::vector<double>& one_prob,
                                       bool rescore = true);

}  // namespace lps::logicopt
