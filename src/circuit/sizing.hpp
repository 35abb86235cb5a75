// sizing.hpp — slack-based transistor sizing under a delay constraint.
//
// §II-B: "A typical approach ... is to compute the slack at each gate in the
// circuit ... Subcircuits with slacks greater than zero are processed, and
// the sizes of the transistors reduced until the slack becomes zero, or the
// transistors are all minimum size."  (Variants: Tan & Allen [42], Bahar et
// al. [3].)
//
// Delay model: gate delay d(n) = d0 * (alpha + C_load(n) / (size(n) * c0)),
// i.e. bigger gates drive their load faster but present more input
// capacitance to their fanins — the coupled tradeoff the survey describes.
// The pass starts from a uniformly-sized circuit, sorts the gates once by
// power gain (the activity-weighted capacitance one step of downsizing
// removes), and shrinks each in turn while the critical delay, kept by the
// incremental timer of netlist/timer.hpp, stays within `delay_budget`.

#pragma once

#include <vector>

#include "netlist/netlist.hpp"
#include "power/power_model.hpp"

namespace lps::circuit {

struct SizingParams {
  double d0 = 1.0;        // intrinsic delay scale
  double alpha = 0.5;     // intrinsic (unloaded) delay fraction
  double c0_ff = 20.0;    // drive capability per unit size, fF per d0
  double min_size = 1.0;
  double max_size = 8.0;
  double step = 0.5;      // downsizing granularity
  // Delay budget as a multiple of the starting circuit's critical delay;
  // 1.0 = keep the starting critical delay.
  double delay_budget_factor = 1.1;
  // true: begin from a uniformly max-sized (fastest) circuit — the classic
  // "size for speed, then recover power" formulation.  false: keep the
  // current sizes and only downsize where slack allows (in-place cleanup).
  bool start_from_max = true;
};

struct SizingResult {
  double delay_before = 0.0;  // critical delay at uniform max size
  double delay_after = 0.0;
  double delay_budget = 0.0;
  double cap_before_ff = 0.0;  // total switched-capacitance proxy
  double cap_after_ff = 0.0;
  std::vector<double> sizes;  // final per-node sizes
  int downsizing_moves = 0;
};

/// Run the slack-based downsizing loop.  Mutates Node::size in `net`.
/// `toggles_per_cycle` weighs capacitance by activity so the power gain of a
/// move is activity-aware (downsizing a busy gate helps more).  Publishes
/// the timer's re-evaluated node count as `circuit.timer.updates`.
SizingResult size_for_power(Netlist& net,
                            const std::vector<double>& toggles_per_cycle,
                            const power::PowerParams& pp = {},
                            const SizingParams& sp = {});

}  // namespace lps::circuit
