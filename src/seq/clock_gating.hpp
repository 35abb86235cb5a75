// clock_gating.hpp — gated clocks for idle registers (§III-C.3).
//
// "If simple conditions that determine the inaction of particular registers
// can be determined, then power reduction can be obtained by gating the
// clocks of these registers [9]."  The canonical synthesizable source of
// such conditions is the recirculating-mux hold pattern D = mux(en, Q, x):
// when en=0 the register provably keeps its value, so its clock can be
// gated by en instead.  detect_hold_patterns() finds the pattern,
// apply_clock_gating() removes the recirculation mux (the data path becomes
// D = x, clocked only when en=1), and ClockActivity quantifies the clock-pin
// energy with and without gating from a simulation of the enables.

#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"
#include "power/power_model.hpp"

namespace lps::seq {

struct HoldPattern {
  NodeId dff = kNoNode;
  NodeId mux = kNoNode;     // the recirculating mux
  NodeId enable = kNoNode;  // mux select; 0 = hold
  NodeId data = kNoNode;    // loaded value when enable = 1
};

/// Find all registers driven by D = mux(en, Q, x).
std::vector<HoldPattern> detect_hold_patterns(const Netlist& net);

struct ClockGatingResult {
  int gated_registers = 0;
  int gating_cells = 0;  // one per distinct enable
};

/// Rewrite each pattern: delete the recirculation mux (D = x directly) and
/// record the gate.  The netlist's cycle-accurate behaviour is preserved
/// only under gated-clock semantics, so the simulators must be driven
/// through GatedClockModel (below) afterwards; the function therefore
/// returns the enable association instead of mutating simulation semantics.
ClockGatingResult apply_clock_gating(Netlist& net,
                                     const std::vector<HoldPattern>& patterns);

struct ClockActivityReport {
  double cycles = 0;
  double ff_count = 0;
  double clock_toggles_ungated = 0;  // 2 toggles per FF per cycle
  double clock_toggles_gated = 0;    // 2 * P(enable) per gated FF + overhead
  double enable_one_prob_mean = 0;   // average duty of the enables
  double clock_power_saving_fraction() const {
    return clock_toggles_ungated > 0
               ? 1.0 - clock_toggles_gated / clock_toggles_ungated
               : 0.0;
  }
};

/// Simulate `net` for `n_vectors` random vectors and report clock-pin
/// activity under free-running vs gated clocks for the given patterns.
/// Gating overhead: the gating cell (latch+AND) toggles with the enable.
ClockActivityReport clock_activity(const Netlist& net,
                                   const std::vector<HoldPattern>& patterns,
                                   std::size_t n_vectors, std::uint64_t seed);

}  // namespace lps::seq
