// power_model.hpp — the Eqn. (1) power model of the survey.
//
//   P = 1/2 C V_DD^2 f N  +  Q_SC V_DD f N  +  I_leak V_DD
//
// The first term (switching activity power) dominates in well-designed CMOS
// ("over 90% of the total power" — §I, citing Chandrakasan et al. [8]); the
// optimizations in this library act on C (sizing, mapping, factoring) and on
// N (everything else).  Capacitance is derived structurally: each node
// drives the gate capacitance of its fanouts (proportional to their drive
// size), wire capacitance per fanout branch, and its own drain capacitance
// (proportional to its size).  Short-circuit charge is modelled as a fixed
// fraction of the switched charge; leakage as a per-transistor current.
// Default constants approximate a 0.8um 5V process at 20 MHz — the
// technology node of the surveyed papers.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"

namespace lps::power {

struct PowerParams {
  double vdd = 5.0;         // volts
  double freq = 20e6;       // clock frequency, Hz
  double cin_ff = 10.0;     // gate input capacitance per fanin pin, fF
  double cwire_ff = 5.0;    // interconnect capacitance per fanout branch, fF
  double cself_ff = 5.0;    // drain/diffusion self-capacitance, fF
  // Q_SC per transition expressed as a fraction of the switched charge
  // C*V_DD.  With well-designed (balanced-slope) gates short-circuit power
  // is a few percent of the dynamic total, which is what makes the S-I
  // claim "switching activity accounts for over 90%" hold.
  double qsc_fraction = 0.04;
  double ileak_pa_per_transistor = 20.0;  // subthreshold+diode leakage, pA
  // Clock-pin capacitance of a flip-flop and of a clock-gating cell.  The
  // free-running clock toggles twice per cycle; a load-enabled register's
  // clock is gated by its enable (§III-C.3), so its clock pin toggles
  // 2 * P(EN) per cycle plus one always-on gating cell per distinct enable.
  // Includes the flip-flop's internal clock buffers, which is what makes
  // clock power worth gating (S-III-C.3).
  double clock_pin_ff = 15.0;
  double gating_cell_ff = 10.0;
};

struct PowerBreakdown {
  double switching_w = 0.0;
  double short_circuit_w = 0.0;
  double leakage_w = 0.0;
  double total_w() const { return switching_w + short_circuit_w + leakage_w; }
  /// Fraction of total power due to switching activity (the §I claim).
  double switching_fraction() const {
    double t = total_w();
    return t > 0 ? switching_w / t : 0.0;
  }
};

/// Capacitive load switched when each node toggles, in farads, indexed by
/// NodeId: self capacitance, plus wire and pin load per fanout (a register's
/// load-enable pin excepted), plus one pin load per primary-output
/// occurrence.  One pass, O(nodes + edges + POs): PO occurrences are counted
/// up front instead of scanning the output list per node.  Every consumer of
/// C (compute_power, sizing's timer, macromodel calibration) takes its
/// values from here, once per pass over the netlist.
std::vector<double> node_capacitances(const Netlist& net, const PowerParams& p);

/// node_capacitances()[id] of a node listed `po_count` times as an output.
double node_capacitance(const Netlist& net, NodeId id, std::uint32_t po_count,
                        const PowerParams& p);

/// CMOS transistor count of a gate (2 per input for simple static gates,
/// richer for XOR/MUX); 0 for sources and registers' storage is counted as
/// 8 transistors per Dff.
int transistor_count(const Node& n);

struct PowerReport {
  PowerBreakdown breakdown;
  std::vector<double> node_switching_w;  // per node
  /// Per-node total (switching + short-circuit + leakage) contribution.
  /// Each entry is a pure function of that node's own record — type, size,
  /// fanout loads, PO membership, toggle count — so two analyses that agree
  /// on a node's record and counters agree on its entry bit-for-bit.  The
  /// speculation layer (logicopt/speculate.hpp) sums footprint-local
  /// differences of these entries to get power deltas that transplant
  /// exactly between a batch snapshot and the live netlist.
  std::vector<double> node_power_w;
  double total_cap_f = 0.0;              // sum of node capacitances
  double weighted_activity = 0.0;        // sum over nodes of C * N (F/cycle)
};

/// Combine a per-node toggle rate (expected transitions per clock cycle,
/// from any estimator in activity.hpp / probability.hpp) and capacitance
/// (node_capacitances()) with the Eqn. (1) model, into `r` in place.
void compute_power(const Netlist& net,
                   std::span<const double> toggles_per_cycle,
                   std::span<const double> cap, const PowerParams& p,
                   PowerReport& r);

}  // namespace lps::power
