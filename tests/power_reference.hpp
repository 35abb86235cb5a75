// power_reference.hpp — the Eqn. (1) capacitance term as it ran before the
// one-pass power::node_capacitances, kept as the differential reference for
// it and for everything built on it (power::compute_power,
// circuit::size_for_power).
//
// The reference prices one node at a time and finds the node's primary-
// output occurrences by scanning the whole output list, so a full report
// costs O(nodes x POs).  The production pass counts PO occurrences once and
// must reproduce every value bit for bit: the same additions in the same
// order, so the tests compare with ==, never a tolerance.

#pragma once

#include <algorithm>
#include <span>
#include <stdexcept>
#include <vector>

#include "circuit/sizing.hpp"
#include "netlist/netlist.hpp"
#include "power/power_model.hpp"

namespace lps::reference {

/// Capacitive load switched when node `id` toggles, in farads.
inline double node_capacitance(const Netlist& net, NodeId id,
                               const power::PowerParams& p) {
  const Node& n = net.node(id);
  double c_ff = p.cself_ff * n.size;
  for (NodeId fo : n.fanouts) {
    const Node& fon = net.node(fo);
    if (fon.type == GateType::Dff && fon.fanins.size() == 2 &&
        fon.fanins[1] == id && fon.fanins[0] != id)
      continue;
    c_ff += p.cwire_ff;
    c_ff += p.cin_ff * fon.size;
  }
  for (NodeId o : net.outputs())
    if (o == id) c_ff += p.cin_ff;
  return c_ff * 1e-15;
}

inline power::PowerReport compute_power(const Netlist& net,
                                        std::span<const double> toggles,
                                        const power::PowerParams& p = {}) {
  if (toggles.size() != net.size())
    throw std::invalid_argument("compute_power: toggle vector size mismatch");
  power::PowerReport r;
  r.node_switching_w.assign(net.size(), 0.0);
  r.node_power_w.assign(net.size(), 0.0);
  for (NodeId id = 0; id < net.size(); ++id) {
    if (net.is_dead(id)) continue;
    const Node& n = net.node(id);
    double c = node_capacitance(net, id, p);
    r.total_cap_f += c;
    double activity_charge = c * toggles[id];
    r.weighted_activity += activity_charge;
    double sw = 0.5 * activity_charge * p.vdd * p.vdd * p.freq;
    double sc = p.qsc_fraction * activity_charge * p.vdd * p.vdd * p.freq;
    double lk = power::transistor_count(n) * p.ileak_pa_per_transistor *
                1e-12 * p.vdd;
    r.node_switching_w[id] = sw;
    r.node_power_w[id] = sw + sc + lk;
    r.breakdown.switching_w += sw;
    r.breakdown.short_circuit_w += sc;
    r.breakdown.leakage_w += lk;
  }
  return r;
}

namespace sizing_detail {

using circuit::SizingParams;

inline double gate_delay(const Netlist& net, NodeId id,
                         const power::PowerParams& pp, const SizingParams& sp) {
  const Node& n = net.node(id);
  if (is_source(n.type) || n.type == GateType::Dff) return 0.0;
  double c_ff = node_capacitance(net, id, pp) * 1e15;
  return sp.d0 * (sp.alpha + c_ff / (n.size * sp.c0_ff));
}

inline double activity_cap_ff(const Netlist& net,
                              const std::vector<double>& toggles,
                              const power::PowerParams& pp) {
  double t = 0.0;
  for (NodeId id = 0; id < net.size(); ++id) {
    if (net.is_dead(id)) continue;
    t += node_capacitance(net, id, pp) * 1e15 * toggles[id];
  }
  return t;
}

inline double sized_critical_delay(const Netlist& net,
                                   const power::PowerParams& pp,
                                   const SizingParams& sp) {
  std::vector<double> at(net.size(), 0.0);
  for (NodeId id : net.topo_order()) {
    const Node& n = net.node(id);
    if (is_source(n.type) || n.type == GateType::Dff) continue;
    double m = 0.0;
    for (NodeId f : n.fanins) m = std::max(m, at[f]);
    at[id] = m + gate_delay(net, id, pp, sp);
  }
  double m = 0.0;
  for (NodeId o : net.outputs()) m = std::max(m, at[o]);
  for (NodeId d : net.dffs()) m = std::max(m, at[net.node(d).fanins[0]]);
  return m;
}

}  // namespace sizing_detail

/// Slack-based downsizing with one per-node-scan timing pass per move.
inline circuit::SizingResult size_for_power(
    Netlist& net, const std::vector<double>& toggles,
    const power::PowerParams& pp = {}, const circuit::SizingParams& sp = {}) {
  circuit::SizingResult r;
  if (sp.start_from_max) {
    for (NodeId id = 0; id < net.size(); ++id) {
      if (net.is_dead(id)) continue;
      Node& n = net.node(id);
      if (!is_source(n.type) && n.type != GateType::Dff) n.size = sp.max_size;
    }
  }
  r.delay_before = sizing_detail::sized_critical_delay(net, pp, sp);
  r.delay_budget = r.delay_before * sp.delay_budget_factor;
  r.cap_before_ff = sizing_detail::activity_cap_ff(net, toggles, pp);
  std::vector<bool> frozen(net.size(), false);
  for (;;) {
    double best_gain = 0.0;
    NodeId best = kNoNode;
    for (NodeId id = 0; id < net.size(); ++id) {
      if (net.is_dead(id) || frozen[id]) continue;
      const Node& n = net.node(id);
      if (is_source(n.type) || n.type == GateType::Dff) continue;
      if (n.size <= sp.min_size + 1e-9) continue;
      double gain = pp.cself_ff * sp.step * toggles[id];
      for (NodeId f : n.fanins) gain += pp.cin_ff * sp.step * toggles[f];
      if (gain > best_gain) {
        best_gain = gain;
        best = id;
      }
    }
    if (best == kNoNode) break;
    Node& n = net.node(best);
    double old = n.size;
    n.size = std::max(sp.min_size, n.size - sp.step);
    if (sizing_detail::sized_critical_delay(net, pp, sp) > r.delay_budget) {
      n.size = old;
      frozen[best] = true;
    } else {
      ++r.downsizing_moves;
    }
  }
  r.delay_after = sizing_detail::sized_critical_delay(net, pp, sp);
  r.cap_after_ff = sizing_detail::activity_cap_ff(net, toggles, pp);
  r.sizes.assign(net.size(), 1.0);
  for (NodeId id = 0; id < net.size(); ++id)
    if (!net.is_dead(id)) r.sizes[id] = net.node(id).size;
  return r;
}

}  // namespace lps::reference
