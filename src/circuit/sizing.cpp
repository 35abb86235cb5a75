#include "circuit/sizing.hpp"

#include <algorithm>
#include <cmath>

namespace lps::circuit {

namespace {

double activity_cap_ff(const Netlist& net,
                       const std::vector<double>& toggles,
                       const power::PowerParams& pp) {
  const std::vector<double> cap = power::node_capacitances(net, pp);
  double t = 0.0;
  for (NodeId id = 0; id < net.size(); ++id) {
    if (net.is_dead(id)) continue;
    t += cap[id] * 1e15 * toggles[id];
  }
  return t;
}

}  // namespace

std::vector<double> sized_arrival_times(const Netlist& net,
                                        const power::PowerParams& pp,
                                        const SizingParams& sp) {
  std::vector<double> at(net.size(), 0.0);
  const std::vector<double> cap = power::node_capacitances(net, pp);
  for (NodeId id : net.topo_order()) {
    const Node& n = net.node(id);
    if (is_source(n.type) || n.type == GateType::Dff) continue;
    double m = 0.0;
    for (NodeId f : n.fanins) m = std::max(m, at[f]);
    // Gate delay d0 * (alpha + C_load / (size * c0)), C_load in fF.
    at[id] = m + sp.d0 * (sp.alpha + cap[id] * 1e15 / (n.size * sp.c0_ff));
  }
  return at;
}

double sized_critical_delay(const Netlist& net, const power::PowerParams& pp,
                            const SizingParams& sp) {
  auto at = sized_arrival_times(net, pp, sp);
  double m = 0.0;
  for (NodeId o : net.outputs()) m = std::max(m, at[o]);
  for (NodeId d : net.dffs()) m = std::max(m, at[net.node(d).fanins[0]]);
  return m;
}

SizingResult size_for_power(Netlist& net,
                            const std::vector<double>& toggles,
                            const power::PowerParams& pp,
                            const SizingParams& sp) {
  SizingResult r;
  if (sp.start_from_max) {
    // Start from the fastest (uniform max size) implementation.
    for (NodeId id = 0; id < net.size(); ++id) {
      if (net.is_dead(id)) continue;
      Node& n = net.node(id);
      if (!is_source(n.type) && n.type != GateType::Dff) n.size = sp.max_size;
    }
  }
  r.delay_before = sized_critical_delay(net, pp, sp);
  r.delay_budget = r.delay_before * sp.delay_budget_factor;
  r.cap_before_ff = activity_cap_ff(net, toggles, pp);

  // Greedy: repeatedly shrink the gate whose downsizing reduces the
  // activity-weighted capacitance the most; if the move breaks the delay
  // budget, undo it and freeze the gate.  One full timing pass per move.
  std::vector<bool> frozen(net.size(), false);
  for (;;) {
    double best_gain = 0.0;
    NodeId best = kNoNode;
    for (NodeId id = 0; id < net.size(); ++id) {
      if (net.is_dead(id) || frozen[id]) continue;
      const Node& n = net.node(id);
      if (is_source(n.type) || n.type == GateType::Dff) continue;
      if (n.size <= sp.min_size + 1e-9) continue;
      // Gain: reduced input capacitance presented to the fanins, weighted
      // by how often those fanins toggle, plus reduced self capacitance.
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
    if (sized_critical_delay(net, pp, sp) > r.delay_budget) {
      n.size = old;
      frozen[best] = true;
    } else {
      ++r.downsizing_moves;
    }
  }

  r.delay_after = sized_critical_delay(net, pp, sp);
  r.cap_after_ff = activity_cap_ff(net, toggles, pp);
  r.sizes.assign(net.size(), 1.0);
  for (NodeId id = 0; id < net.size(); ++id)
    if (!net.is_dead(id)) r.sizes[id] = net.node(id).size;
  return r;
}

}  // namespace lps::circuit
