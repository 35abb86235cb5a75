#include "circuit/sizing.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "core/metrics.hpp"
#include "netlist/timer.hpp"

namespace lps::circuit {

SizingResult size_for_power(Netlist& net,
                            const std::vector<double>& toggles,
                            const power::PowerParams& pp,
                            const SizingParams& sp) {
  SizingResult r;
  const Netlist& cnet = net;  // reads must not journal (see netlist.hpp)
  if (sp.start_from_max) {
    // Start from the fastest (uniform max size) implementation.
    for (NodeId id = 0; id < net.size(); ++id) {
      const Node& n = cnet.node(id);
      if (!n.dead && !is_source(n.type) && n.type != GateType::Dff)
        net.node(id).size = sp.max_size;
    }
  }
  std::vector<double> cap = power::node_capacitances(cnet, pp);
  std::vector<std::uint32_t> po_count(net.size(), 0);
  for (NodeId o : net.outputs()) ++po_count[o];
  auto recap = [&](NodeId id) {
    cap[id] = power::node_capacitance(cnet, id, po_count[id], pp);
  };
  auto activity_cap_ff = [&] {
    double t = 0.0;
    for (NodeId id = 0; id < net.size(); ++id)
      if (!cnet.is_dead(id)) t += cap[id] * 1e15 * toggles[id];
    return t;
  };
  Timer timer(cnet, [&](NodeId id) {
    // Gate delay d0 * (alpha + C_load / (size * c0)), C_load in fF.
    return sp.d0 *
           (sp.alpha + cap[id] * 1e15 / (cnet.node(id).size * sp.c0_ff));
  });
  r.delay_before = timer.critical();
  r.delay_budget = r.delay_before * sp.delay_budget_factor;
  r.cap_before_ff = activity_cap_ff();

  // Greedy: shrink the gate whose downsizing cuts the activity-weighted
  // capacitance the most (its self capacitance and the input load it puts
  // on its fanins, weighted by how often each toggles); if a move breaks
  // the delay budget, undo it and freeze the gate.  The gain does not
  // depend on sizes, so the order is one sort (ties to the lower id), and
  // each gate is shrunk until it reaches min size or freezes.
  std::vector<std::pair<double, NodeId>> order;
  for (NodeId id = 0; id < net.size(); ++id) {
    if (cnet.is_dead(id)) continue;
    const Node& n = cnet.node(id);
    if (is_source(n.type) || n.type == GateType::Dff) continue;
    if (n.size <= sp.min_size + 1e-9) continue;
    double gain = pp.cself_ff * sp.step * toggles[id];
    for (NodeId f : n.fanins) gain += pp.cin_ff * sp.step * toggles[f];
    if (gain > 0.0) order.emplace_back(gain, id);
  }
  auto by_gain = [](const auto& a, const auto& b) { return a.first > b.first; };
  std::stable_sort(order.begin(), order.end(), by_gain);

  // A move changes the gate's delay and, through their load, its fanins'.
  std::vector<NodeId> edited;
  for (const auto& [gain, id] : order) {
    edited.assign(1, id);
    edited.insert(edited.end(), cnet.node(id).fanins.begin(),
                  cnet.node(id).fanins.end());
    while (cnet.node(id).size > sp.min_size + 1e-9) {
      const double old = cnet.node(id).size;
      net.node(id).size = std::max(sp.min_size, old - sp.step);
      for (NodeId e : edited) recap(e);
      timer.update(edited);
      if (timer.critical() > r.delay_budget) {
        net.node(id).size = old;
        for (NodeId e : edited) recap(e);
        timer.undo();
        break;
      }
      ++r.downsizing_moves;
    }
  }
  core::metrics::count("circuit.timer.updates",
                       static_cast<double>(timer.updates()));

  r.delay_after = timer.critical();
  r.cap_after_ff = activity_cap_ff();
  r.sizes.assign(net.size(), 1.0);
  for (NodeId id = 0; id < net.size(); ++id)
    if (!cnet.is_dead(id)) r.sizes[id] = cnet.node(id).size;
  return r;
}

}  // namespace lps::circuit
