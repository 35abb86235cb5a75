// balance_reference.hpp — path balancing as it ran before it shared the one
// longest-path timer (netlist/timer.hpp), kept as the differential reference
// for logicopt::full_balance and logicopt::partial_balance.
//
// The reference re-times the whole netlist before every gate (full) and
// rescans it, re-timing twice, per padded slot (partial), with its own copy
// of the unit-delay arrival loop.  The production passes list the skewed
// slots from one timing pass and pad from that list, which is exact because
// padding a fanin up to at most the gate's latest input moves no existing
// arrival and no driver's fanout count.  The tests compare the results node
// for node.

#pragma once

#include <algorithm>
#include <vector>

#include "logicopt/path_balance.hpp"
#include "netlist/netlist.hpp"

namespace lps::reference {

namespace balance_detail {

inline std::vector<int> arrival_times(const Netlist& net) {
  std::vector<int> at(net.size(), 0);
  for (NodeId n : net.topo_order()) {
    const Node& nd = net.node(n);
    if (is_source(nd.type) || nd.type == GateType::Dff) {
      at[n] = 0;
      continue;
    }
    int m = 0;
    for (NodeId f : nd.fanins) m = std::max(m, at[f]);
    at[n] = m + nd.delay;
  }
  return at;
}

inline int critical_delay(const Netlist& net) {
  auto at = arrival_times(net);
  int m = 0;
  for (NodeId o : net.outputs()) m = std::max(m, at[o]);
  for (NodeId i = 0; i < net.size(); ++i)
    if (!net.is_dead(i) && net.node(i).type == GateType::Dff)
      for (NodeId f : net.node(i).fanins) m = std::max(m, at[f]);
  return m;
}

inline void pad_fanin(Netlist& net, NodeId user, std::size_t slot, int count) {
  NodeId cur = net.node(user).fanins[slot];
  for (int i = 0; i < count; ++i) {
    NodeId b = net.add_buf(cur);
    net.node(b).delay = 1;
    net.node(b).size = 0.5;
    cur = b;
  }
  net.replace_fanin(user, slot, cur);
}

}  // namespace balance_detail

/// Full balancing with one whole-netlist timing pass per gate.
inline logicopt::BalanceResult full_balance(Netlist& net) {
  using namespace balance_detail;
  logicopt::BalanceResult r;
  r.critical_delay_before = critical_delay(net);
  const Netlist& cnet = net;
  auto order = net.topo_order();
  for (NodeId id : order) {
    const Node& nd = cnet.node(id);
    if (is_source(nd.type) || nd.type == GateType::Dff) continue;
    auto at = arrival_times(net);
    int latest = 0;
    for (NodeId f : nd.fanins) latest = std::max(latest, at[f]);
    for (std::size_t k = 0; k < cnet.node(id).fanins.size(); ++k) {
      int lag = latest - at[cnet.node(id).fanins[k]];
      if (lag > 0) {
        pad_fanin(net, id, k, lag);
        r.buffers_inserted += lag;
      }
    }
  }
  r.critical_delay_after = critical_delay(net);
  return r;
}

/// Partial balancing with two whole-netlist timing passes per padded slot.
inline logicopt::BalanceResult partial_balance(Netlist& net,
                                               int buffer_budget) {
  using namespace balance_detail;
  logicopt::BalanceResult r;
  r.critical_delay_before = critical_delay(net);
  const Netlist& cnet = net;
  while (r.buffers_inserted < buffer_budget) {
    auto at = arrival_times(net);
    double best_score = 0.0;
    NodeId best_node = kNoNode;
    std::size_t best_slot = 0;
    for (NodeId id = 0; id < net.size(); ++id) {
      if (net.is_dead(id)) continue;
      const Node& nd = cnet.node(id);
      if (is_source(nd.type) || nd.type == GateType::Dff ||
          nd.type == GateType::Buf)
        continue;
      int latest = 0;
      for (NodeId f : nd.fanins) latest = std::max(latest, at[f]);
      for (std::size_t k = 0; k < nd.fanins.size(); ++k) {
        int lag = latest - at[nd.fanins[k]];
        if (lag <= 0) continue;
        double score = static_cast<double>(lag) * (1.0 + nd.fanouts.size());
        if (score > best_score) {
          best_score = score;
          best_node = id;
          best_slot = k;
        }
      }
    }
    if (best_node == kNoNode) break;
    auto at2 = arrival_times(net);
    int latest = 0;
    for (NodeId f : cnet.node(best_node).fanins)
      latest = std::max(latest, at2[f]);
    int lag = latest - at2[cnet.node(best_node).fanins[best_slot]];
    lag = std::min(lag, buffer_budget - r.buffers_inserted);
    pad_fanin(net, best_node, best_slot, lag);
    r.buffers_inserted += lag;
  }
  r.critical_delay_after = critical_delay(net);
  return r;
}

}  // namespace lps::reference
