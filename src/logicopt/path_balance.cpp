#include "logicopt/path_balance.hpp"

#include <algorithm>
#include <tuple>
#include <vector>

namespace lps::logicopt {

namespace {

// Insert `count` unit-delay buffers between net.node(user).fanins[slot] and
// its driver.
void pad_fanin(Netlist& net, NodeId user, std::size_t slot, int count) {
  NodeId cur = net.node(user).fanins[slot];
  for (int i = 0; i < count; ++i) {
    NodeId b = net.add_buf(cur);
    net.node(b).delay = 1;
    // Delay buffers are minimum-size cells: they only need to drive one
    // pin, so they present the smallest possible load to their driver.
    net.node(b).size = 0.5;
    cur = b;
  }
  net.replace_fanin(user, slot, cur);
}

}  // namespace

BalanceResult full_balance(Netlist& net) {
  BalanceResult r;
  r.critical_delay_before = net.critical_delay();
  // Process gates in topological order; at each gate pad the early fanins
  // up to the latest one.  After the pass, every path from sources to any
  // gate input has equal delay, so no gate can glitch (single switching
  // wave per cycle under the pure-delay model).
  const Netlist& cnet = net;  // reads must not journal (see netlist.hpp)
  auto order = net.topo_order();
  for (NodeId id : order) {
    const Node& nd = cnet.node(id);
    if (is_source(nd.type) || nd.type == GateType::Dff) continue;
    auto at = net.arrival_times();  // recompute; padding changes times
    int latest = 0;
    for (NodeId f : nd.fanins) latest = std::max(latest, at[f]);
    // pad_fanin appends nodes, so re-fetch id's fanins after each pad.
    for (std::size_t k = 0; k < cnet.node(id).fanins.size(); ++k) {
      int lag = latest - at[cnet.node(id).fanins[k]];
      if (lag > 0) {
        pad_fanin(net, id, k, lag);
        r.buffers_inserted += lag;
      }
    }
  }
  r.critical_delay_after = net.critical_delay();
  return r;
}

BalanceResult partial_balance(Netlist& net, int buffer_budget) {
  BalanceResult r;
  r.critical_delay_before = net.critical_delay();
  const Netlist& cnet = net;  // reads must not journal (see netlist.hpp)
  while (r.buffers_inserted < buffer_budget) {
    auto at = net.arrival_times();
    // Find the fanin slot with the largest skew, weighted by the fanout
    // count of the gate (a skewed input on a high-fanout gate spawns the
    // most downstream glitching).
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
        double score =
            static_cast<double>(lag) * (1.0 + nd.fanouts.size());
        if (score > best_score) {
          best_score = score;
          best_node = id;
          best_slot = k;
        }
      }
    }
    if (best_node == kNoNode) break;  // fully balanced
    auto at2 = net.arrival_times();
    int latest = 0;
    for (NodeId f : cnet.node(best_node).fanins)
      latest = std::max(latest, at2[f]);
    int lag = latest - at2[cnet.node(best_node).fanins[best_slot]];
    lag = std::min(lag, buffer_budget - r.buffers_inserted);
    pad_fanin(net, best_node, best_slot, lag);
    r.buffers_inserted += lag;
  }
  r.critical_delay_after = net.critical_delay();
  return r;
}

}  // namespace lps::logicopt
