#include "logicopt/path_balance.hpp"

#include <algorithm>
#include <span>
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

// A fanin slot that arrives `lag` units before its gate's latest input,
// scored by the lag weighted by the gate's fanout count (a skewed input on
// a high-fanout gate spawns the most downstream glitching).
struct Skew { double score; NodeId id; std::size_t slot; int lag; };

// Every skewed slot, gate by gate in `order`, from one timing pass.
// Padding a slot up to at most its gate's latest input moves no existing
// node's arrival and keeps every driver's fanout count, so the list stays
// exact while its slots are padded.
std::vector<Skew> skews(const Netlist& net, std::span<const NodeId> order) {
  const auto at = net.arrival_times();
  std::vector<Skew> r;
  for (NodeId id : order) {
    const Node& nd = net.node(id);
    if (is_source(nd.type) || nd.type == GateType::Dff) continue;
    int latest = 0;
    for (NodeId f : nd.fanins) latest = std::max(latest, at[f]);
    for (std::size_t k = 0; k < nd.fanins.size(); ++k) {
      int lag = latest - at[nd.fanins[k]];
      if (lag > 0) r.push_back({lag * (1.0 + nd.fanouts.size()), id, k, lag});
    }
  }
  return r;
}

}  // namespace

BalanceResult full_balance(Netlist& net) {
  BalanceResult r;
  r.critical_delay_before = net.critical_delay();
  // Pad every early fanin up to its gate's latest one.  After the pass,
  // every path from sources to any gate input has equal delay, so no gate
  // can glitch (single switching wave per cycle under the pure-delay
  // model).
  for (const Skew& s : skews(net, net.topo_order())) {
    pad_fanin(net, s.id, s.slot, s.lag);
    r.buffers_inserted += s.lag;
  }
  r.critical_delay_after = net.critical_delay();
  return r;
}

BalanceResult partial_balance(Netlist& net, int buffer_budget) {
  BalanceResult r;
  r.critical_delay_before = net.critical_delay();
  // Greedy: the highest-scored slots first (ties to the lower gate id and
  // slot), the last one cut short when the budget runs out.
  auto all = skews(net, net.topo_order());
  std::sort(all.begin(), all.end(), [](const Skew& a, const Skew& b) {
    return std::tuple(-a.score, a.id, a.slot) <
           std::tuple(-b.score, b.id, b.slot);
  });
  for (const Skew& s : all) {
    if (r.buffers_inserted >= buffer_budget) break;
    int lag = std::min(s.lag, buffer_budget - r.buffers_inserted);
    pad_fanin(net, s.id, s.slot, lag);
    r.buffers_inserted += lag;
  }
  r.critical_delay_after = net.critical_delay();
  return r;
}

}  // namespace lps::logicopt
