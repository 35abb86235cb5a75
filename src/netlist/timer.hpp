// timer.hpp — the one longest-path timer (DESIGN.md, "One timer").
//
// Sources and Dff outputs arrive at 0, a gate at its latest fanin plus
// delay(n).  critical() is the latest arrival over every PO and every Dff
// pin (D and EN).  update() re-times after delay edits in O(cone) and
// leaves the arrivals a fresh full pass would compute, bit for bit.  The
// topology must not change while the timer is in use.

#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "netlist/netlist.hpp"

namespace lps {

template <class DelayFn>
class Timer {
 public:
  using Time = std::decay_t<std::invoke_result_t<const DelayFn&, NodeId>>;

  /// One full pass over net.topo_order().  `net` and whatever `delay` reads
  /// must outlive the timer.
  Timer(const Netlist& net, DelayFn delay)
      : net_(net), delay_(std::move(delay)), at_(net.size()),
        pos_(net.size()), queued_(net.size()), endpoints_(net.outputs()) {
    const std::vector<NodeId> order = net.topo_order();
    for (std::size_t i = 0; i < order.size(); ++i) {
      pos_[order[i]] = static_cast<std::uint32_t>(i);
      at_[order[i]] = eval(order[i]);
    }
    for (NodeId d : net.dffs())
      for (NodeId f : net.node(d).fanins) endpoints_.push_back(f);
  }

  /// Arrival per node id (0 for sources, Dffs and dead nodes).
  const std::vector<Time>& arrivals() const { return at_; }

  /// Latest arrival over the endpoints (0 when there are none).
  Time critical() const {
    Time m{};
    for (NodeId e : endpoints_) m = std::max(m, at_[e]);
    return m;
  }

  /// Re-time after the delays of `changed` moved: re-evaluate them, then
  /// the fanouts of each node whose arrival moved, in topological-position
  /// order, stopping where an arrival holds.  What it overwrites is kept
  /// until the next update(), so undo() can put it back.
  void update(std::span<const NodeId> changed) {
    undo_.clear();
    for (NodeId n : changed) push(n);
    while (!heap_.empty()) {
      const NodeId n = heap_.top().second;
      heap_.pop();
      queued_[n] = 0;
      ++updates_;
      const Time t = eval(n);
      if (t == at_[n]) continue;
      undo_.emplace_back(n, at_[n]);
      at_[n] = t;
      for (NodeId fo : net_.node(n).fanouts) push(fo);
    }
  }

  /// Restore the arrivals the last update() moved (the caller restores the
  /// delays themselves).
  void undo() {
    for (auto it = undo_.rbegin(); it != undo_.rend(); ++it)
      at_[it->first] = it->second;
    undo_.clear();
  }

  /// Nodes update() has re-evaluated over the timer's life.
  std::uint64_t updates() const { return updates_; }

 private:
  bool is_gate(NodeId n) const {
    const GateType t = net_.node(n).type;
    return !is_source(t) && t != GateType::Dff;
  }
  void push(NodeId n) {
    if (queued_[n] || !is_gate(n)) return;  // sources and Dffs stay at 0
    queued_[n] = 1;
    heap_.emplace(pos_[n], n);
  }
  Time eval(NodeId n) const {
    if (!is_gate(n)) return Time{};
    Time m{};
    for (NodeId f : net_.node(n).fanins) m = std::max(m, at_[f]);
    return m + delay_(n);
  }

  const Netlist& net_;
  DelayFn delay_;
  std::vector<Time> at_;
  std::vector<std::uint32_t> pos_;    // position in topo_order()
  std::vector<std::uint8_t> queued_;  // in heap_
  std::vector<NodeId> endpoints_;
  using Entry = std::pair<std::uint32_t, NodeId>;  // (pos_, node)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  std::vector<std::pair<NodeId, Time>> undo_;
  std::uint64_t updates_ = 0;
};

}  // namespace lps
