// eventsim_reference.hpp — the scalar event-driven timed simulator, the
// reference the waveform simulator's toggle counts are checked against.
//
// sim::measure_timed_activity runs a time-expanded compiled tape over 64
// consecutive vectors per word (sim/waveform.hpp).  This simulator does the
// same job the classic way: a two-list event-driven loop with
// transport-delay semantics over a circular timing wheel, one scalar vector
// at a time.  Every scheduled transition fires, so glitches propagate; a
// gate is evaluated once per time step after all of that step's changes,
// and an event is scheduled only when it differs from the last scheduled
// value.  measure_timed_activity() below keeps the production driver's
// shard plan, shard seeds and per-input draw order, so the two must agree
// count for count on every circuit, delay assignment and input bias.  The
// shards run serially: the plan and seeds, not the thread count, fix the
// result.

#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/parallel.hpp"
#include "netlist/netlist.hpp"
#include "sim/waveform.hpp"

namespace lps::reference {

/// Event-driven timed simulator.  Gate delays come from Node::delay.
class EventSim {
 public:
  explicit EventSim(const Netlist& net)
      : net_(&net), order_(net.topo_order()), dffs_(net.dffs()) {
    // Events are scheduled at now + max(1, delay), so max(1, max delay) + 1
    // buckets distinguish every pending timestamp.
    int maxd = 1;
    for (NodeId id = 0; id < net.size(); ++id)
      if (!net.is_dead(id)) maxd = std::max(maxd, net.node(id).delay);
    wheel_.resize(static_cast<std::size_t>(maxd) + 1);
    reset();
  }

  /// Reset to the settled response of the all-zero input vector (registers
  /// at their init values) and clear the counts.
  void reset() {
    const Netlist& n = *net_;
    value_.assign(n.size(), 0);
    for (NodeId id : order_) {
      const Node& nd = n.node(id);
      if (nd.type == GateType::Input) continue;
      if (nd.type == GateType::Dff) {
        value_[id] = nd.init_value ? 1 : 0;
        continue;
      }
      value_[id] = eval(nd) ? 1 : 0;
    }
    lsv_ = value_;
    settled_ = value_;
    for (auto& b : wheel_) b.clear();
    stats_ = sim::TimedStats(n.size());
  }

  /// Apply one input vector (clocking the registers first), propagate to
  /// quiescence, and accumulate transition counts.
  void apply(std::span<const bool> pi_values) {
    const Netlist& n = *net_;
    if (pi_values.size() != n.inputs().size())
      throw std::invalid_argument("EventSim::apply: PI count mismatch");
    std::vector<Change> init;
    for (std::size_t i = 0; i < pi_values.size(); ++i) {
      NodeId pi = n.inputs()[i];
      if ((value_[pi] != 0) != pi_values[i]) {
        init.emplace_back(pi, pi_values[i]);
        lsv_[pi] = pi_values[i] ? 1 : 0;
      }
    }
    // Clock edge: register outputs change to the captured next state
    // (load-enabled registers hold their value when EN was 0).
    for (NodeId d : dffs_) {
      const Node& nd = n.node(d);
      bool next = value_[nd.fanins[0]] != 0;
      if (nd.fanins.size() == 2 && value_[nd.fanins[1]] == 0)
        next = value_[d] != 0;
      if ((value_[d] != 0) != next) {
        init.emplace_back(d, next);
        lsv_[d] = next ? 1 : 0;
      }
    }
    settle(std::move(init));
    for (NodeId id = 0; id < n.size(); ++id)
      if (!n.is_dead(id) && value_[id] != settled_[id])
        stats_.functional_toggles[id] += 1.0;
    settled_ = value_;
    ++stats_.vectors;
  }

  const sim::TimedStats& stats() const { return stats_; }

 private:
  using Change = std::pair<NodeId, bool>;

  bool eval(const Node& nd) const {
    std::vector<std::uint64_t> w(nd.fanins.size());
    for (std::size_t j = 0; j < w.size(); ++j)
      w[j] = value_[nd.fanins[j]] ? ~0ULL : 0ULL;
    return (eval_gate(nd.type, w) & 1ULL) != 0;
  }

  // Propagate the time-0 changes to quiescence.
  void settle(std::vector<Change> init) {
    const Netlist& n = *net_;
    const std::size_t W = wheel_.size();
    std::size_t head = 0;
    std::size_t pending = init.size();
    wheel_[0] = std::move(init);
    std::vector<NodeId> touched;
    while (pending > 0) {
      auto& changes = wheel_[head];
      if (!changes.empty()) {
        pending -= changes.size();
        touched.clear();
        for (auto [node, v] : changes) {
          if ((value_[node] != 0) == v) continue;
          value_[node] = v ? 1 : 0;
          stats_.total_toggles[node] += 1.0;
          for (NodeId fo : n.node(node).fanouts)
            if (n.node(fo).type != GateType::Dff) touched.push_back(fo);
        }
        changes.clear();
        std::sort(touched.begin(), touched.end());
        touched.erase(std::unique(touched.begin(), touched.end()),
                      touched.end());
        for (NodeId g : touched) {
          const Node& nd = n.node(g);
          bool v = eval(nd);
          if ((lsv_[g] != 0) != v) {
            lsv_[g] = v ? 1 : 0;
            auto d = static_cast<std::size_t>(std::max(1, nd.delay));
            wheel_[(head + d) % W].emplace_back(g, v);
            ++pending;
          }
        }
      }
      head = (head + 1) % W;
    }
  }

  const Netlist* net_;
  std::vector<NodeId> order_;
  std::vector<NodeId> dffs_;
  std::vector<char> value_;    // current timed value
  std::vector<char> lsv_;      // last scheduled value
  std::vector<char> settled_;  // settled value of the previous vector
  sim::TimedStats stats_;
  std::vector<std::vector<Change>> wheel_;
};

/// Reference of sim::measure_timed_activity: the same shard plan, seeds and
/// draw order (rng() & 0xFFFF per vector, per input), run serially.
inline sim::TimedStats measure_timed_activity(
    const Netlist& net, std::size_t n_vectors, std::uint64_t seed,
    std::span<const double> pi_one_prob = {}) {
  auto plan = core::plan_shards(net.dffs().empty() ? n_vectors : 0, 64);
  const std::size_t n_pi = net.inputs().size();
  sim::TimedStats st(net.size());
  EventSim es(net);
  std::unique_ptr<bool[]> buf(new bool[std::max<std::size_t>(1, n_pi)]);
  for (std::size_t s = 0; s < plan.shards; ++s) {
    const bool solo = plan.shards == 1;
    std::mt19937_64 rng(solo ? seed : core::shard_seed(seed, s));
    es.reset();
    for (std::size_t k = 0, nv = solo ? n_vectors : plan.count(s); k < nv;
         ++k) {
      for (std::size_t i = 0; i < n_pi; ++i)
        buf[i] = (rng() & 0xFFFF) <
                 static_cast<std::uint64_t>(
                     (pi_one_prob.empty() ? 0.5 : pi_one_prob[i]) * 65536.0);
      es.apply({buf.get(), n_pi});
    }
    for (NodeId id = 0; id < net.size(); ++id) {
      st.total_toggles[id] += es.stats().total_toggles[id];
      st.functional_toggles[id] += es.stats().functional_toggles[id];
    }
    st.vectors += es.stats().vectors;
  }
  return st;
}

}  // namespace lps::reference
