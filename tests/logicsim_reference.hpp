// logicsim_reference.hpp — the per-gate zero-delay interpreter, kept as the
// reference the compiled tape (sim/compiled.hpp) is checked against.
//
// LogicSim evaluates one 64-pattern frame at a time the slow, obvious way:
// walk the topological order, gather each gate's fanin words through
// Node::fanins and call eval_gate.  It is independent of the tape's
// records, kernels and blocking, and its register step is its own, so a
// fault in any of those shows as a differing word.  Tests also use it as
// the plain cycle simulator of sequential netlists.

#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/compiled.hpp"

namespace lps::reference {

/// Zero-delay combinational evaluator bound to one netlist.
class LogicSim {
 public:
  explicit LogicSim(const Netlist& net)
      : net_(&net), order_(net.topo_order()), dffs_(net.dffs()) {}

  /// Evaluate the full network for one frame of PI values; `pi_words[i]`
  /// is net.inputs()[i]'s word, `dff_words[i]` register i's output (empty
  /// = reset values).  Returns a per-node value frame; dead slots read 0.
  sim::Frame eval(std::span<const std::uint64_t> pi_words,
                  std::span<const std::uint64_t> dff_words = {}) const {
    sim::Frame f;
    eval_into(f, pi_words, dff_words);
    return f;
  }

  void eval_into(sim::Frame& f, std::span<const std::uint64_t> pi_words,
                 std::span<const std::uint64_t> dff_words = {}) const {
    const Netlist& n = *net_;
    if (pi_words.size() != n.inputs().size())
      throw std::invalid_argument("LogicSim::eval: PI word count mismatch");
    if (!dff_words.empty() && dff_words.size() != dffs_.size())
      throw std::invalid_argument(
          "LogicSim::eval: register word count mismatch");
    f.assign(n.size(), 0);
    for (std::size_t i = 0; i < pi_words.size(); ++i)
      f[n.inputs()[i]] = pi_words[i];
    for (std::size_t i = 0; i < dffs_.size(); ++i)
      f[dffs_[i]] = dff_words.empty()
                        ? (n.node(dffs_[i]).init_value ? ~0ULL : 0ULL)
                        : dff_words[i];
    std::vector<std::uint64_t> fin;
    for (NodeId id : order_) {
      const Node& nd = n.node(id);
      switch (nd.type) {
        case GateType::Input:
        case GateType::Dff:
          break;
        case GateType::Const0:
          f[id] = 0;
          break;
        case GateType::Const1:
          f[id] = ~0ULL;
          break;
        default:
          fin.clear();
          for (NodeId x : nd.fanins) fin.push_back(f[x]);
          f[id] = eval_gate(nd.type, fin);
      }
    }
  }

  /// Values at the primary outputs extracted from a frame.
  std::vector<std::uint64_t> outputs_of(const sim::Frame& f) const {
    std::vector<std::uint64_t> r;
    for (NodeId o : net_->outputs()) r.push_back(f[o]);
    return r;
  }

  /// Next-state values (Dff D inputs; load-enabled registers hold on
  /// EN = 0) from a frame.
  std::vector<std::uint64_t> next_state_of(const sim::Frame& f) const {
    std::vector<std::uint64_t> r;
    for (NodeId q : dffs_) {
      const Node& nd = net_->node(q);
      const std::uint64_t d = f[nd.fanins[0]];
      if (nd.fanins.size() == 2) {
        const std::uint64_t en = f[nd.fanins[1]];
        r.push_back((en & d) | (~en & f[q]));
      } else {
        r.push_back(d);
      }
    }
    return r;
  }

  const std::vector<NodeId>& order() const { return order_; }

 private:
  const Netlist* net_;
  std::vector<NodeId> order_;
  std::vector<NodeId> dffs_;
};

}  // namespace lps::reference
