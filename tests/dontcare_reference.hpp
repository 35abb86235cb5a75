// dontcare_reference.hpp — the unfiltered exact don't-care algorithm, kept
// as the differential reference for logicopt::optimize_dontcare.
//
// The production pass runs a random-simulation prefilter before the BDD
// check, builds the exact care set only for nodes with a surviving
// candidate, and keeps one set of global BDDs for the whole call.  This
// reference does the BDD work for every node and every merge target,
// exactly as the pass did before the prefilter (with every Dff pin, the
// load enable included, observed as a root): it rebuilds the global BDDs
// after every rewrite and takes each care set from the cofactors of a
// fresh variable y substituted for the node.  Since the prefilter is a
// necessary-condition test and the care set is the same function either
// way, both must keep the same rewrite sequence: same structure, same
// const/merge counts.
//
// simulated_care_masks is the prefilter's care-mask computation on the
// per-word LogicSim interpreter, as the pass ran it before the masks moved
// onto the compiled tape: the tape's masks must equal it bit for bit.

#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "logicsim_reference.hpp"
#include "bdd/bdd_netlist.hpp"
#include "logicopt/dontcare.hpp"
#include "sim/logicsim.hpp"

namespace lps::reference {

namespace detail {

inline std::vector<bool> tfo_of(const Netlist& net, NodeId n) {
  std::vector<bool> mask(net.size(), false);
  std::vector<NodeId> stack{n};
  mask[n] = true;
  while (!stack.empty()) {
    NodeId x = stack.back();
    stack.pop_back();
    for (NodeId fo : net.node(x).fanouts) {
      if (net.node(fo).type == GateType::Dff) continue;
      if (!mask[fo]) {
        mask[fo] = true;
        stack.push_back(fo);
      }
    }
  }
  return mask;
}

inline std::vector<bdd::Ref> with_fresh_var(bdd::NetlistBdds& b,
                                            const Netlist& net, NodeId n,
                                            unsigned y,
                                            const std::vector<bool>& tfo) {
  auto& m = b.mgr;
  std::vector<bdd::Ref> fn = b.node_fn;
  fn[n] = m.var(y);
  for (NodeId id : net.topo_order()) {
    if (id == n || !tfo[id]) continue;
    const Node& nd = net.node(id);
    if (is_source(nd.type) || nd.type == GateType::Dff) continue;
    switch (nd.type) {
      case GateType::Buf:
        fn[id] = fn[nd.fanins[0]];
        break;
      case GateType::Not:
        fn[id] = m.lnot(fn[nd.fanins[0]]);
        break;
      case GateType::And:
      case GateType::Nand: {
        bdd::Ref r = bdd::kTrue;
        for (NodeId f : nd.fanins) r = m.land(r, fn[f]);
        fn[id] = nd.type == GateType::Nand ? m.lnot(r) : r;
        break;
      }
      case GateType::Or:
      case GateType::Nor: {
        bdd::Ref r = bdd::kFalse;
        for (NodeId f : nd.fanins) r = m.lor(r, fn[f]);
        fn[id] = nd.type == GateType::Nor ? m.lnot(r) : r;
        break;
      }
      case GateType::Xor:
      case GateType::Xnor: {
        bdd::Ref r = bdd::kFalse;
        for (NodeId f : nd.fanins) r = m.lxor(r, fn[f]);
        fn[id] = nd.type == GateType::Xnor ? m.lnot(r) : r;
        break;
      }
      case GateType::Mux:
        fn[id] = m.ite(fn[nd.fanins[0]], fn[nd.fanins[2]], fn[nd.fanins[1]]);
        break;
      default:
        break;
    }
  }
  return fn;
}

}  // namespace detail

/// The prefilter's care masks on the interpreter: 512 vectors drawn word by
/// word (PIs, then registers), n complemented and its TFO re-evaluated, a
/// vector marked when any observation point in the TFO differs.  8 words
/// per node id; zero for sources, registers and dead nodes.
inline std::vector<std::uint64_t> simulated_care_masks(const Netlist& net) {
  constexpr std::size_t kWords = 8;
  reference::LogicSim sim(net);
  std::mt19937_64 rng(0xD0C0FFEEull);
  std::vector<sim::Frame> base(kWords);
  std::vector<std::uint64_t> pi(net.inputs().size());
  std::vector<std::uint64_t> q(net.dffs().size());
  for (auto& frame : base) {
    for (auto& w : pi) w = rng();
    for (auto& w : q) w = rng();
    sim.eval_into(frame, pi, q);
  }
  const std::vector<NodeId> points = bdd::observation_points(net);
  std::vector<std::uint64_t> masks(net.size() * kWords, 0);
  for (NodeId n : sim.order()) {
    const Node& nd = net.node(n);
    if (net.is_dead(n) || is_source(nd.type) || nd.type == GateType::Dff)
      continue;
    auto cone = detail::tfo_of(net, n);
    std::vector<NodeId> roots;
    for (NodeId p : points)
      if (cone[p]) roots.push_back(p);
    std::vector<NodeId> gates;  // the TFO without n, in topological order
    for (NodeId id : sim.order())
      if (id != n && cone[id]) gates.push_back(id);
    for (std::size_t w = 0; w < kWords; ++w) {
      sim::Frame f = base[w];
      f[n] = ~f[n];
      for (NodeId id : gates) {
        std::vector<std::uint64_t> fin;
        for (NodeId fi : net.node(id).fanins) fin.push_back(f[fi]);
        f[id] = eval_gate(net.node(id).type, fin);
      }
      std::uint64_t care = 0;
      for (NodeId r : roots) care |= f[r] ^ base[w][r];
      masks[n * kWords + w] = care;
    }
  }
  return masks;
}

/// optimize_dontcare without the simulation prefilter.
inline logicopt::DontCareResult optimize_dontcare(
    Netlist& net, const std::vector<double>& toggles,
    const logicopt::DontCareOptions& opt = {}) {
  logicopt::DontCareResult res;
  res.gates_before = net.num_gates();
  auto tog = [&toggles](NodeId id) {
    return id < toggles.size() ? toggles[id] : 0.0;
  };

  bool changed = true;
  int rewrites = 0;
  try {
    while (changed && rewrites < opt.max_rewrites) {
      changed = false;
      // The fresh variable y: an unused PI, which build_bdds orders last.
      Netlist shadow = net.clone();
      const NodeId y_pi = shadow.add_input("__dontcare_y");
      auto bdds = bdd::build_bdds(shadow, opt.bdd_limit);
      auto& m = bdds.mgr;
      const unsigned y = bdds.var_of.at(y_pi);

      auto order = net.topo_order();
      for (NodeId n : order) {
        if (net.is_dead(n)) continue;
        const Node& nd = net.node(n);
        if (is_source(nd.type) || nd.type == GateType::Dff) continue;

        if (m.live_nodes() >= opt.bdd_limit / 2) m.gc();

        auto tfo = detail::tfo_of(net, n);
        auto fn_y = detail::with_fresh_var(bdds, net, n, y, tfo);

        // Care set: some root (PO or Dff pin) distinguishes y=0 from y=1.
        bdd::Ref odc = bdd::kTrue;
        auto account_root = [&](NodeId root) {
          bdd::Ref f = fn_y[root];
          bdd::Ref f0 = m.cofactor(f, y, false);
          bdd::Ref f1 = m.cofactor(f, y, true);
          odc = m.land(odc, m.lxnor(f0, f1));
        };
        for (NodeId o : net.outputs())
          if (tfo[o]) account_root(o);
        for (NodeId d : net.dffs())
          for (NodeId pin : net.node(d).fanins)
            if (tfo[pin]) account_root(pin);

        bdd::Ref care = m.lnot(odc);
        bdd::Ref f_n = bdds.node_fn[n];
        bdd::Ref f_care = m.land(f_n, care);

        NodeId replacement = kNoNode;
        if (f_care == bdd::kFalse) {
          replacement = net.add_const(false);
        } else if (m.land(m.lnot(f_n), care) == bdd::kFalse) {
          replacement = net.add_const(true);
        } else {
          double best_gain = opt.power_aware ? 1e-12 : -1e30;
          for (NodeId g = 0; g < net.size(); ++g) {
            if (g == n || net.is_dead(g) || tfo[g]) continue;
            if (net.node(g).type == GateType::Const0 ||
                net.node(g).type == GateType::Const1)
              continue;
            if (m.land(bdds.node_fn[g], care) != f_care) continue;
            double gain = tog(n) - 0.5 * tog(g);
            if (!opt.power_aware) gain = 1.0;
            if (gain > best_gain) {
              best_gain = gain;
              replacement = g;
            }
          }
        }

        if (replacement != kNoNode) {
          net.substitute(n, replacement);
          net.sweep();
          if (net.node(replacement).type == GateType::Const0 ||
              net.node(replacement).type == GateType::Const1)
            ++res.const_replacements;
          else
            ++res.merges;
          ++rewrites;
          changed = true;
          break;
        }
      }
    }
  } catch (const bdd::NodeLimitExceeded&) {
    res.limited = true;
  }
  res.gates_after = net.num_gates();
  return res;
}

}  // namespace lps::reference
