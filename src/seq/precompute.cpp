#include "seq/precompute.hpp"

#include <algorithm>
#include <stdexcept>

#include "seq/seq_circuit.hpp"
#include "sim/compiled.hpp"

namespace lps::seq {

namespace {

// pre(x_S) = AND over outputs of (forall_others f  OR  forall_others !f).
bdd::Ref precompute_condition(bdd::NetlistBdds& b, const Netlist& comb,
                              const std::vector<bool>& in_subset) {
  auto& m = b.mgr;
  std::vector<unsigned> others;
  for (NodeId pi : comb.inputs())
    if (!in_subset[pi]) others.push_back(b.var_of.at(pi));
  bdd::Ref pre = bdd::kTrue;
  for (NodeId o : comb.outputs()) {
    bdd::Ref f = b.node_fn[o];
    bdd::Ref g1 = m.forall(f, others);
    bdd::Ref g0 = m.forall(m.lnot(f), others);
    pre = m.land(pre, m.lor(g1, g0));
  }
  return pre;
}

}  // namespace

PrecomputeSelection select_precompute_inputs(const Netlist& comb, int k,
                                             std::size_t max_subsets) {
  auto b = bdd::build_bdds(comb);
  const auto& pis = comb.inputs();
  int n = static_cast<int>(pis.size());
  if (k <= 0 || k >= n)
    throw std::invalid_argument("select_precompute_inputs: bad subset size");
  std::vector<double> uniform(b.mgr.num_vars(), 0.5);

  PrecomputeSelection best;
  std::vector<bool> in_subset(comb.size(), false);

  // Count subsets; fall back to a greedy chain when too many.
  double combos = 1;
  for (int i = 0; i < k; ++i) combos *= static_cast<double>(n - i) / (i + 1);
  if (combos <= static_cast<double>(max_subsets)) {
    std::vector<int> idx(k);
    for (int i = 0; i < k; ++i) idx[i] = i;
    for (;;) {
      std::fill(in_subset.begin(), in_subset.end(), false);
      for (int i : idx) in_subset[pis[i]] = true;
      bdd::Ref pre = precompute_condition(b, comb, in_subset);
      double p = b.mgr.probability(pre, uniform);
      if (p > best.hit_probability) {
        best.hit_probability = p;
        best.subset.clear();
        for (int i : idx) best.subset.push_back(pis[i]);
      }
      // Next combination.
      int pos = k - 1;
      while (pos >= 0 && idx[pos] == n - k + pos) --pos;
      if (pos < 0) break;
      ++idx[pos];
      for (int j = pos + 1; j < k; ++j) idx[j] = idx[j - 1] + 1;
    }
    return best;
  }
  // Greedy fallback, growing by *pairs*: a single extra observed input
  // rarely determines an output on its own (its marginal gain is zero for
  // comparator-like functions), so single-step greedy stalls; pairs expose
  // the real gain surface at O(n^2) quantifications per round.
  std::vector<int> chosen;
  auto eval_subset = [&](const std::vector<int>& sel) {
    std::fill(in_subset.begin(), in_subset.end(), false);
    for (int c : sel) in_subset[pis[c]] = true;
    bdd::Ref pre = precompute_condition(b, comb, in_subset);
    return b.mgr.probability(pre, uniform);
  };
  while (static_cast<int>(chosen.size()) + 1 < k) {
    double round_best = -1.0;
    int pick_i = -1, pick_j = -1;
    for (int i = 0; i < n; ++i) {
      if (std::find(chosen.begin(), chosen.end(), i) != chosen.end())
        continue;
      for (int j = i + 1; j < n; ++j) {
        if (std::find(chosen.begin(), chosen.end(), j) != chosen.end())
          continue;
        auto sel = chosen;
        sel.push_back(i);
        sel.push_back(j);
        double p = eval_subset(sel);
        if (p > round_best) {
          round_best = p;
          pick_i = i;
          pick_j = j;
        }
      }
    }
    chosen.push_back(pick_i);
    chosen.push_back(pick_j);
    best.hit_probability = round_best;
  }
  if (static_cast<int>(chosen.size()) < k) {
    double round_best = -1.0;
    int round_pick = -1;
    for (int i = 0; i < n; ++i) {
      if (std::find(chosen.begin(), chosen.end(), i) != chosen.end())
        continue;
      auto sel = chosen;
      sel.push_back(i);
      double p = eval_subset(sel);
      if (p > round_best) {
        round_best = p;
        round_pick = i;
      }
    }
    chosen.push_back(round_pick);
    best.hit_probability = round_best;
  }
  for (int c : chosen) best.subset.push_back(pis[c]);
  return best;
}

Netlist registered_baseline(const Netlist& comb) { return registered(comb); }

PrecomputeResult apply_precomputation(const Netlist& comb,
                                      std::span<const NodeId> subset) {
  if (!comb.dffs().empty())
    throw std::invalid_argument("apply_precomputation: comb circuit expected");
  auto b = bdd::build_bdds(comb);
  std::vector<bool> in_subset(comb.size(), false);
  for (NodeId s : subset) in_subset[s] = true;
  bdd::Ref pre = precompute_condition(b, comb, in_subset);
  std::vector<double> uniform(b.mgr.num_vars(), 0.5);

  PrecomputeResult res;
  res.hit_probability = b.mgr.probability(pre, uniform);

  Netlist n(comb.name() + "_precomp");
  // Inputs and their registers.
  std::vector<NodeId> x(comb.size(), kNoNode);   // PI of new circuit
  std::vector<NodeId> q(comb.size(), kNoNode);   // registered input
  for (NodeId pi : comb.inputs()) {
    x[pi] = n.add_input(comb.node(pi).name);
    q[pi] = n.add_dff(x[pi], false, comb.node(pi).name + "_r");
  }
  // Precomputation logic over the *unregistered* subset inputs.
  std::vector<NodeId> var_to_node(b.mgr.num_vars(), kNoNode);
  for (NodeId pi : comb.inputs()) var_to_node[b.var_of.at(pi)] = x[pi];
  std::size_t gates_before = n.num_gates();
  NodeId pre_node = bdd::synthesize_bdd(n, b.mgr, pre, var_to_node);
  NodeId le = n.add_not(pre_node);  // load when NOT precomputable
  res.precompute_gates = static_cast<int>(n.num_gates() - gates_before) + 1;
  // Disable the non-subset input registers when LE = 0 (Figure 1's "LE"
  // pin; one gating condition drives the whole bank).
  for (NodeId pi : comb.inputs())
    if (!in_subset[pi]) n.set_dff_enable(q[pi], le);

  // Copy the combinational logic over the registered inputs.
  std::vector<NodeId> map(comb.size(), kNoNode);
  for (NodeId pi : comb.inputs()) map[pi] = q[pi];
  for (NodeId id : comb.topo_order()) {
    const Node& nd = comb.node(id);
    if (nd.type == GateType::Input) continue;
    if (nd.type == GateType::Const0) {
      map[id] = n.add_const(false);
      continue;
    }
    if (nd.type == GateType::Const1) {
      map[id] = n.add_const(true);
      continue;
    }
    std::vector<NodeId> fi;
    for (NodeId f : nd.fanins) fi.push_back(map[f]);
    map[id] = n.add_gate(nd.type, std::move(fi));
    n.node(map[id]).delay = nd.delay;
  }
  // Registered outputs, with reset value f(all-zero inputs) to match the
  // baseline's trace from cycle 0.
  sim::Frame frame;
  sim::CompiledSim(comb).eval_into(
      frame, std::vector<std::uint64_t>(comb.inputs().size(), 0));
  const auto& outs = comb.outputs();
  for (std::size_t i = 0; i < outs.size(); ++i) {
    bool init = (frame[outs[i]] & 1ULL) != 0;
    NodeId r = n.add_dff(map[outs[i]], init,
                         comb.output_names()[i] + "_r0");
    n.add_output(r, comb.output_names()[i]);
  }
  res.circuit = std::move(n);
  return res;
}

}  // namespace lps::seq
