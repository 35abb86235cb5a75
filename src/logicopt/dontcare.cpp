#include "logicopt/dontcare.hpp"

#include <algorithm>
#include <array>
#include <random>

#include "bdd/bdd_netlist.hpp"
#include "core/metrics.hpp"
#include "sim/logicsim.hpp"

namespace lps::logicopt {

namespace {

// Random vectors per scan behind the simulated care masks (8 words).
constexpr std::size_t kFilterVectors = 512;
constexpr std::size_t kFilterWords = kFilterVectors / 64;
constexpr std::uint64_t kFilterSeed = 0xD0C0FFEEull;

// Transitive fanout mask of n (combinational; Dff boundaries cut).
std::vector<bool> tfo_of(const Netlist& net, NodeId n) {
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

// The TFO nodes a change is observed through: the observation points
// (bdd_netlist.hpp) inside the TFO.
std::vector<NodeId> observed_roots(const std::vector<NodeId>& points,
                                   const std::vector<bool>& tfo) {
  std::vector<NodeId> roots;
  for (NodeId p : points)
    if (tfo[p]) roots.push_back(p);
  return roots;
}

// Rebuild functions of n's transitive fanout with node n replaced by var y;
// returns the function of every node under that substitution.  The TFO
// stops at registers, so besides n it holds only logic gates.  Auto-GC is
// off in build_bdds' manager, so nothing here is rooted.
std::vector<bdd::Ref> with_fresh_var(bdd::NetlistBdds& b, const Netlist& net,
                                     const std::vector<NodeId>& order,
                                     NodeId n, unsigned y,
                                     const std::vector<bool>& tfo) {
  std::vector<bdd::Ref> fn = b.node_fn;
  fn[n] = b.mgr.var(y);
  for (NodeId id : order)
    if (id != n && tfo[id]) fn[id] = bdd::lower_gate(b.mgr, net.node(id), fn);
  return fn;
}

// Simulated care sets over one fixed batch of random vectors.  PIs and Dff
// outputs are drawn freely, as they are free variables of the global BDDs,
// so every simulated vector is a point of the exact care set's domain: a
// vector on which complementing n changes a root lies in n's exact care
// set.  Hence a rewrite the BDD admits (the replacement agrees with n on
// the whole care set) also agrees on every simulated care vector — a
// disagreement refutes a candidate without any BDD work.
class SimulatedCare {
 public:
  explicit SimulatedCare(const Netlist& net)
      : sim_(net), base_(kFilterWords) {
    std::mt19937_64 rng(kFilterSeed);
    std::vector<std::uint64_t> pi(net.inputs().size());
    std::vector<std::uint64_t> q(net.dffs().size());
    for (auto& frame : base_) {
      for (auto& w : pi) w = rng();
      for (auto& w : q) w = rng();
      sim_.eval_into(frame, pi, q);
    }
    work_ = base_;
  }

  /// The scan order: the netlist's topological order.
  const std::vector<NodeId>& order() const { return sim_.order(); }

  /// Care mask of n: complement n's words, resimulate its TFO and mark the
  /// vectors on which any root differs.  `cone` is n's TFO without n.
  void compute(NodeId n, const std::vector<bool>& cone,
               const std::vector<NodeId>& roots) {
    const sim::ConeSchedule sched = sim_.cone_schedule(cone);
    for (std::size_t w = 0; w < kFilterWords; ++w) {
      const sim::Frame& b = base_[w];
      sim::Frame& f = work_[w];
      f[n] = ~b[n];
      sim_.eval_cone_into(f, sched);
      std::uint64_t care = 0;
      for (NodeId r : roots) care |= f[r] ^ b[r];
      care_[w] = care;
      f[n] = b[n];
      for (NodeId id : sched.gates) f[id] = b[id];
    }
  }

  /// n equals the constant `value` on every simulated care vector.
  bool may_be_const(NodeId n, bool value) const {
    const std::uint64_t c = value ? ~0ULL : 0ULL;
    for (std::size_t w = 0; w < kFilterWords; ++w)
      if ((base_[w][n] ^ c) & care_[w]) return false;
    return true;
  }

  /// n and g agree on every simulated care vector.
  bool may_merge(NodeId n, NodeId g) const {
    for (std::size_t w = 0; w < kFilterWords; ++w)
      if ((base_[w][n] ^ base_[w][g]) & care_[w]) return false;
    return true;
  }

 private:
  sim::LogicSim sim_;
  std::vector<sim::Frame> base_;  // per word: every node's value
  std::vector<sim::Frame> work_;  // scratch equal to base_ between calls
  std::array<std::uint64_t, kFilterWords> care_{};
};

}  // namespace

DontCareResult optimize_dontcare(Netlist& net,
                                 const std::vector<double>& toggles,
                                 const DontCareOptions& opt) {
  DontCareResult res;
  res.gates_before = net.num_gates();
  // The netlist grows (fresh constant nodes) while `toggles` stays at its
  // original size; nodes added during optimization carry zero activity.
  auto tog = [&toggles](NodeId id) {
    return id < toggles.size() ? toggles[id] : 0.0;
  };

  std::size_t exact_checks = 0, sim_pruned = 0, survivor_rejected = 0;
  bool changed = true;
  int rewrites = 0;
  try {
  while (changed && rewrites < opt.max_rewrites) {
    changed = false;
    auto bdds = bdd::build_bdds(net, opt.bdd_limit);
    auto& m = bdds.mgr;
    unsigned y = m.add_var();
    SimulatedCare sim_care(net);
    const std::vector<NodeId> points = bdd::observation_points(net);
    std::vector<NodeId> merge_targets;

    const auto& order = sim_care.order();
    for (NodeId n : order) {
      if (net.is_dead(n)) continue;
      const Node& nd = net.node(n);
      if (is_source(nd.type) || nd.type == GateType::Dff) continue;

      auto tfo = tfo_of(net, n);
      const auto roots = observed_roots(points, tfo);
      tfo[n] = false;
      sim_care.compute(n, tfo, roots);
      tfo[n] = true;

      // Prefilter: keep only the candidates no simulated care vector
      // refutes.  Merge targets are existing signals outside the TFO.
      const bool may_const0 = sim_care.may_be_const(n, false);
      const bool may_const1 = sim_care.may_be_const(n, true);
      merge_targets.clear();
      for (NodeId g = 0; g < net.size(); ++g) {
        if (g == n || net.is_dead(g) || tfo[g]) continue;
        if (net.node(g).type == GateType::Const0 ||
            net.node(g).type == GateType::Const1)
          continue;
        if (sim_care.may_merge(n, g)) merge_targets.push_back(g);
      }
      if (!may_const0 && !may_const1 && merge_targets.empty()) {
        ++sim_pruned;
        continue;
      }
      ++exact_checks;

      // Safe point: between candidates only the rooted global functions
      // are live, so shed the previous candidate's observability
      // scaffolding once it gets heavy instead of growing to bdd_limit.
      if (m.live_nodes() >= opt.bdd_limit / 2) m.gc();

      auto fn_y = with_fresh_var(bdds, net, order, n, y, tfo);

      // Care set: some root distinguishes y=0 from y=1.
      bdd::Ref odc = bdd::kTrue;
      for (NodeId root : roots) {
        bdd::Ref f = fn_y[root];
        bdd::Ref f0 = m.cofactor(f, y, false);
        bdd::Ref f1 = m.cofactor(f, y, true);
        odc = m.land(odc, m.lxnor(f0, f1));
      }

      bdd::Ref care = m.lnot(odc);
      bdd::Ref f_n = bdds.node_fn[n];
      bdd::Ref f_care = m.land(f_n, care);

      // The exact check decides every surviving candidate.
      NodeId replacement = kNoNode;
      if (may_const0 && f_care == bdd::kFalse) {
        replacement = net.add_const(false);
      } else if (may_const1 && m.land(m.lnot(f_n), care) == bdd::kFalse) {
        replacement = net.add_const(true);
      } else {
        double best_gain = opt.power_aware ? 1e-12 : -1e30;
        for (NodeId g : merge_targets) {
          if (m.land(bdds.node_fn[g], care) != f_care) {
            ++survivor_rejected;
            continue;
          }
          // Power gain: node n's activity disappears; g gains one fanout's
          // worth of load at g's activity.
          double gain = tog(n) - 0.5 * tog(g);
          if (!opt.power_aware) gain = 1.0;  // any admissible merge
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
        break;  // netlist changed: rebuild BDDs and the simulation
      }
    }
  }
  } catch (const bdd::NodeLimitExceeded&) {
    // Symbolic analysis outgrew the budget: keep whatever rewrites landed
    // before the blowup (each was applied atomically, so the netlist is
    // consistent and equivalent) — and say so.
    res.limited = true;
    core::metrics::count("logicopt.dontcare.limited");
  }
  core::metrics::count("logicopt.dontcare.exact_checks",
                       static_cast<double>(exact_checks));
  core::metrics::count("logicopt.dontcare.sim_pruned",
                       static_cast<double>(sim_pruned));
  core::metrics::count("logicopt.dontcare.sim_survivor_rejected",
                       static_cast<double>(survivor_rejected));
  res.gates_after = net.num_gates();
  return res;
}

}  // namespace lps::logicopt
