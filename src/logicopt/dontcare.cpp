#include "logicopt/dontcare.hpp"

#include <algorithm>
#include <array>
#include <span>

#include "bdd/bdd_netlist.hpp"
#include "core/aligned.hpp"
#include "core/metrics.hpp"
#include "sim/compiled.hpp"

namespace lps::logicopt {

namespace {

// Random vectors per scan behind the simulated care masks (8 words).
constexpr std::size_t kFilterVectors = 512;
constexpr std::size_t kFilterWords = kFilterVectors / 64;
constexpr std::uint64_t kFilterSeed = 0xD0C0FFEEull;

// Rebuild functions of n's transitive fanout with node n replaced by var y;
// returns the function of every node under that substitution.  `tfo` is
// n's TFO without n, in topological order; it stops at registers, so it
// holds only logic gates.  Auto-GC is off in build_bdds' manager, so
// nothing here is rooted.
std::vector<bdd::Ref> with_fresh_var(bdd::NetlistBdds& b, const Netlist& net,
                                     NodeId n, unsigned y,
                                     std::span<const NodeId> tfo) {
  std::vector<bdd::Ref> fn = b.node_fn;
  fn[n] = b.mgr.var(y);
  for (NodeId id : tfo) fn[id] = bdd::lower_gate(b.mgr, net.node(id), fn);
  return fn;
}

// Simulated care sets over one fixed batch of random vectors.  PIs and Dff
// outputs are drawn freely, as they are free variables of the global BDDs,
// so every simulated vector is a point of the exact care set's domain: a
// vector on which complementing n changes a root lies in n's exact care
// set.  Hence a rewrite the BDD admits (the replacement agrees with n on
// the whole care set) also agrees on every simulated care vector — a
// disagreement refutes a candidate without any BDD work.  The batch is
// sim::free_source_batch: kFilterWords words per node (node-major).
class SimulatedCare {
 public:
  explicit SimulatedCare(const Netlist& net)
      : net_(net), sim_(net), points_(bdd::observation_points(net)),
        base_(sim::free_source_batch(sim_, kFilterWords, kFilterSeed)),
        in_tfo_(net.size(), 0) {
    work_.assign(base_.size(), 0);
    std::copy(base_.begin(), base_.end(), work_.begin());
  }

  /// The scan order: the tape's gates in topological order.
  const std::vector<NodeId>& order() const { return sim_.order(); }
  /// The last computed node's TFO (registers cut), itself included.
  bool in_tfo(NodeId g) const { return in_tfo_[g] != 0; }
  /// That TFO without the node, in topological order.
  std::span<const NodeId> tfo_gates() const { return gates_; }
  /// The observation points inside that TFO.
  const std::vector<NodeId>& roots() const { return roots_; }

  /// Care mask of n = order()[pos]: complement n's words, replay its TFO
  /// and mark the vectors on which any root differs.
  void compute(std::size_t pos) {
    const NodeId n = order()[pos];
    for (NodeId x : tfo_) in_tfo_[x] = 0;
    tfo_.assign(1, n);
    in_tfo_[n] = 1;
    for (std::size_t i = 0; i < tfo_.size(); ++i)
      for (NodeId fo : net_.node(tfo_[i]).fanouts)
        if (!in_tfo_[fo] && net_.node(fo).type != GateType::Dff) {
          in_tfo_[fo] = 1;
          tfo_.push_back(fo);
        }
    // The rest of the TFO follows n in topological order.
    gates_.clear();
    for (std::size_t i = pos + 1;
         i < order().size() && gates_.size() + 1 < tfo_.size(); ++i)
      if (in_tfo_[order()[i]]) gates_.push_back(order()[i]);
    roots_.clear();
    for (NodeId p : points_)
      if (in_tfo_[p]) roots_.push_back(p);

    const std::uint64_t* b = base_.data();
    std::uint64_t* f = work_.data();
    for (std::size_t w = 0; w < kFilterWords; ++w) f[at(n) + w] = ~b[at(n) + w];
    sim_.exec_gates(f, kFilterWords, gates_);
    care_.fill(0);
    for (NodeId r : roots_)
      for (std::size_t w = 0; w < kFilterWords; ++w)
        care_[w] |= f[at(r) + w] ^ b[at(r) + w];
    std::copy_n(b + at(n), kFilterWords, f + at(n));
    for (NodeId id : gates_) std::copy_n(b + at(id), kFilterWords, f + at(id));
  }

  /// The last computed care mask.
  const std::array<std::uint64_t, kFilterWords>& care() const { return care_; }

  /// n equals the constant `value` on every simulated care vector.
  bool may_be_const(NodeId n, bool value) const {
    const std::uint64_t c = value ? ~0ULL : 0ULL;
    for (std::size_t w = 0; w < kFilterWords; ++w)
      if ((base_[at(n) + w] ^ c) & care_[w]) return false;
    return true;
  }

  /// n and g agree on every simulated care vector.
  bool may_merge(NodeId n, NodeId g) const {
    for (std::size_t w = 0; w < kFilterWords; ++w)
      if ((base_[at(n) + w] ^ base_[at(g) + w]) & care_[w]) return false;
    return true;
  }

 private:
  static std::size_t at(NodeId id) { return id * kFilterWords; }

  const Netlist& net_;
  sim::CompiledSim sim_;
  std::vector<NodeId> points_;  // observation points (bdd_netlist.hpp)
  core::AlignedWords base_;     // node-major: every node's words
  core::AlignedWords work_;     // scratch equal to base_ between calls
  std::vector<std::uint8_t> in_tfo_;  // cleared through tfo_
  std::vector<NodeId> tfo_, gates_, roots_;
  std::array<std::uint64_t, kFilterWords> care_{};
};

}  // namespace

namespace detail {

std::vector<std::uint64_t> simulated_care_masks(const Netlist& net) {
  std::vector<std::uint64_t> masks(net.size() * kFilterWords, 0);
  SimulatedCare sc(net);
  for (std::size_t pos = 0; pos < sc.order().size(); ++pos) {
    if (is_source(net.node(sc.order()[pos]).type)) continue;
    sc.compute(pos);
    std::copy(sc.care().begin(), sc.care().end(),
              masks.begin() + sc.order()[pos] * kFilterWords);
  }
  return masks;
}

}  // namespace detail

DontCareResult optimize_dontcare(Netlist& net,
                                 const std::vector<double>& toggles,
                                 const DontCareOptions& opt) {
  DontCareResult res;
  res.gates_before = net.num_gates();
  // Reads go through a const view: inside an undo epoch the mutable
  // node() would journal a pre-image of every node the scan looks at.
  const Netlist& cnet = net;
  // The netlist grows (fresh constant nodes) while `toggles` stays at its
  // original size; nodes added during optimization carry zero activity.
  auto tog = [&toggles](NodeId id) {
    return id < toggles.size() ? toggles[id] : 0.0;
  };

  std::size_t exact_checks = 0, sim_pruned = 0, survivor_rejected = 0;
  bool changed = true;
  int rewrites = 0;
  std::vector<NodeId> eligible, merge_targets;
  try {
  while (changed && rewrites < opt.max_rewrites) {
    changed = false;
    auto bdds = bdd::build_bdds(net, opt.bdd_limit);
    auto& m = bdds.mgr;
    unsigned y = m.add_var();
    SimulatedCare sim_care(net);
    // Merge targets are existing signals: live, not constant, outside
    // the TFO of the node they replace.
    eligible.clear();
    for (NodeId g = 0; g < cnet.size(); ++g)
      if (!cnet.is_dead(g) && cnet.node(g).type != GateType::Const0 &&
          cnet.node(g).type != GateType::Const1)
        eligible.push_back(g);

    const auto& order = sim_care.order();
    for (std::size_t pos = 0; pos < order.size(); ++pos) {
      const NodeId n = order[pos];
      if (is_source(cnet.node(n).type)) continue;
      sim_care.compute(pos);

      // Prefilter: keep only the candidates no simulated care vector
      // refutes.
      const bool may_const0 = sim_care.may_be_const(n, false);
      const bool may_const1 = sim_care.may_be_const(n, true);
      merge_targets.clear();
      for (NodeId g : eligible)
        if (!sim_care.in_tfo(g) && sim_care.may_merge(n, g))
          merge_targets.push_back(g);
      if (!may_const0 && !may_const1 && merge_targets.empty()) {
        ++sim_pruned;
        continue;
      }
      ++exact_checks;

      // Safe point: between candidates only the rooted global functions
      // are live, so shed the previous candidate's observability
      // scaffolding once it gets heavy instead of growing to bdd_limit.
      if (m.live_nodes() >= opt.bdd_limit / 2) m.gc();

      auto fn_y = with_fresh_var(bdds, cnet, n, y, sim_care.tfo_gates());

      // Care set: some root distinguishes y=0 from y=1.
      bdd::Ref odc = bdd::kTrue;
      for (NodeId root : sim_care.roots()) {
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
        if (cnet.node(replacement).type == GateType::Const0 ||
            cnet.node(replacement).type == GateType::Const1)
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
