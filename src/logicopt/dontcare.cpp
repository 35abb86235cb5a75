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
  std::size_t relowered = 0;
  bool changed = true;
  int rewrites = 0;
  std::vector<NodeId> eligible, merge_targets;
  try {
  // Global BDDs built once, every live node's function rooted in `fn` for
  // the whole stage.  Auto-GC is off in build_bdds' manager: the care sets'
  // unrooted temporaries go at the safe point below.  `work` equals `fn`
  // between candidates; `at0` holds the roots under n := 0.
  auto bdds = bdd::build_bdds(net, opt.bdd_limit);
  auto& m = bdds.mgr;
  auto& fn = bdds.node_fn;
  std::vector<bdd::Ref> work = fn, at0;
  while (changed && rewrites < opt.max_rewrites) {
    changed = false;
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

      // Safe point: between candidates only the rooted node functions are
      // live, so shed earlier candidates' care-set scaffolding once it gets
      // heavy instead of growing to bdd_limit.
      if (m.live_nodes() >= opt.bdd_limit / 2) m.gc();

      // Care set: the Boolean difference of the roots with respect to n,
      // OR over roots r of f_r[n:=0] XOR f_r[n:=1].
      const auto tfo = sim_care.tfo_gates();
      const auto& roots = sim_care.roots();
      auto relower_tfo = [&](bdd::Ref value) {
        work[n] = value;
        for (NodeId id : tfo)
          work[id] = bdd::lower_gate(m, cnet.node(id), work);
      };
      relower_tfo(bdd::kFalse);
      at0.clear();
      for (NodeId r : roots) at0.push_back(work[r]);
      relower_tfo(bdd::kTrue);
      bdd::Ref care = bdd::kFalse;
      for (std::size_t i = 0; i < roots.size(); ++i)
        care = m.lor(care, m.lxor(at0[i], work[roots[i]]));
      work[n] = fn[n];
      for (NodeId id : tfo) work[id] = fn[id];

      const bdd::Ref f_n = fn[n];
      const bdd::Ref f_care = m.land(f_n, care);

      // The exact check decides every surviving candidate.
      NodeId replacement = kNoNode;
      if (may_const0 && f_care == bdd::kFalse) {
        replacement = net.add_const(false);
      } else if (may_const1 && m.land(m.lnot(f_n), care) == bdd::kFalse) {
        replacement = net.add_const(true);
      } else {
        double best_gain = opt.power_aware ? 1e-12 : -1e30;
        for (NodeId g : merge_targets) {
          if (m.land(fn[g], care) != f_care) {
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
        // Release the dead nodes' functions, give a fresh constant its
        // terminal and re-lower n's former fanout, the only changed ones.
        for (NodeId id = 0; id < fn.size(); ++id)
          if (cnet.is_dead(id)) {
            m.deref(fn[id]);
            fn[id] = bdd::kFalse;
          }
        for (auto id = static_cast<NodeId>(fn.size()); id < cnet.size(); ++id)
          fn.push_back(bdd::lower_gate(m, cnet.node(id), fn));
        for (NodeId id : tfo) {
          if (cnet.is_dead(id)) continue;
          const bdd::Ref f = m.ref(bdd::lower_gate(m, cnet.node(id), fn));
          m.deref(fn[id]);
          fn[id] = f;
          ++relowered;
        }
        work = fn;
        break;  // netlist changed: rescan on a fresh simulation
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
  core::metrics::count("logicopt.dontcare.relowered",
                       static_cast<double>(relowered));
  res.gates_after = net.num_gates();
  return res;
}

}  // namespace lps::logicopt
