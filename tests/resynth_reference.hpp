// resynth_reference.hpp — window resynthesis as it ran before truth-table
// tabulation, kept as the differential reference for
// logicopt::resynthesize_windows.
//
// The production pass tabulates each window in one bit-parallel pass,
// proves most boundary patterns reachable by random simulation, memoizes
// minimization per call and minimizes on truth tables.  This reference
// evaluates the window once per minterm, asks the global BDDs about every
// boundary pattern and runs the cube-list minimizer (minimize_reference.hpp)
// on every window.  Every step of the production pass is exact, so both
// must make the same rewrites: same structure, same counts, same caps.

#pragma once

#include <algorithm>
#include <atomic>
#include <exception>
#include <optional>
#include <set>

#include "bdd/bdd_netlist.hpp"
#include "core/metrics.hpp"
#include "logicopt/resynth.hpp"
#include "logicopt/speculate.hpp"
#include "minimize_reference.hpp"
#include "power/incremental.hpp"
#include "sop/factoring.hpp"

namespace lps::reference {

namespace resynth_detail {

using namespace lps::logicopt;

// Stimulus for the re-scoring analyzer: 4096 vectors = 64 words of 64
// patterns, the frames the stage's measure_activity(net, 64, seed) draws.
inline constexpr std::size_t kRescoreVectors = 4096;

// Two-level fanin window around `n`: interior = {n} ∪ gate fanins that are
// themselves logic gates; boundary = everything feeding the interior from
// outside.  Returns false if the boundary exceeds the budget even after
// retrying with the one-level window; `capped` is set in that case so the
// caller can surface the truncation (it is a tuning signal, not a defect).
inline bool build_window(const Netlist& net, NodeId n, int max_inputs,
                  std::vector<NodeId>& interior,
                  std::vector<NodeId>& boundary, bool* capped = nullptr) {
  interior.clear();
  boundary.clear();
  std::set<NodeId> in_set{n};
  for (NodeId f : net.node(n).fanins) {
    const Node& fd = net.node(f);
    if (!is_source(fd.type) && fd.type != GateType::Dff &&
        fd.fanins.size() <= 4)
      in_set.insert(f);
  }
  std::set<NodeId> bset;
  for (NodeId m : in_set)
    for (NodeId f : net.node(m).fanins)
      if (!in_set.count(f)) bset.insert(f);
  if (static_cast<int>(bset.size()) > max_inputs) {
    // Retry with the one-level window (just the node itself).
    in_set = {n};
    bset.clear();
    for (NodeId f : net.node(n).fanins) bset.insert(f);
    if (static_cast<int>(bset.size()) > max_inputs) {
      if (capped) *capped = true;
      return false;
    }
  }
  interior.assign(in_set.begin(), in_set.end());
  boundary.assign(bset.begin(), bset.end());
  return true;
}

// Evaluate node `n` for one boundary assignment (scalar window simulation
// over `window_order`, the interior nodes in topological order).
inline bool eval_window(const Netlist& net, NodeId n,
                 const std::vector<NodeId>& window_order,
                 const std::vector<NodeId>& boundary, unsigned minterm) {
  std::vector<std::uint64_t> value(net.size(), 0);
  for (std::size_t i = 0; i < boundary.size(); ++i)
    value[boundary[i]] = (minterm >> i & 1) ? ~0ULL : 0ULL;
  for (NodeId id : window_order) {
    const Node& nd = net.node(id);
    std::vector<std::uint64_t> w;
    for (NodeId f : nd.fanins) w.push_back(value[f]);
    value[id] = eval_gate(nd.type, w);
  }
  return (value[n] & 1ULL) != 0;
}

// Gate cost of realizing a factored expression: one literal per AND/OR
// input plus one single-input gate per negated literal.
inline int expr_cost(const sop::Expr& e) {
  switch (e.kind) {
    case sop::Expr::Kind::Const0:
    case sop::Expr::Kind::Const1:
      return 0;
    case sop::Expr::Kind::Lit:
      return e.negated ? 2 : 1;
    default: {
      int c = 0;
      for (const auto& k : e.kids) c += expr_cost(k);
      return c;
    }
  }
}

// Everything the per-candidate examination computes before any mutation —
// the unit the speculation workers evaluate against a batch snapshot.  A
// plan transplants to the live netlist as long as nothing an earlier keep
// touched (structurally or through its dirty activity cone) intersects the
// plan's read set.
struct WindowPlan {
  enum class Status { Dead, Capped, NoBdds, Examined };
  Status status = Status::Dead;
  bool rewrite = false;  // expr beat the window's literal cost
  sop::Expr expr;
  std::vector<NodeId> boundary;
  /// 2-level structural closure of the candidate plus its fanout context;
  /// also the activity read set (boundary ⊆ closure).
  std::vector<NodeId> reads;
  std::exception_ptr error;  // examination failed; re-raised serially
};

}  // namespace resynth_detail

inline logicopt::ResynthResult resynthesize_windows(
    Netlist& net, const std::vector<double>& toggles,
    const logicopt::ResynthOptions& opt) {
  using namespace resynth_detail;
  logicopt::ResynthResult res;
  res.gates_before = net.num_gates();
  const int workers = speculate::resolve_workers(opt.workers);
  res.workers_used = workers;

  // The cost oracle.  A power-aware pass owns a cone-scoped incremental
  // analyzer and refreshes it after every kept rewrite, so each window is
  // weighted by the switching of the circuit as it *currently* stands.  The
  // caller's activity vector is only the fallback for an analyzer that
  // fails: it describes the pre-pass circuit, and scores nodes created by
  // earlier kept rewrites as toggle-free.
  std::optional<power::IncrementalAnalyzer> inc;
  if (opt.power_aware) {
    try {
      power::AnalysisOptions ao;
      ao.mode = power::ActivityMode::ZeroDelay;
      ao.n_vectors = kRescoreVectors;
      ao.seed = opt.rescore_seed;
      inc.emplace(net, ao);
    } catch (const std::exception&) {
      core::metrics::count("logicopt.resynth.rescore_dropped");
    }
  }
  auto tog = [&](NodeId id) -> double {
    const std::vector<double>& t =
        inc ? inc->analysis().toggles_per_cycle : toggles;
    return id < t.size() ? t[id] : 0.0;
  };

  // Cap reporting shared by every exit path (satellite of the silent-cap
  // fix: truncation always leaves a result field, a metric and a note).
  auto finalize = [&res, &opt](std::size_t gates_after) -> ResynthResult& {
    if (res.rewrites_capped)
      core::metrics::count("logicopt.resynth.rewrites_capped");
    res.gates_after = gates_after;
    if (res.windows_capped > 0 || res.rewrites_capped) {
      res.note = "resynth caps hit:";
      if (res.windows_capped > 0)
        res.note += " " + std::to_string(res.windows_capped) +
                    " window(s) over max_window_inputs=" +
                    std::to_string(opt.max_window_inputs);
      if (res.rewrites_capped)
        res.note += std::string(res.windows_capped > 0 ? ";" : "") +
                    " max_rewrites=" + std::to_string(opt.max_rewrites) +
                    " budget exhausted";
    }
    if (res.limited)
      res.note += std::string(res.note.empty() ? "" : "; ") +
                  "BDD node limit hit";
    return res;
  };

  // Pure examination of one candidate: window extraction, local-function
  // tabulation against `bdds`' reachability don't-cares, minimization and
  // factoring.  Reads the netlist and the activity oracle, mutates only the
  // given BDD manager (canonical results — manager state never affects the
  // functions it returns, so per-worker managers built from the same round
  // snapshot agree with the main one).
  auto examine = [&](NodeId n, bdd::NetlistBdds& bdds) -> WindowPlan {
    WindowPlan plan;
    const NodeId seeds[1] = {n};
    plan.reads = speculate::read_closure(net, seeds, 2);
    if (net.is_dead(n)) return plan;  // consumed by an earlier rewrite
    std::vector<NodeId> interior;
    bool win_capped = false;
    if (!build_window(net, n, opt.max_window_inputs, interior, plan.boundary,
                      &win_capped)) {
      plan.status =
          win_capped ? WindowPlan::Status::Capped : WindowPlan::Status::NoBdds;
      return plan;
    }
    // Rewrites may have created nodes without BDDs; skip such windows.
    for (NodeId b : plan.boundary)
      if (b >= bdds.node_fn.size()) {
        plan.status = WindowPlan::Status::NoBdds;
        return plan;
      }
    plan.status = WindowPlan::Status::Examined;

    auto& m = bdds.mgr;
    // Safe point: between windows only the rooted global functions are
    // live; shed accumulated reachability scaffolding before it can hit
    // the budget.
    if (m.live_nodes() >= opt.bdd_limit / 2) m.gc();
    unsigned k = static_cast<unsigned>(plan.boundary.size());
    sop::Sop onset(k), dcset(k);
    // Replacement-cost baseline: the node's own literals plus those of
    // interior helpers that exist only for this node (single fanout).
    int window_lits = static_cast<int>(net.node(n).fanins.size());
    for (NodeId w : interior) {
      if (w == n) continue;
      if (net.node(w).fanouts.size() == 1)
        window_lits += static_cast<int>(net.node(w).fanins.size());
    }
    // Interior nodes in dependency order for the window simulator.
    std::vector<NodeId> window_order;
    {
      std::set<NodeId> in_set(interior.begin(), interior.end());
      for (NodeId id : net.topo_order())
        if (in_set.count(id)) window_order.push_back(id);
    }

    for (unsigned minterm = 0; minterm < (1u << k); ++minterm) {
      sop::Cube c(k);
      for (unsigned i = 0; i < k; ++i) {
        if (minterm >> i & 1)
          c.set_pos(i);
        else
          c.set_neg(i);
      }
      // Controllability DC: can any PI assignment realize this boundary
      // pattern?  Conjunction of (boundary fn XNOR bit).
      bdd::Ref reach = bdd::kTrue;
      for (unsigned i = 0; i < k && reach != bdd::kFalse; ++i) {
        bdd::Ref f = bdds.node_fn[plan.boundary[i]];
        reach = m.land(reach, (minterm >> i & 1) ? f : m.lnot(f));
      }
      if (reach == bdd::kFalse) {
        dcset.add_cube(c);
        continue;
      }
      if (eval_window(net, n, window_order, plan.boundary, minterm))
        onset.add_cube(c);
    }

    auto cover = reference::minimize(onset, dcset);
    if (opt.power_aware) {
      std::vector<double> w(k);
      for (unsigned i = 0; i < k; ++i) w[i] = 0.05 + tog(plan.boundary[i]);
      plan.expr = sop::factor_weighted(cover, w);
    } else {
      plan.expr = sop::factor(cover);
    }
    // Keep only if strictly cheaper than the window it replaces (negated
    // literals cost an inverter each, so count them).
    plan.rewrite = expr_cost(plan.expr) < window_lits;
    return plan;
  };

  // Rewrites create nodes the current BDDs don't cover, so run rounds to a
  // fixpoint, rebuilding the symbolic view between rounds.
  bool round_changed = true;
  int rounds = 0;
  while (round_changed && rounds++ < 4 &&
         res.nodes_rewritten < opt.max_rewrites) {
    round_changed = false;
    bdd::NetlistBdds bdds;
    try {
      bdds = bdd::build_bdds(net, opt.bdd_limit);
    } catch (const bdd::NodeLimitExceeded&) {
      // Circuit too wide for exact DCs: keep the rewrites made so far.
      res.limited = true;
      core::metrics::count("logicopt.resynth.limited");
      return finalize(net.num_gates());
    }

    // Candidate list fixed per round; rewrites only add nodes.
    std::vector<NodeId> candidates;
    for (NodeId n = 0; n < net.size(); ++n) {
      if (net.is_dead(n)) continue;
      const Node& nd = net.node(n);
      if (is_source(nd.type) || nd.type == GateType::Dff) continue;
      candidates.push_back(n);
    }

    // Account for one examined plan and apply it when it rewrites — the
    // tail of the sequential per-candidate body, shared verbatim between
    // the sequential loop and the speculative commit loop.  `dirty`
    // receives the keep's touched ids ∪ activity footprint (for the
    // conflict set) when journaling is on.
    auto commit_plan = [&](NodeId n, const WindowPlan& plan,
                           std::vector<NodeId>* dirty) -> void {
      switch (plan.status) {
        case WindowPlan::Status::Dead:
          return;
        case WindowPlan::Status::Capped:
          ++res.windows_capped;
          core::metrics::count("logicopt.resynth.capped");
          return;
        case WindowPlan::Status::NoBdds:
          return;
        case WindowPlan::Status::Examined:
          break;
      }
      ++res.windows_examined;
      if (!plan.rewrite) return;

      // Journal the mutation when re-scoring or speculating: the touched
      // set scopes the activity refresh and the conflict footprint (nests
      // correctly inside a flow stage's epoch).
      bool journal = inc.has_value() || workers > 1;
      if (journal) net.begin_undo();
      NodeId rebuilt = sop::build_expr(net, plan.expr, plan.boundary);
      if (rebuilt == n) {
        if (journal) net.rollback_undo();  // discard half-built helpers
        return;
      }
      // build_expr may return a boundary node itself (constant/wire case);
      // otherwise it is freshly constructed logic.
      net.substitute(n, rebuilt);
      net.sweep();
      if (journal) {
        auto touched = net.touched_nodes();
        if (dirty) {
          *dirty = speculate::dirty_footprint(net, touched);
          dirty->insert(dirty->end(), touched.ids.begin(), touched.ids.end());
        }
        if (inc) {
          try {
            inc->reanalyze(touched);
            ++res.rescored;
          } catch (const std::exception&) {
            // Estimator defect: the rewrite itself is already legal and
            // kept; later windows fall back to the (stale) caller vector.
            inc.reset();
            core::metrics::count("logicopt.resynth.rescore_dropped");
          }
        }
        net.commit_undo();
      }
      ++res.nodes_rewritten;
      round_changed = true;
    };

    // Speculative rounds: per-worker BDD views built once from the
    // round-start netlist (kept rewrites preserve every node's global
    // function — they only use boundary patterns no PI assignment reaches —
    // so the views stay valid across the whole round).  With one worker,
    // or when a view does not build, the round runs sequentially —
    // identical results, just no overlap.
    int team = std::min<int>(workers, static_cast<int>(candidates.size()));
    std::vector<std::optional<bdd::NetlistBdds>> wbdds(
        static_cast<std::size_t>(std::max(team, 1)));
    bool spec_ok = team > 1;
    if (spec_ok) {
      std::atomic<bool> build_failed{false};
      speculate::run_workers(team, [&](int w) {
        try {
          wbdds[static_cast<std::size_t>(w)].emplace(
              bdd::build_bdds(net, opt.bdd_limit));
        } catch (...) {
          build_failed.store(true, std::memory_order_relaxed);
        }
      });
      spec_ok = !build_failed.load(std::memory_order_relaxed);
    }
    if (!spec_ok) {
      for (NodeId n : candidates) {
        if (res.nodes_rewritten >= opt.max_rewrites) {
          // Budget exhausted with windows still unexamined — never silent.
          res.rewrites_capped = true;
          break;
        }
        commit_plan(n, examine(n, bdds), nullptr);
      }
      continue;
    }

    const std::size_t batch_size = 8 * static_cast<std::size_t>(team);
    bool budget_stop = false;
    // Plans go stale once the activity oracle dies mid-batch (later plans
    // were weighted through it): force the batch remainder serial.
    for (std::size_t start = 0; start < candidates.size() && !budget_stop;
         start += batch_size) {
      std::size_t nb = std::min(batch_size, candidates.size() - start);
      std::vector<WindowPlan> plans(nb);
      std::atomic<std::size_t> next{0};
      speculate::run_workers(team, [&](int w) {
        bdd::NetlistBdds& view = *wbdds[static_cast<std::size_t>(w)];
        for (;;) {
          std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= nb) break;
          try {
            plans[i] = examine(candidates[start + i], view);
          } catch (...) {
            plans[i].error = std::current_exception();
          }
        }
      });
      ++res.spec_batches;
      core::metrics::count("logicopt.spec.batches");
      core::metrics::count("logicopt.spec.speculated",
                           static_cast<double>(nb));

      speculate::ConflictSet committed(net.size());
      bool inc_alive_at_batch = inc.has_value();
      for (std::size_t i = 0; i < nb; ++i) {
        if (res.nodes_rewritten >= opt.max_rewrites) {
          res.rewrites_capped = true;
          budget_stop = true;
          break;
        }
        NodeId n = candidates[start + i];
        WindowPlan& plan = plans[i];
        // A cancellation raised on a worker must abort the run (at this
        // window's sequential position), not be re-examined serially.
        speculate::rethrow_if_cancelled(plan.error);
        bool conflict = plan.error != nullptr ||
                        (inc_alive_at_batch && !inc.has_value()) ||
                        committed.hits(plan.reads);
        if (conflict) {
          ++res.spec_conflicts;
          core::metrics::count("logicopt.spec.conflicts");
          ++res.spec_rescored;
          core::metrics::count("logicopt.spec.rescored");
          std::vector<NodeId> dirty;
          commit_plan(n, examine(n, bdds), &dirty);
          committed.add(dirty);
          continue;
        }
        std::vector<NodeId> dirty;
        commit_plan(n, plan, &dirty);
        committed.add(dirty);
      }
    }
  }  // rounds
  if (res.nodes_rewritten >= opt.max_rewrites && round_changed)
    res.rewrites_capped = true;
  return finalize(net.num_gates());
}

}  // namespace lps::reference
