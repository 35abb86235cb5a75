#include "logicopt/resynth.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <map>
#include <mutex>
#include <optional>

#include "bdd/bdd_netlist.hpp"
#include "core/metrics.hpp"
#include "logicopt/speculate.hpp"
#include "power/incremental.hpp"
#include "sim/compiled.hpp"
#include "sop/factoring.hpp"
#include "sop/minimize.hpp"
#include "sop/truth_table.hpp"

namespace lps::logicopt {

namespace {

using sop::TruthTable;

// Stimulus for the re-scoring analyzer: 4096 vectors = 64 words of 64
// patterns, the frames the stage's measure_activity(net, 64, seed) draws.
constexpr std::size_t kRescoreVectors = 4096;

// Random vectors per round behind the simulated reachability check.
constexpr std::size_t kReachWords = 8;
constexpr std::uint64_t kReachSeed = 0x5EED0F5EEDull;

// Per-thread scratch of the window examination, reused across candidates.
struct Scratch {
  std::vector<NodeId> interior;
  std::vector<NodeId> pending;  // interior nodes not yet tabulated
  std::vector<std::pair<NodeId, TruthTable>> values;  // window signals
  std::vector<const TruthTable*> fanin_tts;
  std::vector<std::uint64_t> fanin_words;
};

// Two-level fanin window around `n`: interior = {n} ∪ gate fanins that are
// themselves logic gates; boundary = everything feeding the interior from
// outside, in ascending id order.  Returns false if the boundary exceeds
// the budget even after retrying with the one-level window; `capped` is
// set in that case so the caller can surface the truncation (it is a
// tuning signal, not a defect).
bool build_window(const Netlist& net, NodeId n, int max_inputs,
                  std::vector<NodeId>& interior,
                  std::vector<NodeId>& boundary, bool* capped) {
  auto inside = [&interior](NodeId id) {
    return std::find(interior.begin(), interior.end(), id) != interior.end();
  };
  auto collect_boundary = [&] {
    boundary.clear();
    for (NodeId m : interior)
      for (NodeId f : net.node(m).fanins)
        if (!inside(f)) boundary.push_back(f);
    std::sort(boundary.begin(), boundary.end());
    boundary.erase(std::unique(boundary.begin(), boundary.end()),
                   boundary.end());
  };
  interior.assign(1, n);
  for (NodeId f : net.node(n).fanins) {
    const Node& fd = net.node(f);
    if (!is_source(fd.type) && fd.type != GateType::Dff &&
        fd.fanins.size() <= 4 && !inside(f))
      interior.push_back(f);
  }
  collect_boundary();
  if (static_cast<int>(boundary.size()) > max_inputs) {
    // Retry with the one-level window (just the node itself).
    interior.assign(1, n);
    collect_boundary();
    if (static_cast<int>(boundary.size()) > max_inputs) {
      *capped = true;
      return false;
    }
  }
  return true;
}

// n's local function over the boundary minterms, in one bit-parallel pass:
// boundary input i carries the projection of variable i, and the interior
// nodes are evaluated in a local topological order (every other interior
// node is a fanin of n, so n comes last).
TruthTable tabulate_window(const Netlist& net, NodeId n,
                           const std::vector<NodeId>& boundary, Scratch& s) {
  s.values.clear();
  for (std::size_t i = 0; i < boundary.size(); ++i)
    s.values.emplace_back(boundary[i],
                          TruthTable::var(static_cast<unsigned>(i)));
  auto value_of = [&s](NodeId id) -> const TruthTable* {
    for (const auto& [v, tt] : s.values)
      if (v == id) return &tt;
    return nullptr;
  };
  // Interior nodes are evaluated once all their fanins carry a value.
  std::vector<NodeId>& pending = s.pending;
  pending = s.interior;
  while (!pending.empty()) {
    for (std::size_t p = 0; p < pending.size();) {
      const Node& nd = net.node(pending[p]);
      s.fanin_tts.clear();
      for (NodeId f : nd.fanins) {
        const TruthTable* t = value_of(f);
        if (!t) break;
        s.fanin_tts.push_back(t);
      }
      if (s.fanin_tts.size() < nd.fanins.size()) {
        ++p;
        continue;
      }
      TruthTable out;
      s.fanin_words.resize(nd.fanins.size());
      for (unsigned w = 0; w < 4; ++w) {
        for (std::size_t i = 0; i < s.fanin_tts.size(); ++i)
          s.fanin_words[i] = s.fanin_tts[i]->w[w];
        out.w[w] = eval_gate(nd.type, s.fanin_words);
      }
      s.values.emplace_back(pending[p], out);
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(p));
    }
  }
  return *value_of(n);
}

// Gate cost of realizing a factored expression: one literal per AND/OR
// input plus one single-input gate per negated literal.
int expr_cost(const sop::Expr& e) {
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

// Per-call memo of sop::minimize over window functions: the windows of one
// circuit repeat a few dozen (k, onset, don't-care) tables many times.  It
// lives inside one resynthesize_windows call; speculation workers share it
// under a lock.  minimize is deterministic, so whichever thread fills an
// entry stores the same cover.
class MinimizeMemo {
 public:
  const sop::Sop& cover(unsigned k, const TruthTable& onset,
                        const TruthTable& dc, bool* hit) {
    const Key key{k, onset, dc};
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (auto it = covers_.find(key); it != covers_.end()) {
        *hit = true;
        return it->second;
      }
    }
    *hit = false;
    sop::Sop on(k), dcset(k);
    for (unsigned m = 0; m < (1u << k); ++m) {
      if (!dc.bit(m) && !onset.bit(m)) continue;
      sop::Cube c(k);
      for (unsigned i = 0; i < k; ++i) {
        if (m >> i & 1)
          c.set_pos(i);
        else
          c.set_neg(i);
      }
      (dc.bit(m) ? dcset : on).add_cube(std::move(c));
    }
    sop::Sop cov = sop::minimize(on, dcset);
    std::lock_guard<std::mutex> lock(mu_);
    // Node-based map: the returned reference survives later inserts.
    return covers_.try_emplace(key, std::move(cov)).first->second;
  }

 private:
  struct Key {
    unsigned k;
    TruthTable onset, dc;
    auto operator<=>(const Key&) const = default;
  };
  std::mutex mu_;
  std::map<Key, sop::Sop> covers_;
};

// Boundary patterns seen in one batch of random vectors over the round-start
// netlist.  PIs and Dff outputs are drawn freely, as they are the variables
// of the global BDDs, so every simulated pattern is reachable by
// construction and only unseen patterns need the exact BDD check.  Kept
// rewrites preserve every round-start node's global function, so the batch
// stays valid for the whole round.
class SimulatedReach {
 public:
  explicit SimulatedReach(const Netlist& net)
      : words_(sim::free_source_batch(sim::CompiledSim(net), kReachWords,
                                      kReachSeed)) {}

  /// The patterns of `boundary` (variable i = boundary[i]) the batch hits.
  TruthTable seen(const std::vector<NodeId>& boundary) const {
    const std::size_t k = boundary.size();
    const unsigned patterns = 1u << k;
    TruthTable t;
    unsigned hit = 0;
    std::uint64_t v[TruthTable::kVars];
    for (std::size_t w = 0; w < kReachWords && hit < patterns; ++w) {
      for (std::size_t i = 0; i < k; ++i)
        v[i] = words_[boundary[i] * kReachWords + w];
      for (unsigned j = 0; j < 64; ++j) {
        unsigned m = 0;
        for (std::size_t i = 0; i < k; ++i)
          m |= static_cast<unsigned>(v[i] >> j & 1) << i;
        if (!t.bit(m)) {
          t.set(m);
          ++hit;
        }
      }
    }
    return t;
  }

 private:
  core::AlignedWords words_;  // node-major: kReachWords per node
};

}  // namespace

ResynthResult resynthesize_windows(Netlist& net,
                                   const std::vector<double>& toggles,
                                   const ResynthOptions& opt) {
  ResynthResult res;
  res.gates_before = net.num_gates();
  // Reads go through a const view: inside an undo epoch the mutable
  // node() would journal a pre-image of every node examined.
  const Netlist& cnet = net;
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

  // Per-call accounting, emitted with the cap reporting on every exit path
  // (satellite of the silent-cap fix: truncation always leaves a result
  // field, a metric and a note).
  std::atomic<std::size_t> n_minimize{0}, n_memo_hits{0}, n_sim_reached{0},
      n_exact_checks{0};
  auto finalize = [&](std::size_t gates_after) -> ResynthResult& {
    core::metrics::count("logicopt.resynth.minimize_calls",
                         static_cast<double>(n_minimize.load()));
    core::metrics::count("logicopt.resynth.memo_hits",
                         static_cast<double>(n_memo_hits.load()));
    core::metrics::count("logicopt.resynth.sim_reached",
                         static_cast<double>(n_sim_reached.load()));
    core::metrics::count("logicopt.resynth.exact_checks",
                         static_cast<double>(n_exact_checks.load()));
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

  MinimizeMemo memo;
  Scratch scratch;  // the calling thread's
  const int max_inputs =
      std::min(opt.max_window_inputs, static_cast<int>(TruthTable::kVars));

  // Pure examination of one candidate: window extraction, local-function
  // tabulation against the reachability don't-cares, minimization and
  // factoring.  A boundary pattern seen in the round's simulated batch is
  // reachable; only unseen ones ask `bdds`.  Reads the netlist and the
  // activity oracle, mutates only the given BDD manager (canonical results
  // — manager state never affects the functions it returns, so per-worker
  // managers built from the same round snapshot agree with the main one)
  // and the thread's scratch.  `speculative` plans record their read set.
  auto examine = [&](NodeId n, bdd::NetlistBdds& bdds,
                     const SimulatedReach& reach_sim, Scratch& scratch,
                     bool speculative) -> WindowPlan {
    WindowPlan plan;
    if (speculative) {
      const NodeId seeds[1] = {n};
      plan.reads = speculate::read_closure(net, seeds, 2);
    }
    if (net.is_dead(n)) return plan;  // consumed by an earlier rewrite
    bool win_capped = false;
    if (!build_window(net, n, max_inputs, scratch.interior, plan.boundary,
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
    const unsigned k = static_cast<unsigned>(plan.boundary.size());
    // Replacement-cost baseline: the node's own literals plus those of
    // interior helpers that exist only for this node (single fanout).
    int window_lits = static_cast<int>(cnet.node(n).fanins.size());
    for (NodeId w : scratch.interior) {
      if (w == n) continue;
      if (cnet.node(w).fanouts.size() == 1)
        window_lits += static_cast<int>(cnet.node(w).fanins.size());
    }

    // Controllability DC: boundary patterns no PI assignment realizes.
    // Simulated patterns are realized by construction; the rest are
    // decided by the conjunction of (boundary fn XNOR bit).
    const TruthTable seen = reach_sim.seen(plan.boundary);
    const TruthTable fn = tabulate_window(net, n, plan.boundary, scratch);
    TruthTable onset, dc;
    std::size_t reached = 0, checked = 0;
    for (unsigned minterm = 0; minterm < (1u << k); ++minterm) {
      if (!seen.bit(minterm)) {
        ++checked;
        bdd::Ref reach = bdd::kTrue;
        for (unsigned i = 0; i < k && reach != bdd::kFalse; ++i) {
          bdd::Ref f = bdds.node_fn[plan.boundary[i]];
          reach = m.land(reach, (minterm >> i & 1) ? f : m.lnot(f));
        }
        if (reach == bdd::kFalse) {
          dc.set(minterm);
          continue;
        }
      } else {
        ++reached;
      }
      if (fn.bit(minterm)) onset.set(minterm);
    }
    n_sim_reached += reached;
    n_exact_checks += checked;
    ++n_minimize;

    bool hit = false;
    const sop::Sop& cover = memo.cover(k, onset, dc, &hit);
    if (hit) ++n_memo_hits;
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
    const SimulatedReach reach_sim(net);

    // Candidate list fixed per round; rewrites only add nodes.
    std::vector<NodeId> candidates;
    for (NodeId n = 0; n < net.size(); ++n) {
      if (net.is_dead(n)) continue;
      const Node& nd = cnet.node(n);
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
    // so the views, and the round's simulated patterns, stay valid across
    // the whole round).  With one worker,
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
        commit_plan(n, examine(n, bdds, reach_sim, scratch, false), nullptr);
      }
      continue;
    }

    std::vector<Scratch> worker_scratch(static_cast<std::size_t>(team));
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
        Scratch& wscratch = worker_scratch[static_cast<std::size_t>(w)];
        for (;;) {
          std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= nb) break;
          try {
            plans[i] = examine(candidates[start + i], view, reach_sim,
                               wscratch, true);
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
          commit_plan(n, examine(n, bdds, reach_sim, scratch, false), &dirty);
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

}  // namespace lps::logicopt
