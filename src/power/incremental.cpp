#include "power/incremental.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <utility>

#include "core/aligned.hpp"
#include "core/diag.hpp"
#include "core/metrics.hpp"
#include "core/parallel.hpp"

namespace lps::power {

namespace detail {

namespace {
std::atomic<int> g_forced_tape_failures{0};

bool consume_forced_tape_failure() {
  int cur = g_forced_tape_failures.load(std::memory_order_relaxed);
  while (cur > 0) {
    if (g_forced_tape_failures.compare_exchange_weak(
            cur, cur - 1, std::memory_order_relaxed))
      return true;
  }
  return false;
}
}  // namespace

void force_tape_failures(int n) {
  g_forced_tape_failures.store(n, std::memory_order_relaxed);
}

}  // namespace detail

IncrementalAnalyzer::IncrementalAnalyzer(const Netlist& net,
                                         AnalysisOptions opt)
    : net_(&net), opt_(std::move(opt)) {
  LPS_CHECK(opt_.mode == ActivityMode::ZeroDelay,
            "IncrementalAnalyzer: ZeroDelay only (Timed keeps no frame cache)");
  run_full();
}

IncrementalAnalyzer::IncrementalAnalyzer(CloneTag, const Netlist& net,
                                         const IncrementalAnalyzer& src)
    : net_(&net), opt_(src.opt_), analysis_(src.analysis_), cache_(src.cache_) {
  // No compiled tape: it binds to the source netlist.  The first
  // reanalyze() on the clone compiles one lazily against `net`.
}

IncrementalAnalyzer IncrementalAnalyzer::clone_for(const Netlist& net) const {
  core::metrics::count("power.inc.clones");
  return IncrementalAnalyzer(CloneTag{}, net, *this);
}

const Analysis& IncrementalAnalyzer::previous_analysis() const {
  if (!pending_)
    throw std::logic_error(
        "IncrementalAnalyzer::previous_analysis: no update pending");
  return snap_.analysis;
}

std::uint64_t IncrementalAnalyzer::outputs_digest() const {
  const sim::ActivityTrace& t = cache_.trace;
  std::uint64_t d = 0x9E3779B97F4A7C15ull;
  const auto& outs = net_->outputs();
  for (std::size_t k = 0; k < t.blocks(); ++k)
    for (std::size_t lane = 0; lane < t.lanes[k]; ++lane)
      for (std::size_t j = 0; j < outs.size(); ++j)
        d = core::mix64(d ^ (t.block_words(k)[outs[j] * t.block + lane] +
                             0x9E3779B97F4A7C15ull * (j + 1)));
  return d;
}

void IncrementalAnalyzer::run_full() {
  const Netlist& net = *net_;
  try {
    // Same frames/seed/arithmetic as analyze()'s ZeroDelay branch, plus the
    // raw trace capture the cone updates replay against.
    auto st = sim::measure_activity(net, zero_delay_frames(opt_.n_vectors),
                                    opt_.seed, opt_.pi_one_prob,
                                    &cache_.trace, opt_.cancel);
    analysis_ = detail::assemble_zero_delay(net, st, opt_);
    cache_.signal_prob = std::move(st.signal_prob);
    cache_.cap = node_capacitances(net, opt_.params);
    cache_.dffs = net.dffs();
    cache_.outputs = net.outputs();
    cache_.po_count.assign(net.size(), 0);
    for (NodeId o : cache_.outputs) ++cache_.po_count[o];
  } catch (...) {
    // A cancelled or failed baseline leaves no usable cache: the capture
    // buffer was partially overwritten, so forget it wholesale rather than
    // risk splicing against garbage.  reanalyze() restores its own snapshot
    // on top of this.
    cache_ = {};
    csim_.reset();
    throw;
  }
  // Fresh compact tape for the cone updates (patched per mutation from here
  // on).
  if (csim_)
    csim_->rebuild();
  else
    csim_.emplace(net);
}

const Analysis& IncrementalAnalyzer::reanalyze(
    const Netlist::TouchedNodes& touched) {
  const Netlist& net = *net_;
  sim::ActivityTrace& trace = cache_.trace;
  last_ = {};
  last_.live_nodes = net.num_live();
  core::metrics::count("power.inc.updates");

  bool cone_ok = !touched.all && net.size() >= trace.ones.size();

  // An edit that adds or removes a register re-baselines: the register
  // list is cached, and a first register or a last one changes the shard
  // plan and block layout analyze() runs.  Only a value root can do it.
  for (NodeId id : touched.value_roots)
    if ((!net.is_dead(id) && net.node(id).type == GateType::Dff) !=
        std::binary_search(cache_.dffs.begin(), cache_.dffs.end(), id))
      cone_ok = false;

  // Dirty set: transitive fanout of the *value-relevant* touched nodes,
  // crossing registers (a changed D/EN driver changes the register's value
  // stream from the next frame on).  Touched nodes whose pre-image differs
  // only in fanouts/size/delay/name seed nothing — their value streams are
  // unchanged; only capacitances are re-priced below.
  //
  // The compiled tape persists across updates and is patched from the
  // same touched-node report (O(edit)).  A patch failure degrades the
  // update to the full re-baseline below: the tape may be partially
  // patched and can no longer be trusted to mirror the netlist, so it is
  // dropped (run_full compiles a fresh one) and the failure is counted.
  sim::ConeSchedule sched;
  if (cone_ok) {
    std::vector<bool> mask =
        net.fanout_cone_of(touched.value_roots, /*through_dffs=*/true);
    try {
      if (detail::consume_forced_tape_failure())
        throw std::runtime_error("injected compiled-tape failure (chaos)");
      if (csim_)
        csim_->update(touched);
      else
        csim_.emplace(net);
      sched = csim_->cone_schedule(mask);
    } catch (const std::exception&) {
      csim_.reset();
      cone_ok = false;
      last_.tape_fallback = true;
      core::metrics::count("power.inc.tape_fallback");
    }
  }
  // The in-flight snapshot: fresh, but keeping its big buffers' capacity.
  Snapshot& s = work_;
  s = {.analysis = std::move(s.analysis), .columns = std::move(s.columns)};
  s.columns.clear();
  if (!cone_ok) {
    // Full fallback: the old cache moves wholesale into the snapshot (no
    // copies), then the baseline is rebuilt for the mutated netlist.
    s.full = true;
    s.cache = std::move(cache_);
    s.analysis = std::move(analysis_);
    try {
      run_full();
    } catch (...) {
      // Restore the pre-call cache (run_full already cleared its partial
      // state): once the caller rolls back its netlist mutation the
      // analyzer is bit-for-bit consistent again.  The compiled tape was
      // dropped; it is recompiled lazily.
      cache_ = std::move(s.cache);
      analysis_ = std::move(s.analysis);
      throw;
    }
    std::swap(snap_, work_);
    pending_ = true;
    last_.full_rebaseline = true;
    last_.resim_nodes = last_.live_nodes;
    core::metrics::count("power.inc.fallback_full");
    double evals = static_cast<double>(last_.live_nodes) *
                   static_cast<double>(cache_.trace.patterns / 64);
    core::metrics::count("power.inc.node_evals", evals);
    core::metrics::count("power.inc.node_evals_full", evals);
    return analysis_;
  }

  // ---- Cone-scoped update -------------------------------------------------
  s.old_size = trace.ones.size();
  s.patched.assign(touched.value_roots.begin(), touched.value_roots.end());
  s.analysis = analysis_;  // copy-assign: reuses the snapshot's buffers
  const std::size_t K = trace.blocks(), B = trace.block;
  // Keep a node's counters, P(1) and C from before their first change.
  auto save = [&](NodeId id) {
    if (id < s.old_size)
      s.nodes.push_back({id, trace.ones[id], trace.toggles[id],
                         cache_.signal_prob[id], cache_.cap[id]});
  };
  try {
    // Grow the cache for appended nodes (cone path never shrinks: compact()
    // and wholesale restores report `all` and take the fallback above).
    // The blocks are re-laid out with slack, so a run of appending edits
    // pays that O(trace) copy once per quarter growth.
    const std::size_t n = net.size();
    if (n > trace.stride) {
      const std::size_t stride = std::max(n, trace.stride + trace.stride / 4);
      core::AlignedWords words(K * stride * B, 0);
      for (std::size_t k = 0; k < K; ++k)
        std::copy_n(trace.block_words(k), trace.stride * B,
                    words.data() + k * stride * B);
      trace.words = std::move(words);
      trace.stride = stride;
    }
    trace.ones.resize(n, 0);
    trace.toggles.resize(n, 0);
    cache_.signal_prob.resize(n, 0.0);
    cache_.cap.resize(n, 0.0);
    cache_.po_count.resize(n, 0);
    analysis_.toggles_per_cycle.resize(n, 0.0);
    if (last_words_.size() < n) last_words_.resize(n);

    // Count-update set: every non-input cone node.  Gates and registers
    // get re-simulated; dead cone nodes (value roots: nothing reaches a
    // dead node) just have their counters zeroed, as analyze() skips them.
    recount_.assign(sched.gates.begin(), sched.gates.end());
    recount_.insert(recount_.end(), sched.dffs.begin(), sched.dffs.end());
    for (NodeId id : touched.value_roots)
      if (net.is_dead(id)) recount_.push_back(id);
    for (NodeId id : recount_) {
      save(id);
      trace.ones[id] = 0;
      trace.toggles[id] = 0;
    }

    // Snapshot the cone columns the sweep overwrites (contiguous lanes).
    for (const auto* list : {&sched.gates, &sched.dffs})
      for (NodeId id : *list)
        if (id < s.old_size) {  // later ids are truncated away on revert
          s.resim_ids.push_back(id);
          for (std::size_t k = 0; k < K; ++k)
            s.columns.insert(s.columns.end(), trace.block_words(k) + id * B,
                             trace.block_words(k) + (id + 1) * B);
        }

    // In-place sweep over the cached blocks in stream order: exec_gates
    // evaluates all lanes of a block, count_columns adds the cone's
    // popcounts.  Registers exist only in sequential traces (a block per
    // frame) and step from the previous, already updated frame, as a full
    // re-simulation would.  The sweep polls the cancellation token per
    // block; on any throw the snapshot just built is played back, so
    // partially rewritten columns never escape (the header's contract).
    regs_.resize(sched.dffs.size());
    for (std::size_t k = 0; k < K; ++k) {
      core::poll_cancel(opt_.cancel);
      std::uint64_t* v = trace.block_words(k);
      const bool first = trace.shard_start[k];
      for (std::size_t i = 0; i < sched.dffs.size(); ++i)
        v[sched.dffs[i]] = !first ? regs_[i]
                           : net.node(sched.dffs[i]).init_value ? ~0ULL : 0ULL;
      csim_->exec_gates(v, B, sched.gates);
      for (const auto* list : {&sched.dffs, &sched.gates})
        sim::count_columns(v, *list, B, trace.lanes[k], first,
                           trace.ones.data(), trace.toggles.data(),
                           last_words_.data());
      sim::clock_registers(net, sched.dffs, v, regs_);
    }

    // Splice: probabilities of the recounted nodes, capacitances of the
    // nodes whose load changed, then one pricing pass in node order.
    for (NodeId id : recount_) {
      cache_.signal_prob[id] = sim::per_pattern(trace.ones[id], trace.patterns);
      analysis_.toggles_per_cycle[id] =
          sim::per_pattern(trace.toggles[id], trace.seam_patterns);
    }
    auto reprice = [&](NodeId id) {
      save(id);
      cache_.cap[id] = node_capacitance(net, id, cache_.po_count[id],
                                        opt_.params);
    };
    // A node's C reads its size, fanouts (their size, type and pins) and
    // PO count.  An edit journals the node and every node whose fanout list
    // it changes (old and new fanins), so the touched nodes and their
    // current fanins cover all but PO-list changes, which touched_nodes()
    // does not report.
    if (net.outputs() != cache_.outputs) {
      s.outputs = std::move(cache_.outputs);
      cache_.outputs = net.outputs();
      for (NodeId o : *s.outputs) --cache_.po_count[o];
      for (NodeId o : cache_.outputs) ++cache_.po_count[o];
      for (NodeId o : *s.outputs) reprice(o);
      for (NodeId o : cache_.outputs) reprice(o);
    }
    for (NodeId id : touched.ids) {
      reprice(id);
      for (NodeId f : net.node(id).fanins) reprice(f);
    }
    detail::price_zero_delay(net, cache_.signal_prob, cache_.cap, cache_.dffs,
                             opt_.params, analysis_);
  } catch (...) {
    // The patched tape reflects the mutated netlist, which the caller is
    // about to roll back — a revert_to() replay would re-read the still-
    // mutated nodes, so drop the tape instead (recompiled lazily).
    csim_.reset();
    restore_cone(s);
    throw;
  }
  std::swap(snap_, work_);
  pending_ = true;

  last_.resim_nodes = sched.resim_nodes();
  const double frames = static_cast<double>(trace.patterns / 64);
  core::metrics::count("power.inc.node_evals",
                       static_cast<double>(last_.resim_nodes) * frames);
  core::metrics::count("power.inc.node_evals_full",
                       static_cast<double>(last_.live_nodes) * frames);
  return analysis_;
}

void IncrementalAnalyzer::revert_last() {
  if (!pending_)
    throw std::logic_error(
        "IncrementalAnalyzer::revert_last: no update to revert");
  pending_ = false;
  core::metrics::count("power.inc.reverts");
  if (snap_.full) {
    cache_ = std::move(snap_.cache);
    analysis_ = std::move(snap_.analysis);
    // The netlist was restored wholesale; recompile against it.
    if (csim_) csim_->rebuild();
    return;
  }
  // Truncate nodes appended by the reverted mutation, restore the cone's
  // old words, counters and prices.  The compiled tape re-emits the patch
  // roots' records from the restored netlist (O(edit)).
  if (csim_) csim_->revert_to(snap_.old_size, snap_.patched);
  restore_cone(snap_);
}

void IncrementalAnalyzer::restore_cone(Snapshot& s) {
  sim::ActivityTrace& trace = cache_.trace;
  if (s.outputs) {
    for (NodeId o : cache_.outputs) --cache_.po_count[o];
    cache_.outputs = std::move(*s.outputs);
    for (NodeId o : cache_.outputs) ++cache_.po_count[o];
  }
  trace.ones.resize(s.old_size);
  trace.toggles.resize(s.old_size);
  cache_.signal_prob.resize(s.old_size);
  cache_.cap.resize(s.old_size);
  cache_.po_count.resize(s.old_size);
  const std::size_t K = trace.blocks(), B = trace.block;
  const std::uint64_t* col = s.columns.data();
  for (NodeId id : s.resim_ids)
    for (std::size_t k = 0; k < K; ++k, col += B)
      std::copy_n(col, B, trace.block_words(k) + id * B);
  // Reverse order: a node saved twice recorded its true old state first.
  for (auto it = s.nodes.rbegin(); it != s.nodes.rend(); ++it) {
    trace.ones[it->id] = it->ones;
    trace.toggles[it->id] = it->toggles;
    cache_.signal_prob[it->id] = it->p1;
    cache_.cap[it->id] = it->cap;
  }
  std::swap(analysis_, s.analysis);
}

double IncrementalAnalyzer::score_candidate(
    const Netlist::TouchedNodes& touched) {
  const Analysis& a = reanalyze(touched);
  core::metrics::count("power.inc.probes");
  return a.report.breakdown.total_w();
}

}  // namespace lps::power
