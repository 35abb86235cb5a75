#include "logicopt/candidate.hpp"

#include <atomic>
#include <stdexcept>

#include "core/metrics.hpp"
#include "logicopt/speculate.hpp"

namespace lps::logicopt::candidate {

namespace detail {
namespace {
std::atomic<int> g_force_unsound{0};
std::atomic<int> g_force_throw{0};

bool consume(std::atomic<int>& counter) {
  int v = counter.load(std::memory_order_relaxed);
  while (v > 0) {
    if (counter.compare_exchange_weak(v, v - 1, std::memory_order_relaxed))
      return v == 1;  // fires when the countdown hits zero
  }
  return false;
}
}  // namespace

void force_unsound_keeps(int n) {
  g_force_unsound.store(n, std::memory_order_relaxed);
}
void force_throw_on_candidate(int n) {
  g_force_throw.store(n, std::memory_order_relaxed);
}
}  // namespace detail

namespace {

// Stimulus seed of the whole-netlist trace proof.
constexpr std::uint64_t kVerifySeed = 17;

// The whole-netlist proof: sim::functional_trace's output digest, replayed
// on the compiled tape.
sim::SimTrace whole_trace(const Netlist& net, const KernelOptions& o) {
  return sim::functional_trace(net, o.verify_frames, kVerifySeed);
}

}  // namespace

Kernel::Kernel(Netlist& net, power::IncrementalAnalyzer& oracle,
               KernelOptions opt)
    : net_(net), oracle_(oracle), opt_(opt) {
  base_digest_ = oracle_.outputs_digest();
  if (opt_.engine) {
    const std::string prefix = std::string("logicopt.") + opt_.engine;
    kept_metric_ = prefix + ".kept";
    reverted_metric_ = prefix + ".reverted";
    unsound_metric_ = prefix + ".unsound";
    if (opt_.verify_frames != 0) ref_ = whole_trace(net_, opt_);
  }
}

Probe Kernel::apply(const std::function<bool()>& edit, bool retry) {
  net_.begin_undo();
  if (opt_.engine && !retry && detail::consume(detail::g_force_throw))
    throw std::runtime_error("candidate: injected mid-candidate failure");
  Probe p;
  try {
    p.applied = edit();
  } catch (...) {
    net_.rollback_undo();
    throw;
  }
  if (!p.applied) {
    ++tally_.stale;
    net_.commit_undo();  // the epoch recorded nothing; committing is free
    return p;
  }
  p.touched = net_.touched_nodes();
  return p;
}

void Kernel::score(Probe& p) {
  try {
    oracle_.score_candidate(p.touched);
  } catch (...) {
    net_.rollback_undo();  // the oracle already restored its caches
    throw;
  }
  p.scored = true;
  p.footprint = speculate::dirty_footprint(net_, p.touched);
  speculate::DeltaScore d = speculate::score_delta(
      oracle_.previous_analysis(), oracle_.analysis(), p.footprint);
  p.clock_moved = d.clock_moved;
  p.wins = d.delta_w < -opt_.min_gain_w;
  p.sound = !p.wins || oracle_.outputs_digest() == base_digest_;
}

bool Kernel::prove(const Probe& p) {
  bool ok = p.sound;
  if (ok && opt_.verify_frames != 0) ok = whole_trace(net_, opt_) == ref_;
  return ok && !detail::consume(detail::g_force_unsound);
}

bool Kernel::settle(Probe& p) {
  ++tally_.settled;
  if (p.wins && prove(p)) {
    net_.commit_undo();
    ++tally_.kept;
    core::metrics::count(kept_metric_);
    return true;
  }
  reject(p);
  if (p.wins) {
    ++tally_.unsound;
    core::metrics::count(unsound_metric_);
  } else {
    ++tally_.reverted;
    core::metrics::count(reverted_metric_);
  }
  return false;
}

void Kernel::reject(Probe& p) {
  net_.rollback_undo();
  if (p.scored) oracle_.revert_last();
}

}  // namespace lps::logicopt::candidate
