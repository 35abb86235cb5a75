#include "sim/logicsim.hpp"

#include <algorithm>
#include <random>

#include "core/aligned.hpp"
#include "core/metrics.hpp"
#include "core/parallel.hpp"
#include "sim/compiled.hpp"

namespace lps::sim {

void clock_registers(const Netlist& net, std::span<const NodeId> dffs,
                     const std::uint64_t* val,
                     std::vector<std::uint64_t>& state) {
  for (std::size_t i = 0; i < dffs.size(); ++i) {
    const Node& nd = net.node(dffs[i]);
    std::uint64_t next = val[nd.fanins[0]];
    if (nd.fanins.size() == 2) {
      std::uint64_t en = val[nd.fanins[1]];
      next = (en & next) | (~en & val[dffs[i]]);  // hold on EN = 0
    }
    state[i] = next;
  }
}

namespace {

// Word whose bits are 1 with probability p (16-bit resolution).
std::uint64_t biased_word(std::mt19937_64& rng, double p) {
  if (p <= 0.0) return 0;
  if (p >= 1.0) return ~0ULL;
  std::uint64_t w = 0;
  auto thr = static_cast<std::uint32_t>(p * 65536.0);
  for (int b = 0; b < 64; ++b)
    if ((rng() & 0xFFFF) < thr) w |= 1ULL << b;
  return w;
}

// Per-chunk accumulator: exact integer counts merge associatively, so a
// chunk may fold several consecutive shards into one accumulator and the
// chunk-order merge still equals the shard-order merge bit for bit.
// alignas keeps adjacent chunks' hot scalar fields off a shared cache line.
struct alignas(64) ActivityAccum {
  std::vector<std::uint64_t> ones;
  std::vector<std::uint64_t> toggles;
  std::size_t frames = 0;
  std::size_t seams = 0;  // consecutive-frame boundaries counted
};

// Scratch buffers a thread's runs reuse, grown to the largest net seen
// instead of allocated per run.  The compiled value block is
// cache-line aligned (core/aligned.hpp) so the SIMD kernels' vector
// accesses of any node block never straddle a line.
struct ActivityScratch {
  core::AlignedWords val;   // node-major value block, n * B words
  core::AlignedWords last;  // previous frame's word per node
  std::vector<std::uint64_t> state;  // register values (sequential nets)
};

// The calling thread's scratch for `net`, B words per node.  Runs write each
// live slot before reading it; dead slots are re-zeroed to read 0.
ActivityScratch& thread_scratch(const Netlist& net, std::size_t B) {
  thread_local ActivityScratch sc;
  if (sc.val.size() < net.size() * B) sc.val.resize(net.size() * B);
  if (sc.last.size() < net.size()) sc.last.resize(net.size());
  for (NodeId id = 0; id < net.size(); ++id)
    if (net.is_dead(id))
      std::fill_n(sc.val.data() + static_cast<std::size_t>(id) * B, B, 0);
  return sc;
}

// Frames between cancellation polls inside one shard: bounds cancellation
// latency for single-shard (sequential) streams without measurable cost.
constexpr std::size_t kCancelBatchFrames = 32;

// Frames per tape replay: kSimBlock, or one when register state carries
// from frame to frame.
std::size_t stream_block(const CompiledSim& cs) {
  return cs.dffs().empty() ? kSimBlock : 1;
}

// The stimulus loop of every Monte Carlo driver: one stream of `n_frames`
// frames from mt19937_64(seed) on the compiled tape.  Combinational streams
// evaluate B = kSimBlock 64-pattern words per tape replay (PI words are
// drawn frame-major — lane j fully before lane j+1 — so the per-frame
// stream does not depend on the block factor); sequential streams carry
// register state frame to frame and run with B = 1.  Tail blocks evaluate
// all B lanes but draw only the first `b`; the stale trailing lanes are
// inert, and `on_block(f0, b)` reads just frames f0 .. f0+b-1 of `val`
// (node-major, n * B words, dead slots zeroed by the caller).
template <class OnBlock>
void replay_stream(const Netlist& net, const CompiledSim& cs,
                   std::size_t n_frames, std::uint64_t seed,
                   std::span<const double> pi_one_prob, std::uint64_t* val,
                   std::vector<std::uint64_t>& state,
                   const core::CancelToken* cancel, OnBlock&& on_block) {
  const auto& pis = net.inputs();
  const auto& dffs = cs.dffs();
  const std::size_t B = stream_block(cs);
  std::mt19937_64 rng(seed);
  auto pi_word = [&](std::size_t i) {
    double p = pi_one_prob.empty() ? 0.5 : pi_one_prob[i];
    return (p == 0.5) ? rng() : biased_word(rng, p);
  };
  state.resize(dffs.size());
  for (std::size_t i = 0; i < dffs.size(); ++i)
    state[i] = net.node(dffs[i]).init_value ? ~0ULL : 0ULL;
  for (std::size_t f0 = 0; f0 < n_frames; f0 += B) {
    if ((f0 / B) % kCancelBatchFrames == 0) core::poll_cancel(cancel);
    const std::size_t b = std::min(B, n_frames - f0);
    for (std::size_t j = 0; j < b; ++j)
      for (std::size_t i = 0; i < pis.size(); ++i)
        val[static_cast<std::size_t>(pis[i]) * B + j] = pi_word(i);
    for (std::size_t i = 0; i < dffs.size(); ++i) val[dffs[i]] = state[i];
    cs.exec_all(val, B);
    on_block(f0, b);
    clock_registers(net, dffs, val, state);
  }
}

// One shard of the activity stream: each of the 64 bit lanes carries an
// independent trajectory; transitions are counted per lane between
// consecutive frames, which is exact for sequential circuits and, with iid
// inputs, for combinational ones too.  `capture`, when set, receives the
// shard's evaluated blocks back to back (ActivityTrace layout).
void simulate_activity_shard(const Netlist& net, const CompiledSim& cs,
                             std::size_t n_frames, std::uint64_t seed,
                             std::span<const double> pi_one_prob,
                             std::uint64_t* capture, ActivityAccum& a,
                             ActivityScratch& sc,
                             const core::CancelToken* cancel) {
  const auto& live = cs.live();
  const std::size_t B = stream_block(cs);
  a.frames += n_frames;
  a.seams += n_frames > 1 ? n_frames - 1 : 0;
  std::uint64_t* val = sc.val.data();
  replay_stream(net, cs, n_frames, seed, pi_one_prob, val, sc.state, cancel,
                [&](std::size_t f0, std::size_t b) {
    // Counting dominates the compiled path (the replay itself amortizes to
    // near-memory speed), so it goes through the dispatched per-ISA
    // kernel: identical integer counts, hardware POPCNT where available.
    count_columns(val, live, B, b, f0 == 0, a.ones.data(), a.toggles.data(),
                  sc.last.data());
    if (capture)
      std::copy_n(val, net.size() * B, capture + f0 * net.size());
  });
}

// The probability view of a run's exact counters.
ActivityStats stats_from_counts(std::span<const std::uint64_t> ones,
                                std::span<const std::uint64_t> toggles,
                                std::size_t patterns,
                                std::size_t seam_patterns) {
  ActivityStats st;
  st.signal_prob.resize(ones.size());
  st.transition_prob.resize(ones.size());
  st.patterns = patterns;
  for (std::size_t id = 0; id < ones.size(); ++id) {
    st.signal_prob[id] = per_pattern(ones[id], patterns);
    st.transition_prob[id] = per_pattern(toggles[id], seam_patterns);
  }
  return st;
}

}  // namespace

ActivityStats measure_activity(const Netlist& net, std::size_t n_frames,
                               std::uint64_t seed,
                               std::span<const double> pi_one_prob,
                               ActivityTrace* capture,
                               const core::CancelToken* cancel) {
  const CompiledSim csim(net);
  const std::size_t block = stream_block(csim);

  // Sequential nets form one continuous state trajectory — one shard.
  // Combinational frame streams are iid and shard freely; the plan depends
  // only on n_frames, so results are thread-count independent.  A
  // single-shard plan keeps the legacy RNG stream (`seed` itself) and runs
  // all frames (sequential plans carry total == 0).
  auto plan = core::plan_shards(csim.dffs().empty() ? n_frames : 0, 64);
  const bool solo = plan.shards == 1;
  auto shard_frames = [&](std::size_t s) {
    return solo ? n_frames : plan.count(s);
  };
  // Every shard but the last spans the first one's blocks.
  const std::size_t shard_blocks = (shard_frames(0) + block - 1) / block;
  if (capture) {
    *capture = {.block = block, .stride = net.size()};
    for (std::size_t s = 0; s < plan.shards; ++s)
      for (std::size_t f0 = 0; f0 < shard_frames(s); f0 += block) {
        capture->lanes.push_back(std::min(block, shard_frames(s) - f0));
        capture->shard_start.push_back(f0 == 0);
      }
    capture->words.assign(capture->blocks() * net.size() * block, 0);
  }

  // Dispatch grain: up to two pool indices per execution lane
  // (core::plan_chunks — oversubscription evens out lane load imbalance),
  // each chunk walking a contiguous shard range serially with its thread's
  // scratch.  Chunk boundaries depend on the thread count, but per-shard
  // seeds and frame counts do not, and the chunk accumulators fold integer
  // counts of consecutive shards — so the chunk-order merge below
  // reproduces the shard-order merge exactly at any thread count.
  const std::size_t n_chunks = core::plan_chunks(plan.shards);
  std::vector<ActivityAccum> parts(n_chunks);
  auto run_chunk = [&](std::size_t c) {
    const std::size_t s_begin = c * plan.shards / n_chunks;
    const std::size_t s_end = (c + 1) * plan.shards / n_chunks;
    ActivityAccum& a = parts[c];
    // First-touch placement: the worker that runs the chunk writes its
    // accumulators first, so their pages land on that worker's NUMA node.
    a.ones.assign(net.size(), 0);
    a.toggles.assign(net.size(), 0);
    ActivityScratch& sc = thread_scratch(net, block);
    for (std::size_t s = s_begin; s < s_end; ++s) {
      core::poll_cancel(cancel);
      const std::uint64_t sseed = solo ? seed : core::shard_seed(seed, s);
      std::uint64_t* cap =
          capture ? capture->block_words(s * shard_blocks) : nullptr;
      simulate_activity_shard(net, csim, shard_frames(s), sseed, pi_one_prob,
                              cap, a, sc, cancel);
    }
  };
  if (n_chunks == 1)
    run_chunk(0);
  else
    core::parallel_for(n_chunks, run_chunk);

  // Fixed chunk-order merge of exact integer counts: bit-identical results
  // at any thread count.
  std::vector<std::uint64_t> ones(net.size(), 0), toggles(net.size(), 0);
  std::size_t frames = 0, seams = 0;
  for (const auto& p : parts) {
    for (NodeId id = 0; id < net.size(); ++id) {
      ones[id] += p.ones[id];
      toggles[id] += p.toggles[id];
    }
    frames += p.frames;
    seams += p.seams;
  }

  core::metrics::count("sim.logic.runs");
  core::metrics::count("sim.logic.frames", static_cast<double>(frames));
  core::metrics::count("sim.logic.patterns",
                       static_cast<double>(frames) * 64.0);

  ActivityStats st = stats_from_counts(ones, toggles, frames * 64, seams * 64);
  if (capture) {
    capture->ones = std::move(ones);
    capture->toggles = std::move(toggles);
    capture->patterns = frames * 64;
    capture->seam_patterns = seams * 64;
  }
  return st;
}

bool equivalent_random(const Netlist& a, const Netlist& b,
                       std::size_t n_frames, std::uint64_t seed) {
  return a.inputs().size() == b.inputs().size() &&
         a.outputs().size() == b.outputs().size() &&
         functional_trace(a, n_frames, seed).digest ==
             functional_trace(b, n_frames, seed).digest;
}

SimTrace functional_trace(const Netlist& net, std::size_t n_frames,
                          std::uint64_t seed) {
  SimTrace t;
  t.n_inputs = net.inputs().size();
  t.n_outputs = net.outputs().size();
  t.frames = n_frames;
  t.seed = seed;

  // The activity stream's loop with one shard and uniform inputs; outputs
  // are mixed frame by frame, so the digest is a per-frame loop's.
  const CompiledSim cs(net);
  t.n_dffs = cs.dffs().size();
  const std::size_t B = stream_block(cs);
  ActivityScratch& sc = thread_scratch(net, B);
  const std::uint64_t* val = sc.val.data();
  std::uint64_t digest = 0x5CA1AB1Eu;
  replay_stream(net, cs, n_frames, seed, {}, sc.val.data(), sc.state, nullptr,
                [&](std::size_t, std::size_t b) {
    for (std::size_t j = 0; j < b; ++j)
      for (NodeId o : net.outputs())
        digest = core::mix64(digest ^ val[static_cast<std::size_t>(o) * B + j]);
  });
  t.digest = digest;
  return t;
}

}  // namespace lps::sim
