// activity_reference.hpp — the per-gate interpreter Monte Carlo driver, the
// reference the compiled tape's activity counters are checked against.
//
// sim::measure_activity replays a compiled instruction tape over blocks of
// frames with per-ISA kernels.  This driver does the same job the slow,
// obvious way: LogicSim evaluates one frame at a time and every live node's
// popcounts are added straight into the counters.  It keeps the production
// driver's shard plan, shard seeds, per-input draw order and integer
// counters, and captures the same words frame by frame, so the two must agree bit for bit — on every
// circuit, under any input bias, at any thread count and lane width.  The
// shards run serially: the plan and seeds, not the thread count, fix the
// result.

#pragma once

#include <bit>
#include <cstdint>
#include <random>
#include <span>
#include <utility>
#include <vector>

#include "logicsim_reference.hpp"
#include "core/parallel.hpp"
#include "sim/logicsim.hpp"

namespace lps::reference {

namespace detail {

// Word whose bits are 1 with probability p (16-bit resolution).
inline std::uint64_t biased_word(std::mt19937_64& rng, double p) {
  if (p <= 0.0) return 0;
  if (p >= 1.0) return ~0ULL;
  std::uint64_t w = 0;
  auto thr = static_cast<std::uint32_t>(p * 65536.0);
  for (int b = 0; b < 64; ++b)
    if ((rng() & 0xFFFF) < thr) w |= 1ULL << b;
  return w;
}

struct Counters {
  std::vector<std::uint64_t> ones, toggles;
  std::size_t frames = 0, seams = 0;
};

inline void simulate_shard(const Netlist& net, const reference::LogicSim& sim,
                           std::span<const NodeId> dffs, std::size_t n_frames,
                           std::uint64_t seed,
                           std::span<const double> pi_one_prob,
                           sim::Frame* capture_frames, Counters& a) {
  const auto& pis = net.inputs();
  a.frames += n_frames;
  a.seams += n_frames > 1 ? n_frames - 1 : 0;

  std::mt19937_64 rng(seed);
  std::vector<std::uint64_t> pi_words(pis.size());
  std::vector<std::uint64_t> state(dffs.size());
  for (std::size_t i = 0; i < dffs.size(); ++i)
    state[i] = net.node(dffs[i]).init_value ? ~0ULL : 0ULL;

  sim::Frame f, prev;
  for (std::size_t fr = 0; fr < n_frames; ++fr) {
    for (std::size_t i = 0; i < pis.size(); ++i) {
      double p = pi_one_prob.empty() ? 0.5 : pi_one_prob[i];
      pi_words[i] = (p == 0.5) ? rng() : biased_word(rng, p);
    }
    sim.eval_into(f, pi_words, state);
    if (capture_frames) capture_frames[fr] = f;
    for (NodeId id = 0; id < net.size(); ++id) {
      if (net.is_dead(id)) continue;
      a.ones[id] += std::popcount(f[id]);
      if (fr > 0) a.toggles[id] += std::popcount(f[id] ^ prev[id]);
    }
    state = sim.next_state_of(f);
    std::swap(prev, f);
  }
}

}  // namespace detail

/// A captured run in plain frame-major order: frames[fr][id] is node id's
/// word in frame fr, and shard_start[fr] marks the first frame of a shard.
struct FrameTrace {
  std::vector<sim::Frame> frames;
  std::vector<char> shard_start;
  std::vector<std::uint64_t> ones, toggles;
  std::size_t patterns = 0, seam_patterns = 0;
};

/// The live frames of a block-layout sim::ActivityTrace in frame-major
/// order, `n` words per frame (dead slots included).
inline FrameTrace frames_of(const sim::ActivityTrace& t, std::size_t n) {
  FrameTrace f;
  for (std::size_t k = 0; k < t.blocks(); ++k)
    for (std::size_t j = 0; j < t.lanes[k]; ++j) {
      sim::Frame fr(n);
      for (std::size_t id = 0; id < n; ++id)
        fr[id] = t.block_words(k)[id * t.block + j];
      f.frames.push_back(std::move(fr));
      f.shard_start.push_back(t.shard_start[k] && j == 0);
    }
  f.ones = t.ones;
  f.toggles = t.toggles;
  f.patterns = t.patterns;
  f.seam_patterns = t.seam_patterns;
  return f;
}

/// What sim::measure_activity(net, n_frames, seed, pi_one_prob, capture)
/// returns, computed with the interpreter; `capture` receives the run
/// frame by frame.
inline sim::ActivityStats measure_activity(
    const Netlist& net, std::size_t n_frames, std::uint64_t seed,
    std::span<const double> pi_one_prob = {},
    FrameTrace* capture = nullptr) {
  auto dffs = net.dffs();
  // Sequential nets form one continuous state trajectory — one shard.
  auto plan = core::plan_shards(dffs.empty() ? n_frames : 0, 64);
  if (capture) {
    capture->frames.assign(n_frames, sim::Frame{});
    capture->shard_start.assign(n_frames, 0);
    if (plan.shards == 1) {
      if (n_frames > 0) capture->shard_start[0] = 1;
    } else {
      for (std::size_t s = 0; s < plan.shards; ++s)
        capture->shard_start[plan.begin(s)] = 1;
    }
  }

  const reference::LogicSim sim(net);
  detail::Counters a;
  a.ones.assign(net.size(), 0);
  a.toggles.assign(net.size(), 0);
  for (std::size_t s = 0; s < plan.shards; ++s) {
    // A single-shard plan uses `seed` itself and runs all frames
    // (sequential plans carry total == 0).
    const bool solo = plan.shards == 1;
    const std::uint64_t sseed = solo ? seed : core::shard_seed(seed, s);
    const std::size_t shard_frames = solo ? n_frames : plan.count(s);
    sim::Frame* cap =
        capture ? capture->frames.data() + plan.begin(s) : nullptr;
    detail::simulate_shard(net, sim, dffs, shard_frames, sseed, pi_one_prob,
                           cap, a);
  }

  sim::ActivityStats st;
  st.patterns = a.frames * 64;
  const double total = static_cast<double>(a.frames * 64);
  const double seams = static_cast<double>(a.seams * 64);
  for (NodeId id = 0; id < net.size(); ++id) {
    st.signal_prob.push_back(total > 0 ? a.ones[id] / total : 0.0);
    st.transition_prob.push_back(seams > 0 ? a.toggles[id] / seams : 0.0);
  }
  if (capture) {
    capture->ones = std::move(a.ones);
    capture->toggles = std::move(a.toggles);
    capture->patterns = a.frames * 64;
    capture->seam_patterns = a.seams * 64;
  }
  return st;
}

}  // namespace lps::reference
