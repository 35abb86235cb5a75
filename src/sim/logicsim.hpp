// logicsim.hpp — 64-way bit-parallel zero-delay Monte Carlo drivers.
//
// The drivers that replay random stimulus on the compiled tape
// (sim/compiled.hpp): measure_activity (exact zero-delay switching
// activity, §I Eqn. 1 factor N, and signal/transition probabilities under
// arbitrary input statistics) and the equivalence checks (functional_trace,
// equivalent_random).  Both run one stimulus loop — the same draw order,
// block size, tail-lane limit and register stepping — and differ only in
// what they read off each evaluated block.  Each std::uint64_t word
// carries 64 independent patterns.
//
// Monte Carlo drivers shard their frame stream across the shared thread
// pool (core/parallel.hpp).  The decomposition and per-shard seeds depend
// only on the workload, and per-shard counts merge associatively in shard
// order, so results are bit-identical at any thread count.  Sequential
// netlists carry register state across frames and therefore always run as
// one serial shard (preserving the single-trajectory semantics).

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/aligned.hpp"
#include "core/parallel.hpp"
#include "netlist/netlist.hpp"
#include "sim/compiled.hpp"

namespace lps::sim {

/// Statistics accumulated over a (possibly multi-frame) simulation run.
struct ActivityStats {
  std::vector<double> signal_prob;      // P(node == 1)
  std::vector<double> transition_prob;  // E[toggles per cycle], zero-delay
  std::size_t patterns = 0;
};

/// Raw simulation record behind one measure_activity() run, captured so an
/// incremental re-estimator can later re-derive any node's value stream
/// without re-running the untouched part of the network.  Value words keep
/// the tape replay's layout: per shard, blocks of `block` frames (kSimBlock;
/// 1 for sequential nets), node-major — node id's lane j of block k at
/// words[(k * stride + id) * block + j].  Blocks follow shard order (the
/// determinism contract's merge order); `shard_start[k]` marks stream seams,
/// across which no toggle is counted.  `ones`/`toggles` are the exact
/// per-node counters the ActivityStats doubles derive from.
struct ActivityTrace {
  std::size_t block = 1;      // frames per block
  std::size_t stride = 0;     // node slots per block (>= the net's size)
  core::AlignedWords words;   // blocks() * stride * block value words
  std::vector<std::size_t> lanes;      // per block: live frames, 1..block
  std::vector<char> shard_start;       // per block: first of its shard?
  std::vector<std::uint64_t> ones;     // per node, summed over frames
  std::vector<std::uint64_t> toggles;  // per node, intra-shard seams only
  std::size_t patterns = 0;       // frames * 64
  std::size_t seam_patterns = 0;  // toggle-counted boundaries * 64

  std::size_t blocks() const { return lanes.size(); }
  std::uint64_t* block_words(std::size_t k) {
    return words.data() + k * stride * block;
  }
  const std::uint64_t* block_words(std::size_t k) const {
    return words.data() + k * stride * block;
  }
};

/// Events per pattern (0 without patterns): the arithmetic of every
/// ActivityStats double, shared with the incremental splice.
inline double per_pattern(std::uint64_t count, std::size_t patterns) {
  return patterns > 0 ? count / static_cast<double>(patterns) : 0.0;
}

/// Run `n_frames` frames of random-vector simulation and measure zero-delay
/// signal and transition probabilities per node.  `pi_one_prob` optionally
/// sets a per-input probability of 1 (default 0.5).  For sequential nets the
/// register state is carried across consecutive patterns within a word
/// stream (one symbolic stream of length 64*n_frames).  Combinational nets
/// shard the stream across the thread pool and replay the compiled tape
/// over kSimBlock frames at a time; results are deterministic in
/// (n_frames, seed) and independent of the thread count.  When `capture` is
/// non-null every evaluated block and the exact counters are recorded into
/// it (one copy per tape replay).  A non-null `cancel` token is polled at
/// shard boundaries and every frame batch within a shard; when it fires the
/// run throws core::CancelledError and all partial counts are discarded —
/// cancellation never yields a truncated (and therefore wrong) statistic.
ActivityStats measure_activity(const Netlist& net, std::size_t n_frames,
                               std::uint64_t seed,
                               std::span<const double> pi_one_prob = {},
                               ActivityTrace* capture = nullptr,
                               const core::CancelToken* cancel = nullptr);

/// Next state of `dffs` (state[i] for dffs[i]) from an evaluated block-1
/// frame `val`, a word per node id; load-enabled registers hold on EN = 0.
void clock_registers(const Netlist& net, std::span<const NodeId> dffs,
                     const std::uint64_t* val,
                     std::vector<std::uint64_t>& state);

/// Random-vector equivalence check: both networks' functional_trace digests
/// over the same input stream (inputs and outputs matched by position).  A
/// miscompare is definitive; agreement is probabilistic (n_frames*64
/// patterns, up to a ~2^-64 digest collision).
bool equivalent_random(const Netlist& a, const Netlist& b,
                       std::size_t n_frames, std::uint64_t seed);

/// Deterministic functional fingerprint: the digest of a netlist's primary
/// output stream under `n_frames` frames of seeded random stimulus (register
/// state carried exactly as in equivalent_random).  Two netlists with equal
/// traces for the same (n_frames, seed) are equivalent on that stream, up to
/// a ~2^-64 digest collision — this lets the pass manager verify a rewrite
/// against the *pre-pass* circuit without keeping a deep copy of it alive.
struct SimTrace {
  std::size_t n_inputs = 0;
  std::size_t n_outputs = 0;
  std::size_t n_dffs = 0;
  std::size_t frames = 0;
  std::uint64_t seed = 0;
  std::uint64_t digest = 0;
  bool operator==(const SimTrace&) const = default;
};

SimTrace functional_trace(const Netlist& net, std::size_t n_frames,
                          std::uint64_t seed);

}  // namespace lps::sim
