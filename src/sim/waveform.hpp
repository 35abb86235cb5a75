// waveform.hpp — bit-parallel timed logic simulation with glitch accounting.
//
// §III-A.2 of the survey: "Spurious transitions account for between 10% and
// 40% of the switching activity power in typical combinational logic
// circuits" (citing Ghosh et al. [16]).  Measuring that needs a general-delay
// simulator: transport delay, one integer delay per gate (Node::delay, at
// least 1), a gate's output at t being its function of the fanins at t - d.
//
// Without events: node n can change only at the times T(n) its structure
// allows (T(source) = {0}, T(g) = the union of T(f) + d(g) over fanins f).
// The netlist is lowered once into a compiled tape (sim/compiled.hpp) with a
// "before" slot per node and one per t in T(n); XORs of consecutive slots
// popcount to the transitions.  Lane k of a word is vector k of a stream,
// whose before state is lane k-1's settled state; registers are fixed lane
// by lane by a zero-delay pass over their D/EN cones.  The counts equal an
// event-driven simulator's (tests/eventsim_reference.hpp), and shard plans
// and seeds depend only on (n_vectors, seed), so they are bit-identical at
// any thread count.

#pragma once

#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "core/parallel.hpp"
#include "netlist/netlist.hpp"

namespace lps::sim {

/// Cap on sum |T(n)|: each word costs about 40 bytes of program and 32 of
/// scratch per worker (unit-delay nets of 2000 gates need about 10^5).  Past
/// it the functions below throw std::length_error before building the tape.
inline constexpr std::size_t kMaxWaveformWords = std::size_t{1} << 20;

struct TimedStats {
  TimedStats() = default;
  explicit TimedStats(std::size_t nodes)
      : total_toggles(nodes, 0.0), functional_toggles(nodes, 0.0) {}

  std::vector<double> total_toggles;       // per node, summed over vectors
  std::vector<double> functional_toggles;  // per node, summed over vectors
  std::size_t vectors = 0;

  double sum_total() const {
    return std::accumulate(total_toggles.begin(), total_toggles.end(), 0.0);
  }
  /// Fraction of all switching that is spurious (0 when nothing toggles).
  double glitch_fraction() const {
    const double t = sum_total(), f = std::accumulate(
        functional_toggles.begin(), functional_toggles.end(), 0.0);
    return t <= 0 ? 0.0 : (t - f) / t;
  }
};

/// Random vectors with optional per-PI one-probability.  Combinational nets
/// shard the stream across the pool (each shard from the reset state under
/// its own seed); sequential nets run one serial shard with the legacy
/// stream.  A non-null `cancel` token is polled while the program is built,
/// at shard boundaries and every 64-vector word; when it fires the run
/// throws core::CancelledError and all partial counts are discarded.
TimedStats measure_timed_activity(const Netlist& net, std::size_t n_vectors,
                                  std::uint64_t seed,
                                  std::span<const double> pi_one_prob = {},
                                  const core::CancelToken* cancel = nullptr);

/// Timed counts of one given stream from the reset state: `sequence[t][i]`
/// is net.inputs()[i] in vector t, and registers are clocked before every
/// vector.  Throws std::invalid_argument on a vector of the wrong width.
TimedStats simulate_timed_sequence(
    const Netlist& net, const std::vector<std::vector<bool>>& sequence);

/// Waveform slots the simulator allocates per lane word: sum over live
/// nodes of |T(n)|.  Throws std::length_error past kMaxWaveformWords.
std::size_t waveform_words(const Netlist& net);

}  // namespace lps::sim
