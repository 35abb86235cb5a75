#include "sim/waveform.hpp"

#include <algorithm>
#include <iterator>
#include <mutex>
#include <numeric>
#include <random>
#include <stdexcept>

#include "core/aligned.hpp"
#include "core/metrics.hpp"
#include "sim/compiled.hpp"
#include "sim/logicsim.hpp"

namespace lps::sim {

namespace {

// Value-block budget per engine (4 MiB): wide waveforms get smaller blocks,
// down to one lane word per slot.  The tape takes about 8 words per waveform
// word at fanin 2; its cap is twice that, for wider gates.
constexpr std::size_t kBudgetWords = std::size_t{1} << 19;

[[noreturn]] void too_wide() {
  throw std::length_error("timed simulation: the gate delays spread the "
                          "waveforms over more than " +
                          std::to_string(kMaxWaveformWords) + " words");
}

bool is_source_or_dff(const Node& nd) {
  return nd.type == GateType::Input || nd.type == GateType::Dff;
}

// The time-expanded program of one netlist (see the header).  Slots [0, D)
// are the XOR words the counters read; node n's are [diff[n], diff[n+1]):
// one per t in T(n), then, when |T(n)| > 1, settled XOR before (with one
// change time the two coincide).  Value slots follow: node n's before slot,
// then one per t in T(n).  Immutable, so one program serves every worker.
struct Program {
  Program(const Netlist& net, const core::CancelToken* cancel);

  const Netlist* net;
  std::vector<std::uint32_t> tape;      // before, time and XOR records
  std::vector<std::uint32_t> cone;      // D/EN cone, zero-delay, node slots
  std::vector<NodeId> sources;          // inputs, then registers
  std::vector<std::uint32_t> base;      // per node: its before slot
  std::vector<std::uint32_t> diff;      // per node, plus the end
  std::vector<NodeId> counted;          // 0 .. D-1
  std::size_t slots = 0;
  std::size_t waveform_words = 0;  // sum |T(n)|
};

Program::Program(const Netlist& n, const core::CancelToken* cancel)
    : net(&n) {
  const auto order = n.topo_order();
  // T(n), flattened in topological order: node n's at times[tb[n] ..][tc[n]].
  // A union is a subset of `times`: the cap check bounds every buffer.
  std::vector<std::int64_t> times, tmp, merged;
  std::vector<std::size_t> tb(n.size(), 0), tc(n.size(), 0);
  for (NodeId id : order) {
    if (id % 1024 == 0) core::poll_cancel(cancel);
    const Node& nd = n.node(id);
    tb[id] = times.size();
    if (is_source_or_dff(nd)) {
      times.push_back(0);
    } else {
      tmp.clear();
      for (NodeId f : nd.fanins) {
        merged.clear();
        std::set_union(tmp.begin(), tmp.end(), times.data() + tb[f],
                       times.data() + tb[f] + tc[f],
                       std::back_inserter(merged));
        tmp.swap(merged);
      }
      if (times.size() + tmp.size() > kMaxWaveformWords) too_wide();
      for (std::int64_t t : tmp) times.push_back(t + std::max(1, nd.delay));
    }
    tc[id] = times.size() - tb[id];
  }
  waveform_words = times.size();

  diff.assign(n.size() + 1, 0);
  for (NodeId id = 0; id < n.size(); ++id)
    diff[id + 1] = diff[id] + tc[id] + (tc[id] > 1 ? 1 : 0);
  counted.resize(diff.back());
  std::iota(counted.begin(), counted.end(), NodeId{0});
  base.assign(n.size(), 0);
  slots = diff.back();
  for (NodeId id : order) {
    base[id] = static_cast<std::uint32_t>(slots);
    slots += 1 + tc[id];
  }
  if (slots > UINT32_MAX) too_wide();

  // Slot of fanin f's value at time s: its last change at or before s, or
  // its before slot when none.
  auto at = [&](NodeId f, std::int64_t s) {
    const std::int64_t* t = times.data() + tb[f];
    return base[f] + static_cast<std::uint32_t>(
                         std::upper_bound(t, t + tc[f], s) - t);
  };
  std::vector<std::uint32_t> ins;
  for (NodeId id : order) {
    if (id % 1024 == 0) core::poll_cancel(cancel);
    const Node& nd = n.node(id);
    const std::uint32_t b = base[id];
    const auto m = static_cast<std::uint32_t>(tc[id]);
    const std::size_t records = (m + 1) * (nd.fanins.size() + 6);
    if (tape.size() + records > 16 * kMaxWaveformWords) too_wide();
    if (!is_source_or_dff(nd)) {
      ins.clear();
      for (NodeId f : nd.fanins) ins.push_back(base[f]);
      append_record(tape, nd.type, b, ins);
      for (std::uint32_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < ins.size(); ++j)
          ins[j] = at(nd.fanins[j], times[tb[id] + i] - std::max(1, nd.delay));
        append_record(tape, nd.type, b + 1 + i, ins);
      }
    }
    // XORs of consecutive slots, then (i == m + 1) settled XOR before.
    for (std::uint32_t i = 1; i <= m + (m > 1 ? 1 : 0); ++i) {
      const std::uint32_t pair[2] = {b + std::min(i, m),
                                     i <= m ? b + i - 1 : b};
      append_record(tape, GateType::Xor, diff[id] + i - 1, pair);
    }
  }

  sources = n.inputs();
  for (NodeId d : n.dffs()) sources.push_back(d);
  // Registers' next-state cone: the gates reaching a D or EN pin.
  std::vector<char> feeds(n.size(), 0);
  for (auto it = order.rbegin(); it != order.rend(); ++it)
    for (NodeId fo : n.node(*it).fanouts)
      feeds[*it] |= n.node(fo).type == GateType::Dff || feeds[fo];
  for (NodeId id : order)
    if (feeds[id] && !is_source_or_dff(n.node(id)))
      append_record(cone, n.node(id).type, id, n.node(id).fanins);
}

// One worker's state over a shared Program: staged source words for up to
// `block` lane words, per-source lane-63 carries, the register cone's
// zero-delay state (bit 0 of z_) and the exact per-slot counters.
class Engine {
 public:
  Engine(const Program& p, std::size_t words)
      : p_(p),
        n_pi_(p.net->inputs().size()),
        block_(normalize_block(std::min(
            {kSimBlock, std::max<std::size_t>(1, words),
             kBudgetWords / std::max<std::size_t>(1, p.slots)}))),
        val_(p.slots * block_),
        ones_(p.counted.size()),
        junk_(p.counted.size()),
        word_(p.sources.size()),
        carry_(p.sources.size()),
        q_(p.sources.size() - n_pi_) {}

  // Simulate one stream of `count` vectors from the reset settle;
  // bit(k, i) draws input i of vector k, in that order.
  template <class Bit>
  void stream(std::size_t count, Bit bit, const core::CancelToken* cancel) {
    const Netlist& net = *p_.net;
    z_.assign(net.size(), 0);
    for (std::size_t s = 0; s < p_.sources.size(); ++s)
      z_[p_.sources[s]] = carry_[s] =
          s >= n_pi_ && net.node(p_.sources[s]).init_value;
    exec_tape(p_.cone, z_.data(), 1);
    for (std::size_t k0 = 0; k0 < count; k0 += 64) {
      core::poll_cancel(cancel);
      const std::size_t n = std::min<std::size_t>(64, count - k0);
      std::fill(word_.begin(), word_.end(), 0);
      for (std::size_t k = 0; k < n; ++k)
        for (std::size_t i = 0; i < n_pi_; ++i)
          word_[i] |= std::uint64_t{bit(k0 + k, i)} << k;
      // Serial lane pass: clock every register from the previous lane's
      // settled cone, then settle the cone under this lane's inputs.
      const std::span<const NodeId> dffs(p_.sources.begin() + n_pi_,
                                         p_.sources.end());
      for (std::size_t k = 0; k < n && !dffs.empty(); ++k) {
        clock_registers(net, dffs, z_.data(), q_);
        for (std::size_t i = 0; i < dffs.size(); ++i)
          word_[n_pi_ + i] |= (q_[i] & 1) << k;
        for (std::size_t s = 0; s < p_.sources.size(); ++s)
          z_[p_.sources[s]] = word_[s] >> k & 1;
        exec_tape(p_.cone, z_.data(), 1);
      }
      // Stage the word.  Lanes past n repeat lane n-1: they count nothing
      // and leave the right carry.
      const std::uint64_t keep = n >= 64 ? ~0ULL : (1ULL << n) - 1;
      for (std::size_t s = 0; s < p_.sources.size(); ++s) {
        std::uint64_t w = word_[s] >> (n - 1) & 1 ? word_[s] | ~keep
                                                   : word_[s] & keep;
        std::uint64_t* v =
            val_.data() + std::size_t{p_.base[p_.sources[s]]} * block_;
        v[staged_] = (w << 1) | carry_[s];
        v[block_ + staged_] = w;
        carry_[s] = w >> 63;
      }
      vectors_ += n;
      if (++staged_ == block_) flush();
    }
  }

  // Add the counts so far to `st` (sized net.size()).
  void add_to(TimedStats& st) {
    flush();
    for (NodeId id = 0; id + 1 < p_.diff.size(); ++id) {
      const std::uint32_t b = p_.diff[id], e = p_.diff[id + 1];
      if (b == e) continue;
      std::uint64_t total = ones_[b];
      for (std::uint32_t x = b + 1; x + 1 < e; ++x) total += ones_[x];
      st.total_toggles[id] += static_cast<double>(total);
      st.functional_toggles[id] += static_cast<double>(ones_[e - 1]);
    }
    st.vectors += vectors_;
  }

  // Run the staged words and fold their XOR popcounts into the counters.
  void flush() {
    if (staged_ == 0) return;
    exec_tape(p_.tape, val_.data(), block_);
    // Only the set-bit counts matter; toggles and the carry go to junk_.
    count_columns(val_.data(), p_.counted, block_, staged_, true, ones_.data(),
                  junk_.data(), junk_.data());
    staged_ = 0;
  }

 private:
  const Program& p_;
  const std::size_t n_pi_, block_;
  std::size_t staged_ = 0, vectors_ = 0;
  core::AlignedWords val_;
  std::vector<std::uint64_t> ones_, junk_, word_, carry_, q_, z_;
};

}  // namespace

TimedStats measure_timed_activity(const Netlist& net, std::size_t n_vectors,
                                  std::uint64_t seed,
                                  std::span<const double> pi_one_prob,
                                  const core::CancelToken* cancel) {
  // Sequential nets carry register state vector-to-vector: one serial shard
  // with the legacy stream.  Combinational nets shard; each shard starts
  // from the reset (all-zero) settled state, so the decomposition — a
  // function of n_vectors alone — fixes the counts at any thread count.
  auto plan = core::plan_shards(net.dffs().empty() ? n_vectors : 0, 64);
  const bool solo = plan.shards == 1;  // keeps `seed` and all n_vectors
  auto count = [&](std::size_t s) { return solo ? n_vectors : plan.count(s); };
  std::vector<std::uint64_t> thr;
  for (std::size_t i = 0; i < net.inputs().size(); ++i)
    thr.push_back(static_cast<std::uint64_t>(
        (pi_one_prob.empty() ? 0.5 : pi_one_prob[i]) * 65536.0));
  const Program prog(net, cancel);

  // Two chunks per lane (core::plan_chunks) so early finishers steal work.
  // A chunk runs its shard range on one Engine, whose staged block packs
  // words of consecutive shards, and adds its counts to `st` when done, so
  // only running chunks hold scratch.  Counts are exact integers, so the
  // merge order cannot change them at any thread count.
  const std::size_t n_chunks = core::plan_chunks(plan.shards);
  TimedStats st(net.size());
  std::mutex st_mu;
  auto run_chunk = [&](std::size_t c) {
    const std::size_t s_begin = c * plan.shards / n_chunks;
    const std::size_t s_end = (c + 1) * plan.shards / n_chunks;
    std::size_t words = 0;
    for (std::size_t s = s_begin; s < s_end; ++s) words += (count(s) + 63) / 64;
    Engine eng(prog, words);
    for (std::size_t s = s_begin; s < s_end; ++s) {
      core::poll_cancel(cancel);
      std::mt19937_64 rng(solo ? seed : core::shard_seed(seed, s));
      eng.stream(
          count(s),
          [&](std::size_t, std::size_t i) { return (rng() & 0xFFFF) < thr[i]; },
          cancel);
    }
    const std::lock_guard lk(st_mu);
    eng.add_to(st);
  };
  if (n_chunks == 1)
    run_chunk(0);
  else
    core::parallel_for(n_chunks, run_chunk);
  core::metrics::count("sim.event.runs");
  core::metrics::count("sim.event.vectors", static_cast<double>(st.vectors));
  core::metrics::count("sim.event.transitions", st.sum_total());
  return st;
}

TimedStats simulate_timed_sequence(
    const Netlist& net, const std::vector<std::vector<bool>>& sequence) {
  for (const auto& vec : sequence)
    if (vec.size() != net.inputs().size())
      throw std::invalid_argument(
          "simulate_timed_sequence: vector width mismatch");
  const Program prog(net, nullptr);
  Engine eng(prog, (sequence.size() + 63) / 64);
  eng.stream(
      sequence.size(),
      [&](std::size_t k, std::size_t i) { return sequence[k][i]; }, nullptr);
  TimedStats st(net.size());
  eng.add_to(st);
  return st;
}

std::size_t waveform_words(const Netlist& net) {
  return Program(net, nullptr).waveform_words;
}

}  // namespace lps::sim
