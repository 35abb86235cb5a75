#include "coding/residue.hpp"

#include <bit>
#include <numeric>
#include <random>

#include "netlist/benchmarks.hpp"
#include "sim/waveform.hpp"
#include <stdexcept>

namespace lps::coding {

OneHotRns::OneHotRns(std::vector<int> moduli) : moduli_(std::move(moduli)) {
  if (moduli_.empty()) throw std::invalid_argument("OneHotRns: no moduli");
  range_ = 1;
  for (std::size_t i = 0; i < moduli_.size(); ++i) {
    if (moduli_[i] < 2) throw std::invalid_argument("OneHotRns: modulus < 2");
    for (std::size_t j = i + 1; j < moduli_.size(); ++j)
      if (std::gcd(moduli_[i], moduli_[j]) != 1)
        throw std::invalid_argument("OneHotRns: moduli not coprime");
    range_ *= static_cast<std::uint64_t>(moduli_[i]);
  }
  // CRT coefficients: e_i = M_i * (M_i^{-1} mod m_i), M_i = range/m_i.
  for (int m : moduli_) {
    std::uint64_t Mi = range_ / static_cast<std::uint64_t>(m);
    // Modular inverse by brute force (moduli are small).
    std::uint64_t inv = 0;
    for (std::uint64_t t = 1; t < static_cast<std::uint64_t>(m); ++t)
      if ((Mi % m) * t % m == 1) {
        inv = t;
        break;
      }
    crt_coef_.push_back(Mi * inv % range_);
  }
}

std::vector<int> OneHotRns::encode(std::uint64_t x) const {
  std::vector<int> d;
  for (int m : moduli_) d.push_back(static_cast<int>(x % m));
  return d;
}

std::uint64_t OneHotRns::decode(const std::vector<int>& digits) const {
  std::uint64_t x = 0;
  for (std::size_t i = 0; i < moduli_.size(); ++i) {
    // Guard against overflow via __int128 accumulation.
    unsigned __int128 t = static_cast<unsigned __int128>(crt_coef_[i]) *
                          static_cast<unsigned>(digits[i]);
    x = static_cast<std::uint64_t>((x + t) % range_);
  }
  return x;
}

std::vector<int> OneHotRns::add(const std::vector<int>& a,
                                const std::vector<int>& b) const {
  std::vector<int> r(moduli_.size());
  for (std::size_t i = 0; i < moduli_.size(); ++i)
    r[i] = (a[i] + b[i]) % moduli_[i];
  return r;
}

std::vector<int> OneHotRns::mul(const std::vector<int>& a,
                                const std::vector<int>& b) const {
  std::vector<int> r(moduli_.size());
  for (std::size_t i = 0; i < moduli_.size(); ++i)
    r[i] = (a[i] * b[i]) % moduli_[i];
  return r;
}

int OneHotRns::onehot_transitions(const std::vector<int>& a,
                                  const std::vector<int>& b) const {
  int t = 0;
  for (std::size_t i = 0; i < moduli_.size(); ++i)
    if (a[i] != b[i]) t += 2;  // one wire falls, one rises
  return t;
}

int OneHotRns::num_wires() const {
  int w = 0;
  for (int m : moduli_) w += m;
  return w;
}

RnsStats evaluate_rns_accumulator(const OneHotRns& rns, std::size_t n_ops,
                                  std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  RnsStats st;
  int bbits = 1;
  while ((1ULL << bbits) < rns.range()) ++bbits;
  st.wires_binary = bbits;
  st.wires_onehot = rns.num_wires();

  // Gate-level binary adder driven with the actual accumulation stream:
  // its carry chain ripples and glitches (timed waveform count).
  auto adder = lps::bench::ripple_carry_adder(bbits);
  std::vector<std::vector<bool>> adds;
  auto apply_add = [&](std::uint64_t a, std::uint64_t b) {
    auto& pins = adds.emplace_back(adder.inputs().size(), false);
    for (int i = 0; i < bbits; ++i) {
      pins[i] = (a >> i & 1) != 0;
      pins[bbits + i] = (b >> i & 1) != 0;
    }
  };

  std::uint64_t acc = 0;
  auto digits = rns.encode(0);
  double tb = 0, to = 0;
  for (std::size_t i = 0; i < n_ops; ++i) {
    std::uint64_t operand = rng() % rns.range();
    std::uint64_t next = (acc + operand) % rns.range();
    auto ndig = rns.add(digits, rns.encode(operand));
    tb += std::popcount(acc ^ next);
    to += rns.onehot_transitions(digits, ndig);
    apply_add(acc, operand);
    acc = next;
    digits = std::move(ndig);
  }
  st.avg_transitions_binary = tb / static_cast<double>(n_ops);
  st.avg_transitions_onehot = to / static_cast<double>(n_ops);
  st.logic_transitions_binary =
      lps::sim::simulate_timed_sequence(adder, adds).sum_total() /
      static_cast<double>(n_ops);
  // One-hot modular add = rotate each digit's one-hot vector by the
  // operand residue: one wire falls, one rises, per digit, with no carry
  // logic in between.
  st.logic_transitions_onehot = st.avg_transitions_onehot;
  return st;
}

}  // namespace lps::coding
