// truth_table.hpp — 256-bit truth tables over at most 8 variables.
//
// Bit m of a table is the function's value at minterm m, where variable i
// is bit i of m.  A function of k < 8 variables embeds unchanged: it just
// ignores variables k..7, so containment and equality carry over.
// sop::minimize decides its containment checks on these tables, and window
// resynthesis (logicopt/resynth.cpp) tabulates a node's local function and
// don't-care set into them.

#pragma once

#include <array>
#include <compare>
#include <cstdint>

namespace lps::sop {

struct TruthTable {
  static constexpr unsigned kVars = 8;

  std::array<std::uint64_t, 4> w{};

  /// The projection function of variable v (< kVars).
  static constexpr TruthTable var(unsigned v) {
    constexpr std::uint64_t kLow[6] = {
        0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
        0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};
    TruthTable t;
    for (unsigned i = 0; i < 4; ++i)
      t.w[i] = v < 6 ? kLow[v] : (i >> (v - 6) & 1) ? ~0ull : 0ull;
    return t;
  }
  static constexpr TruthTable ones() { return ~TruthTable{}; }

  bool bit(unsigned m) const { return w[m >> 6] >> (m & 63) & 1; }
  void set(unsigned m) { w[m >> 6] |= 1ull << (m & 63); }

  constexpr TruthTable operator~() const {
    TruthTable r;
    for (unsigned i = 0; i < 4; ++i) r.w[i] = ~w[i];
    return r;
  }
  TruthTable& operator&=(const TruthTable& o) {
    for (unsigned i = 0; i < 4; ++i) w[i] &= o.w[i];
    return *this;
  }
  TruthTable& operator|=(const TruthTable& o) {
    for (unsigned i = 0; i < 4; ++i) w[i] |= o.w[i];
    return *this;
  }
  /// Every point of this table is a point of `o`.
  bool within(const TruthTable& o) const {
    std::uint64_t out = 0;
    for (unsigned i = 0; i < 4; ++i) out |= w[i] & ~o.w[i];
    return out == 0;
  }
  auto operator<=>(const TruthTable&) const = default;
};

}  // namespace lps::sop
