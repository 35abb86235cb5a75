// cube.hpp — cubes (product terms) over a fixed variable universe.
//
// Substrate for the two-level / algebraic layer of §III-A.3: kernel
// extraction and factoring manipulate sums of products.  A cube stores two
// bit vectors (positive and negative literal sets); a variable appearing in
// both is a contradiction and makes the cube empty.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace lps::sop {

class Cube {
 public:
  Cube() = default;
  explicit Cube(unsigned num_vars);
  /// Parse from a position string like "1-0": '1' positive literal,
  /// '0' negative, '-' absent.
  static Cube parse(const std::string& s);

  unsigned num_vars() const { return num_vars_; }

  bool has_pos(unsigned v) const { return bit(pos_, v); }
  bool has_neg(unsigned v) const { return bit(neg_, v); }
  bool has_var(unsigned v) const { return has_pos(v) || has_neg(v); }
  void set_pos(unsigned v) { set(pos_, v); }
  void set_neg(unsigned v) { set(neg_, v); }
  void clear_var(unsigned v) {
    clear(pos_, v);
    clear(neg_, v);
  }

  /// Number of literals in the cube.
  unsigned num_literals() const;
  /// True when some variable appears in both phases.
  bool contradictory() const;

  /// Cube containment: every literal of `other` appears in this cube, i.e.
  /// this ⊆ other as point sets.
  bool contained_in(const Cube& other) const;
  /// AND of two cubes (may be contradictory).
  Cube intersect(const Cube& other) const;
  /// Literals of this cube not present in `other` (algebraic cube division
  /// quotient when other ⊆ this).
  Cube minus(const Cube& other) const;
  /// Largest common cube (intersection of literal sets).
  Cube common(const Cube& other) const;
  /// True if the two cubes share no variables (algebraic disjointness).
  bool var_disjoint(const Cube& other) const;

  bool eval(const std::vector<bool>& assignment) const;

  std::string to_string() const;  // "1-0" form over num_vars
  bool operator==(const Cube&) const = default;
  /// Lexicographic order for canonical SOP sorting.
  bool operator<(const Cube& o) const;

 private:
  static bool bit(const std::vector<std::uint64_t>& w, unsigned v) {
    return v / 64 < w.size() && (w[v / 64] >> (v % 64) & 1);
  }
  static void set(std::vector<std::uint64_t>& w, unsigned v) {
    w[v / 64] |= 1ULL << (v % 64);
  }
  static void clear(std::vector<std::uint64_t>& w, unsigned v) {
    if (v / 64 < w.size()) w[v / 64] &= ~(1ULL << (v % 64));
  }

  unsigned num_vars_ = 0;
  std::vector<std::uint64_t> pos_, neg_;
};

}  // namespace lps::sop
