// minimize.hpp — heuristic two-level minimization (Espresso-style loop).
//
// The survey leans on "a comprehensive treatment of combinational logic
// synthesis methods" [13]; the workhorse there is the two-level
// expand / irredundant / reduce loop.  This is a faithful small-scale
// implementation over the cube algebra of cube.hpp:
//   expand      — grow each cube literal-by-literal while it stays inside
//                 the function (onset ∪ don't-care set);
//   irredundant — drop cubes covered by the rest of the cover;
//   reduce      — shrink cubes to their essential part to open new expand
//                 directions.
// Containment checks are exact, so the result is a verified cover of the
// original function.  Over at most 8 variables each check is one 256-bit
// truth-table test, (region(c) & ~bound) == 0 (sop/truth_table.hpp), with
// the fixed bounds computed once per call; wider SOPs use tautology-based
// cofactor recursion.  Both answer every check alike, so the cover does not
// depend on the path.  Don't-care input makes this the natural consumer of
// the local don't-cares of logicopt/resynth.

#pragma once

#include "sop/sop.hpp"

namespace lps::sop {

struct MinimizeStats {
  unsigned cubes_before = 0;
  unsigned cubes_after = 0;
  unsigned literals_before = 0;
  unsigned literals_after = 0;
  int iterations = 0;
};

/// Does cube `c` lie entirely inside `f` (i.e. f covers c)?  Exact,
/// via cofactor-and-tautology recursion.
bool cube_covered(const Cube& c, const Sop& f);

/// Is f a tautology?  (Exact; exponential worst case, fine at test scale.)
bool tautology(const Sop& f);

/// Exact equivalence of two SOPs over the same variable universe.
bool sop_equal(const Sop& a, const Sop& b);

/// Espresso-style minimization of `f` with optional don't-care set `dc`.
/// Returns a cover g with  f ⊆ g ⊆ f ∪ dc  and (heuristically) fewer
/// literals.  Deterministic.
Sop minimize(const Sop& f, const Sop& dc, MinimizeStats* stats = nullptr);
inline Sop minimize(const Sop& f, MinimizeStats* stats = nullptr) {
  return minimize(f, Sop(f.num_vars()), stats);
}

}  // namespace lps::sop
