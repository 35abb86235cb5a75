// minimize_reference.hpp — the cube-list Espresso loop, kept as the
// differential reference for sop::minimize.
//
// The production minimizer decides every containment question of an SOP
// over at most 8 variables on 256-bit truth tables.  This reference asks
// each one through sop::cube_covered (cofactor-and-tautology recursion on
// freshly assembled bound SOPs), exactly as the minimizer did before the
// truth-table path.  Both make the same decisions in the same order, so
// they must return the same cover, cube for cube, and the same stats.

#pragma once

#include <algorithm>

#include "sop/minimize.hpp"

namespace lps::reference {

namespace minimize_detail {

using sop::Cube;
using sop::Sop;

inline Sop union_of(const Sop& a, const Sop& b) {
  Sop r = a;
  for (const auto& c : b.cubes()) r.add_cube(c);
  return r;
}

inline bool expand_pass(Sop& cover, const Sop& bound) {
  bool changed = false;
  std::sort(cover.cubes().begin(), cover.cubes().end(),
            [](const Cube& a, const Cube& b) {
              return a.num_literals() < b.num_literals();
            });
  for (std::size_t i = 0; i < cover.cubes().size(); ++i) {
    Cube& c = cover.cubes()[i];
    for (unsigned v = 0; v < cover.num_vars(); ++v) {
      if (!c.has_var(v)) continue;
      Cube trial = c;
      trial.clear_var(v);
      if (sop::cube_covered(trial, bound)) {
        c = trial;
        changed = true;
      }
    }
  }
  cover.minimize_scc();
  return changed;
}

inline bool irredundant_pass(Sop& cover, const Sop& dc) {
  bool changed = false;
  for (std::size_t i = 0; i < cover.cubes().size();) {
    Sop rest(cover.num_vars());
    for (std::size_t j = 0; j < cover.cubes().size(); ++j)
      if (j != i) rest.add_cube(cover.cubes()[j]);
    Sop bound = union_of(rest, dc);
    if (sop::cube_covered(cover.cubes()[i], bound)) {
      cover.cubes().erase(cover.cubes().begin() + i);
      changed = true;
    } else {
      ++i;
    }
  }
  return changed;
}

inline bool reduce_pass(Sop& cover, const Sop& onset, const Sop& dc) {
  bool changed = false;
  for (std::size_t i = 0; i < cover.cubes().size(); ++i) {
    for (unsigned v = 0; v < cover.num_vars(); ++v) {
      if (cover.cubes()[i].has_var(v)) continue;
      for (bool phase : {false, true}) {
        Cube trial = cover.cubes()[i];
        if (phase)
          trial.set_pos(v);
        else
          trial.set_neg(v);
        Cube saved = cover.cubes()[i];
        cover.cubes()[i] = trial;
        Sop bound = union_of(cover, dc);
        bool ok = true;
        for (const auto& oc : onset.cubes())
          if (!sop::cube_covered(oc, bound)) {
            ok = false;
            break;
          }
        if (ok) {
          changed = true;
          break;
        }
        cover.cubes()[i] = saved;
      }
    }
  }
  return changed;
}

}  // namespace minimize_detail

inline sop::Sop minimize(const sop::Sop& f, const sop::Sop& dc,
                         sop::MinimizeStats* stats = nullptr) {
  using namespace minimize_detail;
  Sop cover = f;
  cover.minimize_scc();
  if (stats) {
    stats->cubes_before = static_cast<unsigned>(cover.num_cubes());
    stats->literals_before = cover.num_literals();
  }
  Sop bound = union_of(f, dc);

  int iter = 0;
  unsigned best_lits = cover.num_literals() + 1;
  while (iter < 4 && cover.num_literals() < best_lits) {
    best_lits = cover.num_literals();
    expand_pass(cover, bound);
    irredundant_pass(cover, dc);
    if (iter + 1 < 4) reduce_pass(cover, f, dc);
    expand_pass(cover, bound);
    irredundant_pass(cover, dc);
    ++iter;
  }
  if (stats) {
    stats->cubes_after = static_cast<unsigned>(cover.num_cubes());
    stats->literals_after = cover.num_literals();
    stats->iterations = iter;
  }
  return cover;
}

}  // namespace lps::reference
