#include "sop/minimize.hpp"

#include <algorithm>

#include "sop/truth_table.hpp"

namespace lps::sop {

namespace {

// Cofactor of an SOP with respect to a single literal (var=value).
Sop literal_cofactor(const Sop& f, unsigned v, bool value) {
  Sop r(f.num_vars());
  for (const auto& c : f.cubes()) {
    if (value ? c.has_neg(v) : c.has_pos(v)) continue;  // cube vanishes
    Cube c2 = c;
    c2.clear_var(v);
    r.add_cube(std::move(c2));
  }
  return r;
}

// Most binate variable: appears in both phases in the most cubes.
int pick_split_var(const Sop& f) {
  int best = -1;
  int best_score = -1;
  for (unsigned v = 0; v < f.num_vars(); ++v) {
    int pos = 0, neg = 0;
    for (const auto& c : f.cubes()) {
      if (c.has_pos(v)) ++pos;
      if (c.has_neg(v)) ++neg;
    }
    if (pos + neg == 0) continue;
    int score = std::min(pos, neg) * 1000 + pos + neg;
    if (score > best_score) {
      best_score = score;
      best = static_cast<int>(v);
    }
  }
  return best;
}

}  // namespace

bool tautology(const Sop& f) {
  for (const auto& c : f.cubes())
    if (c.num_literals() == 0) return true;
  if (f.empty()) return false;
  int v = pick_split_var(f);
  if (v < 0) return false;  // no literals and no universal cube
  return tautology(literal_cofactor(f, v, false)) &&
         tautology(literal_cofactor(f, v, true));
}

bool cube_covered(const Cube& c, const Sop& f) {
  // f covers c iff f cofactored by c is a tautology.
  Sop g = f;
  for (unsigned v = 0; v < c.num_vars(); ++v) {
    if (c.has_pos(v)) g = literal_cofactor(g, v, true);
    if (c.has_neg(v)) g = literal_cofactor(g, v, false);
  }
  return tautology(g);
}

bool sop_equal(const Sop& a, const Sop& b) {
  for (const auto& c : a.cubes())
    if (!cube_covered(c, b)) return false;
  for (const auto& c : b.cubes())
    if (!cube_covered(c, a)) return false;
  return true;
}

namespace {

Sop union_of(const Sop& a, const Sop& b) {
  Sop r = a;
  for (const auto& c : b.cubes()) r.add_cube(c);
  return r;
}

// The region cube_covered(c, ·) tests: its cofactoring takes v = 1 for a
// variable present in both phases.
TruthTable tested_region(const Cube& c) {
  TruthTable t = TruthTable::ones();
  for (unsigned v = 0; v < c.num_vars(); ++v) {
    if (c.has_pos(v))
      t &= TruthTable::var(v);
    else if (c.has_neg(v))
      t &= ~TruthTable::var(v);
  }
  return t;
}

// The points of c as a member of a bound (none when contradictory).
TruthTable points(const Cube& c) {
  return c.contradictory() ? TruthTable{} : tested_region(c);
}

TruthTable points(const Sop& f) {
  TruthTable t;
  for (const auto& c : f.cubes()) t |= points(c);
  return t;
}

// Containment oracle for the passes.  SOPs over at most 8 variables answer
// on truth tables — (region(c) & ~bound) == 0, with the fixed bounds
// (expand's onset ∪ dc, reduce's onset, the dc set) computed once per
// minimize call.  Wider SOPs ask cube_covered on assembled bound SOPs.
// Both are exact, so the passes make the same decisions either way.
struct Oracle {
  bool tt = false;
  TruthTable bound, onset, dc;
};

bool uniform(const Sop& f, unsigned n) {
  if (f.num_vars() != n) return false;
  for (const auto& c : f.cubes())
    if (c.num_vars() != n) return false;
  return true;
}

// Expand every cube against the onset+dc bound; drop newly covered cubes.
bool expand_pass(Sop& cover, const Sop& bound, const Oracle& o) {
  bool changed = false;
  // Largest cubes first give the strongest covers.
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
      if (o.tt ? tested_region(trial).within(o.bound)
               : cube_covered(trial, bound)) {
        c = trial;
        changed = true;
      }
    }
  }
  // Remove cubes covered by a single other (SCC) — cheap cleanup.
  cover.minimize_scc();
  return changed;
}

// Remove cubes covered by the rest of the cover plus dc.
bool irredundant_pass(Sop& cover, const Sop& dc, const Oracle& o) {
  bool changed = false;
  std::vector<TruthTable> pts;
  if (o.tt)
    for (const auto& c : cover.cubes()) pts.push_back(points(c));
  for (std::size_t i = 0; i < cover.cubes().size();) {
    bool redundant;
    if (o.tt) {
      TruthTable rest = o.dc;
      for (std::size_t j = 0; j < pts.size(); ++j)
        if (j != i) rest |= pts[j];
      redundant = tested_region(cover.cubes()[i]).within(rest);
    } else {
      Sop rest(cover.num_vars());
      for (std::size_t j = 0; j < cover.cubes().size(); ++j)
        if (j != i) rest.add_cube(cover.cubes()[j]);
      redundant = cube_covered(cover.cubes()[i], union_of(rest, dc));
    }
    if (redundant) {
      cover.cubes().erase(cover.cubes().begin() + i);
      if (o.tt) pts.erase(pts.begin() + i);
      changed = true;
    } else {
      ++i;
    }
  }
  return changed;
}

// Shrink cubes while the cover still covers the required onset.
bool reduce_pass(Sop& cover, const Sop& onset, const Sop& dc,
                 const Oracle& o) {
  bool changed = false;
  std::vector<TruthTable> pts;
  if (o.tt)
    for (const auto& c : cover.cubes()) pts.push_back(points(c));
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
        // Still a valid cover of the onset?
        bool ok = true;
        if (o.tt) {
          TruthTable bound = o.dc;
          for (std::size_t j = 0; j < pts.size(); ++j)
            bound |= j == i ? points(trial) : pts[j];
          ok = o.onset.within(bound);
        } else {
          Sop bound = union_of(cover, dc);
          for (const auto& oc : onset.cubes())
            if (!cube_covered(oc, bound)) {
              ok = false;
              break;
            }
        }
        if (ok) {
          if (o.tt) pts[i] = points(trial);
          changed = true;
          break;  // keep the shrink; move to next variable
        }
        cover.cubes()[i] = saved;
      }
    }
  }
  return changed;
}

}  // namespace

Sop minimize(const Sop& f, const Sop& dc, MinimizeStats* stats) {
  Sop cover = f;
  cover.minimize_scc();
  if (stats) {
    stats->cubes_before = static_cast<unsigned>(cover.num_cubes());
    stats->literals_before = cover.num_literals();
  }
  Oracle o;
  o.tt = f.num_vars() <= TruthTable::kVars && uniform(f, f.num_vars()) &&
         uniform(dc, f.num_vars());
  const Sop bound = o.tt ? Sop() : union_of(f, dc);
  if (o.tt) {
    o.dc = points(dc);
    o.bound = points(f);
    o.bound |= o.dc;
    // Reduce checks each onset cube with cube_covered, whose region for a
    // contradictory cube is not empty.
    for (const auto& c : f.cubes()) o.onset |= tested_region(c);
  }

  int iter = 0;
  unsigned best_lits = cover.num_literals() + 1;
  while (iter < 4 && cover.num_literals() < best_lits) {
    best_lits = cover.num_literals();
    expand_pass(cover, bound, o);
    irredundant_pass(cover, dc, o);
    if (iter + 1 < 4) reduce_pass(cover, f, dc, o);
    expand_pass(cover, bound, o);
    irredundant_pass(cover, dc, o);
    ++iter;
  }
  if (stats) {
    stats->cubes_after = static_cast<unsigned>(cover.num_cubes());
    stats->literals_after = cover.num_literals();
    stats->iterations = iter;
  }
  return cover;
}

}  // namespace lps::sop
