// rules_reference.hpp — the datapath rewrite rules as they ran before each
// rule had one structural match shared by enumeration and application, kept
// as the differential reference for logicopt::rewrite::match_rules and
// logicopt::rewrite::apply_rule.
//
// Here match_rules() and every apply_*() write each rule's shape out on
// their own.  The reference apply_rule() accepts a few variants the
// enumeration never builds (Reassoc and Carry run variant >= 2 as 1,
// Distrib ignores its variant, Share runs variant >= 4 as 3); the
// production code rejects those, so the tests compare the reference only
// on candidates match_rules() enumerates.

#pragma once

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "logicopt/rewrite/rules.hpp"
#include "netlist/netlist.hpp"

namespace lps::reference {

namespace rules_detail {

using logicopt::rewrite::Candidate;
using logicopt::rewrite::RuleKind;

inline GateType complement_of(GateType t) {
  switch (t) {
    case GateType::And: return GateType::Nand;
    case GateType::Nand: return GateType::And;
    case GateType::Or: return GateType::Nor;
    case GateType::Nor: return GateType::Or;
    case GateType::Xor: return GateType::Xnor;
    case GateType::Xnor: return GateType::Xor;
    default: return GateType::Input;  // sentinel: no complement form
  }
}

inline bool live_gate(const Netlist& net, NodeId n) {
  return n < net.size() && !net.is_dead(n) && !is_source(net.node(n).type) &&
         net.node(n).type != GateType::Dff;
}

inline bool is2(const Netlist& net, NodeId n, GateType t) {
  return live_gate(net, n) && net.node(n).type == t &&
         net.node(n).fanins.size() == 2;
}

inline bool is_po(const Netlist& net, NodeId n) {
  const auto& outs = net.outputs();
  return std::find(outs.begin(), outs.end(), n) != outs.end();
}

/// True when retiring `n`'s single use lets sweep() reclaim it.
inline bool retirable(const Netlist& net, NodeId n) {
  return net.node(n).fanouts.size() == 1 && !is_po(net, n);
}

inline std::vector<NodeId> sorted_fanins(const Netlist& net, NodeId n) {
  std::vector<NodeId> fi = net.node(n).fanins;
  std::sort(fi.begin(), fi.end());
  return fi;
}

/// Find a live gate computing exactly (t, fi) — fanin order significant for
/// non-commutative types, multiset-equal otherwise.  Scans the fanouts of
/// fi[0], so cost is local.  `avoid` excludes the node being replaced.
inline NodeId find_gate(const Netlist& net, GateType t,
                        const std::vector<NodeId>& fi, NodeId avoid) {
  if (fi.empty()) return kNoNode;
  std::vector<NodeId> want = fi;
  if (is_commutative(t)) std::sort(want.begin(), want.end());
  for (NodeId u : net.node(fi[0]).fanouts) {
    if (u == avoid || net.is_dead(u)) continue;
    const Node& nd = net.node(u);
    if (nd.type != t || nd.fanins.size() != fi.size()) continue;
    if (is_commutative(t)) {
      std::vector<NodeId> have = nd.fanins;
      std::sort(have.begin(), have.end());
      if (have == want) return u;
    } else if (nd.fanins == fi) {
      return u;
    }
  }
  return kNoNode;
}

/// Reuse an equivalent live gate when one exists, else build it.  Every
/// operand in `fi` lies strictly upstream of the rewrite target, so a found
/// node can never close a cycle through the target's users.
inline NodeId make_gate(Netlist& net, GateType t, std::vector<NodeId> fi,
                        NodeId avoid) {
  if (is_commutative(t)) std::sort(fi.begin(), fi.end());
  NodeId hit = find_gate(net, t, fi, avoid);
  if (hit != kNoNode) return hit;
  return net.add_gate(t, std::move(fi));
}

inline NodeId make_not(Netlist& net, NodeId a, NodeId avoid) {
  return make_gate(net, GateType::Not, {a}, avoid);
}

inline bool is_live_not(const Netlist& net, NodeId n) {
  return live_gate(net, n) && net.node(n).type == GateType::Not;
}

inline bool is_const(const Netlist& net, NodeId n, bool v) {
  return !net.is_dead(n) &&
         net.node(n).type == (v ? GateType::Const1 : GateType::Const0);
}

inline bool any_const(const Netlist& net, NodeId n) {
  return is_const(net, n, false) || is_const(net, n, true);
}

// ---- Fold ------------------------------------------------------------------
// variant 0: binary gate with a constant fanin (or two) folds to a constant,
// the other operand, or its inverter; variant 1: binary gate with equal
// fanins (And(x,x) -> x, Xor(x,x) -> 0, ...); variant 2: Buf(x) -> x and
// Not(const) -> const; variant 3: Mux with a constant select.

inline bool apply_fold(Netlist& net, const Candidate& cand) {
  NodeId n = cand.target;
  if (!live_gate(net, n)) return false;
  const Node& nd = net.node(n);
  NodeId repl = kNoNode;
  switch (cand.variant) {
    case 0: {
      if (!is_commutative(nd.type) || nd.fanins.size() != 2) return false;
      NodeId f0 = nd.fanins[0], f1 = nd.fanins[1];
      if (any_const(net, f0) && any_const(net, f1)) {
        std::vector<std::uint64_t> w{is_const(net, f0, true) ? ~0ull : 0ull,
                                     is_const(net, f1, true) ? ~0ull : 0ull};
        repl = net.add_const((eval_gate(nd.type, w) & 1ull) != 0);
      } else {
        NodeId x = any_const(net, f0) ? f1 : f0;
        NodeId cst = any_const(net, f0) ? f0 : f1;
        if (!any_const(net, cst) || x == n) return false;
        bool v = is_const(net, cst, true);
        switch (nd.type) {
          case GateType::And: repl = v ? x : net.add_const(false); break;
          case GateType::Nand:
            repl = v ? make_not(net, x, n) : net.add_const(true);
            break;
          case GateType::Or: repl = v ? net.add_const(true) : x; break;
          case GateType::Nor:
            repl = v ? net.add_const(false) : make_not(net, x, n);
            break;
          case GateType::Xor: repl = v ? make_not(net, x, n) : x; break;
          case GateType::Xnor: repl = v ? x : make_not(net, x, n); break;
          default: return false;
        }
      }
      break;
    }
    case 1: {
      if (!is_commutative(nd.type) || nd.fanins.size() != 2 ||
          nd.fanins[0] != nd.fanins[1])
        return false;
      NodeId x = nd.fanins[0];
      if (x == n) return false;
      switch (nd.type) {
        case GateType::And:
        case GateType::Or: repl = x; break;
        case GateType::Nand:
        case GateType::Nor: repl = make_not(net, x, n); break;
        case GateType::Xor: repl = net.add_const(false); break;
        case GateType::Xnor: repl = net.add_const(true); break;
        default: return false;
      }
      break;
    }
    case 2: {
      if (nd.type == GateType::Buf) {
        repl = nd.fanins[0];
      } else if (nd.type == GateType::Not && any_const(net, nd.fanins[0])) {
        repl = net.add_const(!is_const(net, nd.fanins[0], true));
      } else {
        return false;
      }
      break;
    }
    case 3: {
      if (nd.type != GateType::Mux || !any_const(net, nd.fanins[0]))
        return false;
      repl = is_const(net, nd.fanins[0], true) ? nd.fanins[2] : nd.fanins[1];
      break;
    }
    default:
      return false;
  }
  if (repl == kNoNode || repl == n) return false;
  net.substitute(n, repl);
  net.sweep();
  return true;
}

// ---- Reassoc ---------------------------------------------------------------

// n = OP(x, c) with x = OP(a, b), x retirable: regroup to OP(a, OP(b,c))
// (variant 0) or OP(b, OP(a,c)) (variant 1).  Returns the chain parts via
// out params; false when n is not a reassociation site.
inline bool match_reassoc(const Netlist& net, NodeId n, NodeId& a,
                          NodeId& b, NodeId& c, GateType& t) {
  if (!live_gate(net, n)) return false;
  t = net.node(n).type;
  if (t != GateType::And && t != GateType::Or && t != GateType::Xor)
    return false;
  if (net.node(n).fanins.size() != 2) return false;
  for (int k = 0; k < 2; ++k) {
    NodeId x = net.node(n).fanins[k];
    NodeId other = net.node(n).fanins[1 - k];
    if (x == other || !is2(net, x, t) || !retirable(net, x)) continue;
    a = net.node(x).fanins[0];
    b = net.node(x).fanins[1];
    c = other;
    if (c == a || c == b || a == b) continue;
    return true;
  }
  return false;
}

inline bool apply_reassoc(Netlist& net, const Candidate& cand) {
  NodeId a, b, c;
  GateType t;
  if (!match_reassoc(net, cand.target, a, b, c, t)) return false;
  NodeId in0 = (cand.variant == 0) ? b : a;
  NodeId keep = (cand.variant == 0) ? a : b;
  NodeId inner = make_gate(net, t, {in0, c}, cand.target);
  NodeId outer = make_gate(net, t, {keep, inner}, cand.target);
  if (outer == cand.target) return false;
  net.substitute(cand.target, outer);
  net.sweep();
  return true;
}

// ---- InvPush ---------------------------------------------------------------
// variant 0/1: Xor/Xnor absorbs a Not at fanin 0/1 (parity flip);
// variant 2: Not(Not(a)) -> a;
// variant 3: Not(gate) -> complemented gate (retirable inner, any arity);
// variant 4: Nand/Nor with both fanins inverted -> De Morgan dual.

inline bool apply_inv_push(Netlist& net, const Candidate& cand) {
  NodeId n = cand.target;
  if (!live_gate(net, n)) return false;
  const Node& nd = net.node(n);
  if (cand.variant <= 1) {
    if ((nd.type != GateType::Xor && nd.type != GateType::Xnor) ||
        nd.fanins.size() != 2 || nd.fanins[0] == nd.fanins[1])
      return false;
    NodeId inv = nd.fanins[cand.variant];
    NodeId other = nd.fanins[1 - cand.variant];
    if (!is_live_not(net, inv)) return false;
    NodeId b = net.node(inv).fanins[0];
    if (b == other) return false;
    GateType flipped =
        nd.type == GateType::Xor ? GateType::Xnor : GateType::Xor;
    NodeId repl = make_gate(net, flipped, {other, b}, n);
    if (repl == n) return false;
    net.substitute(n, repl);
    net.sweep();
    return true;
  }
  if (cand.variant == 2) {
    if (nd.type != GateType::Not) return false;
    NodeId inner = nd.fanins[0];
    if (!is_live_not(net, inner)) return false;
    NodeId back = net.node(inner).fanins[0];
    if (back == n) return false;
    net.substitute(n, back);
    net.sweep();
    return true;
  }
  if (cand.variant == 3) {
    if (nd.type != GateType::Not) return false;
    NodeId inner = nd.fanins[0];
    if (!live_gate(net, inner) || !retirable(net, inner)) return false;
    GateType comp = complement_of(net.node(inner).type);
    if (comp == GateType::Input) return false;
    NodeId repl = make_gate(net, comp, net.node(inner).fanins, n);
    if (repl == n) return false;
    net.substitute(n, repl);
    net.sweep();
    return true;
  }
  if (cand.variant == 4) {
    if ((nd.type != GateType::Nand && nd.type != GateType::Nor) ||
        nd.fanins.size() != 2)
      return false;
    NodeId i0 = nd.fanins[0], i1 = nd.fanins[1];
    if (!is_live_not(net, i0) || !is_live_not(net, i1)) return false;
    NodeId a = net.node(i0).fanins[0];
    NodeId b = net.node(i1).fanins[0];
    GateType dual = nd.type == GateType::Nand ? GateType::Or : GateType::And;
    NodeId repl = (a == b) ? a : make_gate(net, dual, {a, b}, n);
    if (repl == n) return false;
    net.substitute(n, repl);
    net.sweep();
    return true;
  }
  return false;
}

// ---- Share -----------------------------------------------------------------
// variant 0: complement partner — target computes ~aux over the same
// operands, so it becomes Not(aux); variant 1: exact duplicate of aux;
// variants 2/3: through-inverter sharing for the parity gates.  A target
// t(x, ~y) with t in {Xor, Xnor} equals comp_t(x, y), so it can reuse a
// live comp_t(x, y) directly (variant 2) or a live t(x, y) under an
// inverter (variant 3) — the bridge between a butterfly's sum chain
// (Xor(a, b)) and its difference chain (Xor(a, ~b)) that neither strash
// nor the plain complement share can see in one step.

// When n is t(x, Not(y)) with t parity, yields x and y; false otherwise.
inline bool parity_thru_inv(const Netlist& net, NodeId n, NodeId& x,
                            NodeId& y) {
  if (!live_gate(net, n)) return false;
  const Node& nd = net.node(n);
  if ((nd.type != GateType::Xor && nd.type != GateType::Xnor) ||
      nd.fanins.size() != 2 || nd.fanins[0] == nd.fanins[1])
    return false;
  for (int k = 0; k < 2; ++k) {
    NodeId inv = nd.fanins[k];
    if (!is_live_not(net, inv)) continue;
    x = nd.fanins[1 - k];
    y = net.node(inv).fanins[0];
    if (y != x && y != n && x != n) return true;
  }
  return false;
}

inline bool apply_share(Netlist& net, const Candidate& cand) {
  NodeId n = cand.target, m = cand.aux;
  if (n == m || !live_gate(net, n) || !live_gate(net, m)) return false;
  GateType tn = net.node(n).type, tm = net.node(m).type;
  if (cand.variant >= 2) {
    NodeId x, y;
    if (!parity_thru_inv(net, n, x, y)) return false;
    std::vector<NodeId> want{x, y};
    std::sort(want.begin(), want.end());
    if (sorted_fanins(net, m) != want) return false;
    GateType comp = complement_of(tn);
    NodeId repl;
    if (cand.variant == 2) {
      if (tm != comp) return false;
      repl = m;  // t(x, ~y) == comp_t(x, y): share outright
    } else {
      if (tm != tn) return false;
      repl = make_not(net, m, n);
    }
    if (repl == n) return false;
    net.substitute(n, repl);
    net.sweep();
    return true;
  }
  if (sorted_fanins(net, n) != sorted_fanins(net, m)) return false;
  if (cand.variant == 1) {
    if (tn != tm) return false;
    if (!is_commutative(tn) && net.node(n).fanins != net.node(m).fanins)
      return false;
    net.substitute(n, m);
    net.sweep();
    return true;
  }
  if (complement_of(tn) != tm || !is_commutative(tn)) return false;
  NodeId repl = make_not(net, m, n);
  if (repl == n) return false;
  net.substitute(n, repl);
  net.sweep();
  return true;
}

// ---- MuxRule ---------------------------------------------------------------
// Mux fanins are (s, a, b) computing s ? b : a.
// variant 0: inverted select; 1: equal arms; 2: constant arm folds;
// 3: same-select cascade in an arm; 4: common-operand arm factoring.

inline bool apply_mux(Netlist& net, const Candidate& cand) {
  NodeId n = cand.target;
  if (!live_gate(net, n) || net.node(n).type != GateType::Mux) return false;
  NodeId s = net.node(n).fanins[0];
  NodeId a = net.node(n).fanins[1];
  NodeId b = net.node(n).fanins[2];
  switch (cand.variant) {
    case 0: {
      if (!is_live_not(net, s)) return false;
      NodeId t = net.node(s).fanins[0];
      if (t == n) return false;
      NodeId repl = make_gate(net, GateType::Mux, {t, b, a}, n);
      if (repl == n) return false;
      net.substitute(n, repl);
      net.sweep();
      return true;
    }
    case 1: {
      if (a != b || a == n) return false;
      net.substitute(n, a);
      net.sweep();
      return true;
    }
    case 2: {
      if (!any_const(net, a) && !any_const(net, b)) return false;
      NodeId repl = kNoNode;
      if (any_const(net, a) && any_const(net, b)) {
        bool va = is_const(net, a, true), vb = is_const(net, b, true);
        if (va == vb)
          repl = a;
        else if (vb)  // s ? 1 : 0 = s
          repl = s;
        else  // s ? 0 : 1 = ~s
          repl = make_not(net, s, n);
      } else if (is_const(net, a, false)) {  // s ? b : 0 = s & b
        repl = make_gate(net, GateType::And, {s, b}, n);
      } else if (is_const(net, a, true)) {  // s ? b : 1 = ~s | b
        repl = make_gate(net, GateType::Or, {make_not(net, s, n), b}, n);
      } else if (is_const(net, b, false)) {  // s ? 0 : a = ~s & a
        repl = make_gate(net, GateType::And, {make_not(net, s, n), a}, n);
      } else {  // s ? 1 : a = s | a
        repl = make_gate(net, GateType::Or, {s, a}, n);
      }
      if (repl == n || repl == kNoNode) return false;
      net.substitute(n, repl);
      net.sweep();
      return true;
    }
    case 3: {
      bool changed = false;
      if (live_gate(net, a) && net.node(a).type == GateType::Mux &&
          net.node(a).fanins[0] == s && a != n) {
        net.replace_fanin(n, 1, net.node(a).fanins[1]);
        changed = true;
      }
      // Re-read b: the first edit never changes slot 2, but stay exact.
      b = net.node(n).fanins[2];
      if (live_gate(net, b) && net.node(b).type == GateType::Mux &&
          net.node(b).fanins[0] == s && b != n) {
        net.replace_fanin(n, 2, net.node(b).fanins[2]);
        changed = true;
      }
      if (changed) net.sweep();
      return changed;
    }
    case 4: {
      if (a == b || !live_gate(net, a) || !live_gate(net, b)) return false;
      GateType op = net.node(a).type;
      if (op != GateType::And && op != GateType::Or && op != GateType::Xor)
        return false;
      if (net.node(b).type != op || net.node(a).fanins.size() != 2 ||
          net.node(b).fanins.size() != 2)
        return false;
      if (!retirable(net, a) || !retirable(net, b)) return false;
      for (int i = 0; i < 2; ++i) {
        NodeId x = net.node(a).fanins[i];
        for (int j = 0; j < 2; ++j) {
          if (net.node(b).fanins[j] != x) continue;
          NodeId y = net.node(a).fanins[1 - i];
          NodeId z = net.node(b).fanins[1 - j];
          NodeId inner = make_gate(net, GateType::Mux, {s, y, z}, n);
          NodeId repl = make_gate(net, op, {x, inner}, n);
          if (repl == n) return false;
          net.substitute(n, repl);
          net.sweep();
          return true;
        }
      }
      return false;
    }
    default:
      return false;
  }
}

// ---- Carry -----------------------------------------------------------------
// n = Or(And(a,b), And(x,c)).  variant 0: x = Xor(a,b) -> And((a|b), c);
// variant 1: x = Or(a,b) -> And((a^b), c).  Both sides equal
// majority(a,b,c) given the And(a,b) term, so the identity is exact.

inline bool apply_carry(Netlist& net, const Candidate& cand) {
  NodeId n = cand.target;
  if (!is2(net, n, GateType::Or)) return false;
  GateType from =
      cand.variant == 0 ? GateType::Xor : GateType::Or;
  GateType to = cand.variant == 0 ? GateType::Or : GateType::Xor;
  for (int k = 0; k < 2; ++k) {
    NodeId g = net.node(n).fanins[k];      // the And(a,b) kept as-is
    NodeId h = net.node(n).fanins[1 - k];  // the And(prop, c) restructured
    if (g == h || !is2(net, g, GateType::And) || !is2(net, h, GateType::And))
      continue;
    if (!retirable(net, h)) continue;
    auto ab = sorted_fanins(net, g);
    if (ab[0] == ab[1]) continue;
    for (int m = 0; m < 2; ++m) {
      NodeId x = net.node(h).fanins[m];
      NodeId c = net.node(h).fanins[1 - m];
      if (x == c || !is2(net, x, from)) continue;
      if (sorted_fanins(net, x) != ab) continue;
      NodeId prop = make_gate(net, to, {ab[0], ab[1]}, n);
      NodeId new_h = make_gate(net, GateType::And, {prop, c}, n);
      NodeId repl = make_gate(net, GateType::Or, {g, new_h}, n);
      if (repl == n) return false;
      net.substitute(n, repl);
      net.sweep();
      return true;
    }
  }
  return false;
}

// ---- Distrib ---------------------------------------------------------------
// Or(And(a,x), And(a,y)) -> And(a, Or(x,y)) and the And/Or dual
// ((a|x)(a|y) = a | xy).

inline bool apply_distrib(Netlist& net, const Candidate& cand) {
  NodeId n = cand.target;
  GateType outer, inner;
  if (is2(net, n, GateType::Or)) {
    outer = GateType::Or;
    inner = GateType::And;
  } else if (is2(net, n, GateType::And)) {
    outer = GateType::And;
    inner = GateType::Or;
  } else {
    return false;
  }
  NodeId p = net.node(n).fanins[0], q = net.node(n).fanins[1];
  if (p == q || !is2(net, p, inner) || !is2(net, q, inner)) return false;
  if (!retirable(net, p) || !retirable(net, q)) return false;
  for (int i = 0; i < 2; ++i) {
    NodeId a = net.node(p).fanins[i];
    for (int j = 0; j < 2; ++j) {
      if (net.node(q).fanins[j] != a) continue;
      NodeId x = net.node(p).fanins[1 - i];
      NodeId y = net.node(q).fanins[1 - j];
      NodeId rest = (x == y) ? x : make_gate(net, outer, {x, y}, n);
      NodeId repl = make_gate(net, inner, {a, rest}, n);
      if (repl == n) return false;
      net.substitute(n, repl);
      net.sweep();
      return true;
    }
  }
  return false;
}


struct MatchOptions {
  bool fold = true;
  bool reassoc = true;
  bool inv_push = true;
  bool share = true;
  bool mux = true;
  bool carry = true;
  bool distrib = true;
};

inline std::vector<Candidate> match_rules(const Netlist& net,
                                          const MatchOptions& opt) {
  std::vector<Candidate> out;
  const NodeId n_nodes = static_cast<NodeId>(net.size());

  if (opt.fold) {
    for (NodeId n = 0; n < n_nodes; ++n) {
      if (!live_gate(net, n)) continue;
      const Node& nd = net.node(n);
      if (nd.type == GateType::Buf ||
          (nd.type == GateType::Not && any_const(net, nd.fanins[0]))) {
        out.push_back({RuleKind::Fold, n, 2, kNoNode});
      } else if (nd.type == GateType::Mux && any_const(net, nd.fanins[0])) {
        out.push_back({RuleKind::Fold, n, 3, kNoNode});
      } else if (is_commutative(nd.type) && nd.fanins.size() == 2) {
        if (any_const(net, nd.fanins[0]) || any_const(net, nd.fanins[1]))
          out.push_back({RuleKind::Fold, n, 0, kNoNode});
        else if (nd.fanins[0] == nd.fanins[1])
          out.push_back({RuleKind::Fold, n, 1, kNoNode});
      }
    }
  }
  if (opt.reassoc) {
    for (NodeId n = 0; n < n_nodes; ++n) {
      NodeId a, b, c;
      GateType t;
      if (!match_reassoc(net, n, a, b, c, t)) continue;
      out.push_back({RuleKind::Reassoc, n, 0, kNoNode});
      out.push_back({RuleKind::Reassoc, n, 1, kNoNode});
    }
  }
  if (opt.inv_push) {
    for (NodeId n = 0; n < n_nodes; ++n) {
      if (!live_gate(net, n)) continue;
      const Node& nd = net.node(n);
      if ((nd.type == GateType::Xor || nd.type == GateType::Xnor) &&
          nd.fanins.size() == 2 && nd.fanins[0] != nd.fanins[1]) {
        for (std::uint8_t k = 0; k < 2; ++k)
          if (is_live_not(net, nd.fanins[k]) &&
              net.node(nd.fanins[k]).fanins[0] != nd.fanins[1 - k])
            out.push_back({RuleKind::InvPush, n, k, kNoNode});
      } else if (nd.type == GateType::Not) {
        NodeId inner = nd.fanins[0];
        if (is_live_not(net, inner)) {
          out.push_back({RuleKind::InvPush, n, 2, kNoNode});
        } else if (live_gate(net, inner) && retirable(net, inner) &&
                   complement_of(net.node(inner).type) != GateType::Input) {
          out.push_back({RuleKind::InvPush, n, 3, kNoNode});
        }
      } else if ((nd.type == GateType::Nand || nd.type == GateType::Nor) &&
                 nd.fanins.size() == 2 && is_live_not(net, nd.fanins[0]) &&
                 is_live_not(net, nd.fanins[1])) {
        out.push_back({RuleKind::InvPush, n, 4, kNoNode});
      }
    }
  }
  if (opt.share) {
    // One ascending scan; each gate keys on (type, sorted fanins).  A later
    // node pairs with the first earlier holder of its duplicate or
    // complement key.
    struct KeyHash {
      std::size_t operator()(const std::pair<int, std::vector<NodeId>>& k)
          const {
        std::size_t h = static_cast<std::size_t>(k.first) * 0x9E3779B97F4A7C15ull;
        for (NodeId f : k.second) h = h * 0x100000001B3ull ^ f;
        return h;
      }
    };
    std::unordered_map<std::pair<int, std::vector<NodeId>>, NodeId, KeyHash>
        seen;
    for (NodeId n = 0; n < n_nodes; ++n) {
      if (!live_gate(net, n)) continue;
      GateType t = net.node(n).type;
      if (!is_commutative(t) && t != GateType::Not) continue;
      auto fi = sorted_fanins(net, n);
      auto dup = seen.find({static_cast<int>(t), fi});
      if (dup != seen.end())
        out.push_back({RuleKind::Share, n, 1, dup->second});
      GateType comp = complement_of(t);
      if (comp != GateType::Input) {
        auto c = seen.find({static_cast<int>(comp), fi});
        if (c != seen.end())
          out.push_back({RuleKind::Share, n, 0, c->second});
      }
      // Parity-through-inverter: t(x, ~y) pairs with an earlier gate over
      // {x, y} of the complement type (direct share) or the same type
      // (share under an inverter).
      NodeId x, y;
      if (parity_thru_inv(net, n, x, y)) {
        std::vector<NodeId> key{x, y};
        std::sort(key.begin(), key.end());
        auto direct = seen.find({static_cast<int>(comp), key});
        if (direct != seen.end())
          out.push_back({RuleKind::Share, n, 2, direct->second});
        auto inv = seen.find({static_cast<int>(t), key});
        if (inv != seen.end())
          out.push_back({RuleKind::Share, n, 3, inv->second});
      }
      seen.emplace(std::pair{static_cast<int>(t), std::move(fi)}, n);
    }
  }
  if (opt.mux) {
    for (NodeId n = 0; n < n_nodes; ++n) {
      if (!live_gate(net, n) || net.node(n).type != GateType::Mux) continue;
      NodeId s = net.node(n).fanins[0];
      NodeId a = net.node(n).fanins[1];
      NodeId b = net.node(n).fanins[2];
      if (is_live_not(net, s)) out.push_back({RuleKind::MuxRule, n, 0, kNoNode});
      if (a == b) {
        out.push_back({RuleKind::MuxRule, n, 1, kNoNode});
        continue;
      }
      if (any_const(net, a) || any_const(net, b))
        out.push_back({RuleKind::MuxRule, n, 2, kNoNode});
      if ((live_gate(net, a) && net.node(a).type == GateType::Mux &&
           net.node(a).fanins[0] == s) ||
          (live_gate(net, b) && net.node(b).type == GateType::Mux &&
           net.node(b).fanins[0] == s))
        out.push_back({RuleKind::MuxRule, n, 3, kNoNode});
      if (live_gate(net, a) && live_gate(net, b) &&
          net.node(a).type == net.node(b).type &&
          (net.node(a).type == GateType::And ||
           net.node(a).type == GateType::Or ||
           net.node(a).type == GateType::Xor) &&
          net.node(a).fanins.size() == 2 && net.node(b).fanins.size() == 2 &&
          retirable(net, a) && retirable(net, b)) {
        bool common = false;
        for (int i = 0; i < 2 && !common; ++i)
          for (int j = 0; j < 2 && !common; ++j)
            common = net.node(a).fanins[i] == net.node(b).fanins[j];
        if (common) out.push_back({RuleKind::MuxRule, n, 4, kNoNode});
      }
    }
  }
  if (opt.carry) {
    for (NodeId n = 0; n < n_nodes; ++n) {
      if (!is2(net, n, GateType::Or)) continue;
      for (std::uint8_t dir = 0; dir < 2; ++dir) {
        Candidate c{RuleKind::Carry, n, dir, kNoNode};
        // Probe the matcher without mutating: clone-free structural check.
        GateType from = dir == 0 ? GateType::Xor : GateType::Or;
        bool hit = false;
        for (int k = 0; k < 2 && !hit; ++k) {
          NodeId g = net.node(n).fanins[k];
          NodeId h = net.node(n).fanins[1 - k];
          if (g == h || !is2(net, g, GateType::And) ||
              !is2(net, h, GateType::And) || !retirable(net, h))
            continue;
          auto ab = sorted_fanins(net, g);
          if (ab[0] == ab[1]) continue;
          for (int m = 0; m < 2 && !hit; ++m) {
            NodeId x = net.node(h).fanins[m];
            hit = x != net.node(h).fanins[1 - m] && is2(net, x, from) &&
                  sorted_fanins(net, x) == ab;
          }
        }
        if (hit) out.push_back(c);
      }
    }
  }
  if (opt.distrib) {
    for (NodeId n = 0; n < n_nodes; ++n) {
      GateType inner;
      if (is2(net, n, GateType::Or))
        inner = GateType::And;
      else if (is2(net, n, GateType::And))
        inner = GateType::Or;
      else
        continue;
      NodeId p = net.node(n).fanins[0], q = net.node(n).fanins[1];
      if (p == q || !is2(net, p, inner) || !is2(net, q, inner)) continue;
      if (!retirable(net, p) || !retirable(net, q)) continue;
      bool common = false;
      for (int i = 0; i < 2 && !common; ++i)
        for (int j = 0; j < 2 && !common; ++j)
          common = net.node(p).fanins[i] == net.node(q).fanins[j];
      if (common) out.push_back({RuleKind::Distrib, n, 0, kNoNode});
    }
  }
  return out;
}

}  // namespace rules_detail

/// Reference enumeration; `fold_only` is the engine's fold prephase.
inline std::vector<logicopt::rewrite::Candidate> match_rules(
    const Netlist& net, bool fold_only = false) {
  rules_detail::MatchOptions opt;
  if (fold_only) {
    opt.reassoc = opt.inv_push = opt.share = false;
    opt.mux = opt.carry = opt.distrib = false;
  }
  return rules_detail::match_rules(net, opt);
}

inline bool apply_rule(Netlist& net, const logicopt::rewrite::Candidate& c) {
  using logicopt::rewrite::RuleKind;
  switch (c.rule) {
    case RuleKind::Fold: return rules_detail::apply_fold(net, c);
    case RuleKind::Reassoc: return rules_detail::apply_reassoc(net, c);
    case RuleKind::InvPush: return rules_detail::apply_inv_push(net, c);
    case RuleKind::Share: return rules_detail::apply_share(net, c);
    case RuleKind::MuxRule: return rules_detail::apply_mux(net, c);
    case RuleKind::Carry: return rules_detail::apply_carry(net, c);
    case RuleKind::Distrib: return rules_detail::apply_distrib(net, c);
  }
  return false;
}

}  // namespace lps::reference
