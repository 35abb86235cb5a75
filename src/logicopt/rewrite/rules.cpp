#include "logicopt/rewrite/rules.hpp"

#include <algorithm>
#include <iterator>
#include <optional>
#include <unordered_map>

namespace lps::logicopt::rewrite {

namespace {

GateType complement_of(GateType t) {
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

bool live_gate(const Netlist& net, NodeId n) {
  return n < net.size() && !net.is_dead(n) && !is_source(net.node(n).type) &&
         net.node(n).type != GateType::Dff;
}

bool is2(const Netlist& net, NodeId n, GateType t) {
  return live_gate(net, n) && net.node(n).type == t &&
         net.node(n).fanins.size() == 2;
}

bool is_po(const Netlist& net, NodeId n) {
  const auto& outs = net.outputs();
  return std::find(outs.begin(), outs.end(), n) != outs.end();
}

/// True when retiring `n`'s single use lets sweep() reclaim it.
bool retirable(const Netlist& net, NodeId n) {
  return net.node(n).fanouts.size() == 1 && !is_po(net, n);
}

std::vector<NodeId> sorted_fanins(const Netlist& net, NodeId n) {
  std::vector<NodeId> fi = net.node(n).fanins;
  std::sort(fi.begin(), fi.end());
  return fi;
}

/// Find a live gate computing exactly (t, fi) — fanin order significant for
/// non-commutative types, multiset-equal otherwise.  Scans the fanouts of
/// fi[0], so cost is local.  `avoid` excludes the node being replaced.
NodeId find_gate(const Netlist& net, GateType t, const std::vector<NodeId>& fi,
                 NodeId avoid) {
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
NodeId make_gate(Netlist& net, GateType t, std::vector<NodeId> fi,
                 NodeId avoid) {
  if (is_commutative(t)) std::sort(fi.begin(), fi.end());
  NodeId hit = find_gate(net, t, fi, avoid);
  if (hit != kNoNode) return hit;
  return net.add_gate(t, std::move(fi));
}

NodeId make_not(Netlist& net, NodeId a, NodeId avoid) {
  return make_gate(net, GateType::Not, {a}, avoid);
}

bool is_live_not(const Netlist& net, NodeId n) {
  return live_gate(net, n) && net.node(n).type == GateType::Not;
}

bool is_const(const Netlist& net, NodeId n, bool v) {
  return !net.is_dead(n) &&
         net.node(n).type == (v ? GateType::Const1 : GateType::Const0);
}

bool any_const(const Netlist& net, NodeId n) {
  return is_const(net, n, false) || is_const(net, n, true);
}

/// A matched site's bindings: the operands and gate type its rewrite is
/// built from.  Each rule's section names what it binds; a rule that
/// rebuilds from the target's own fanins binds nothing.
struct Site {
  NodeId a = kNoNode, b = kNoNode, c = kNoNode;
  GateType t = GateType::Input;
};
using Match = std::optional<Site>;

/// The first (i, j) with x.fanins[i] == y.fanins[j] over two binary gates,
/// binding the shared operand and the two others; nothing when none is.
Match common_operand(const Netlist& net, NodeId x, NodeId y, GateType t) {
  for (int i = 0; i < 2; ++i)
    for (int j = 0; j < 2; ++j)
      if (net.node(x).fanins[i] == net.node(y).fanins[j])
        return Site{net.node(x).fanins[i], net.node(x).fanins[1 - i],
                    net.node(y).fanins[1 - j], t};
  return std::nullopt;
}

// ---- Fold ------------------------------------------------------------------
// variant 0: binary gate with a constant fanin (or two) folds to a constant,
// the other operand, or its inverter; variant 1: binary gate with equal
// fanins (And(x,x) -> x, Xor(x,x) -> 0, ...); variant 2: Buf(x) -> x and
// Not(const) -> const; variant 3: Mux with a constant select.  Binds
// nothing.

Match match_fold(const Netlist& net, NodeId n, std::uint8_t v) {
  const Node& nd = net.node(n);
  const bool binary = is_commutative(nd.type) && nd.fanins.size() == 2;
  bool hit = false;
  switch (v) {
    case 0:
      hit = binary &&
            (any_const(net, nd.fanins[0]) || any_const(net, nd.fanins[1]));
      break;
    case 1: hit = binary && nd.fanins[0] == nd.fanins[1]; break;
    case 2:
      hit = nd.type == GateType::Buf ||
            (nd.type == GateType::Not && any_const(net, nd.fanins[0]));
      break;
    case 3:
      hit = nd.type == GateType::Mux && any_const(net, nd.fanins[0]);
      break;
  }
  return hit ? Match{Site{}} : std::nullopt;
}

NodeId build_fold(Netlist& net, NodeId n, std::uint8_t v) {
  const GateType t = net.node(n).type;
  const NodeId f0 = net.node(n).fanins[0];
  if (v == 2)
    return t == GateType::Buf ? f0
                              : net.add_const(!is_const(net, f0, true));
  if (v == 3)
    return net.node(n).fanins[is_const(net, f0, true) ? 2 : 1];
  const NodeId f1 = net.node(n).fanins[1];
  if (v == 1) {
    switch (t) {
      case GateType::And:
      case GateType::Or: return f0;
      case GateType::Nand:
      case GateType::Nor: return make_not(net, f0, n);
      default: return net.add_const(t == GateType::Xnor);
    }
  }
  if (any_const(net, f0) && any_const(net, f1)) {
    std::vector<std::uint64_t> w{is_const(net, f0, true) ? ~0ull : 0ull,
                                 is_const(net, f1, true) ? ~0ull : 0ull};
    return net.add_const((eval_gate(t, w) & 1ull) != 0);
  }
  const NodeId x = any_const(net, f0) ? f1 : f0;
  const bool one = is_const(net, any_const(net, f0) ? f0 : f1, true);
  switch (t) {
    case GateType::And: return one ? x : net.add_const(false);
    case GateType::Nand: return one ? make_not(net, x, n) : net.add_const(true);
    case GateType::Or: return one ? net.add_const(true) : x;
    case GateType::Nor: return one ? net.add_const(false) : make_not(net, x, n);
    case GateType::Xor: return one ? make_not(net, x, n) : x;
    default: return one ? x : make_not(net, x, n);  // Xnor
  }
}

// ---- Reassoc ---------------------------------------------------------------
// n = OP(x, c) with x = OP(a, b), x retirable: regroup to OP(a, OP(b,c))
// (variant 0) or OP(b, OP(a,c)) (variant 1).  Binds a, b, c and OP.

Match match_reassoc(const Netlist& net, NodeId n, std::uint8_t v) {
  const GateType t = net.node(n).type;
  if (v > 1 || (t != GateType::And && t != GateType::Or && t != GateType::Xor))
    return std::nullopt;
  if (net.node(n).fanins.size() != 2) return std::nullopt;
  for (int k = 0; k < 2; ++k) {
    NodeId x = net.node(n).fanins[k];
    NodeId other = net.node(n).fanins[1 - k];
    if (x == other || !is2(net, x, t) || !retirable(net, x)) continue;
    NodeId a = net.node(x).fanins[0], b = net.node(x).fanins[1];
    if (other == a || other == b || a == b) continue;
    return Site{a, b, other, t};
  }
  return std::nullopt;
}

NodeId build_reassoc(Netlist& net, NodeId n, std::uint8_t v, const Site& s) {
  NodeId in0 = v == 0 ? s.b : s.a;
  NodeId keep = v == 0 ? s.a : s.b;
  return make_gate(net, s.t, {keep, make_gate(net, s.t, {in0, s.c}, n)}, n);
}

// ---- InvPush ---------------------------------------------------------------
// variant 0/1: Xor/Xnor absorbs a Not at fanin 0/1 (parity flip) — binds
// the other operand, the inverted one and the flipped type;
// variant 2: Not(Not(a)) -> a — binds a;
// variant 3: Not(gate) -> complemented gate (retirable inner, any arity) —
// binds the inner gate and its complement type;
// variant 4: Nand/Nor with both fanins inverted -> De Morgan dual — binds
// both operands and the dual type.

Match match_inv_push(const Netlist& net, NodeId n, std::uint8_t v) {
  const Node& nd = net.node(n);
  switch (v) {
    case 0:
    case 1: {
      if ((nd.type != GateType::Xor && nd.type != GateType::Xnor) ||
          nd.fanins.size() != 2 || nd.fanins[0] == nd.fanins[1])
        return std::nullopt;
      NodeId inv = nd.fanins[v], other = nd.fanins[1 - v];
      if (!is_live_not(net, inv) || net.node(inv).fanins[0] == other)
        return std::nullopt;
      return Site{other, net.node(inv).fanins[0], kNoNode,
                  complement_of(nd.type)};
    }
    case 2:
      if (nd.type != GateType::Not || !is_live_not(net, nd.fanins[0]))
        return std::nullopt;
      return Site{net.node(nd.fanins[0]).fanins[0]};
    case 3: {
      if (nd.type != GateType::Not) return std::nullopt;
      NodeId inner = nd.fanins[0];
      if (!live_gate(net, inner) || !retirable(net, inner)) return std::nullopt;
      GateType comp = complement_of(net.node(inner).type);
      if (comp == GateType::Input) return std::nullopt;
      return Site{inner, kNoNode, kNoNode, comp};
    }
    case 4:
      if ((nd.type != GateType::Nand && nd.type != GateType::Nor) ||
          nd.fanins.size() != 2 || !is_live_not(net, nd.fanins[0]) ||
          !is_live_not(net, nd.fanins[1]))
        return std::nullopt;
      return Site{net.node(nd.fanins[0]).fanins[0],
                  net.node(nd.fanins[1]).fanins[0], kNoNode,
                  nd.type == GateType::Nand ? GateType::Or : GateType::And};
  }
  return std::nullopt;
}

NodeId build_inv_push(Netlist& net, NodeId n, std::uint8_t v, const Site& s) {
  switch (v) {
    case 2: return s.a;
    case 3: return make_gate(net, s.t, net.node(s.a).fanins, n);
    case 4: return s.a == s.b ? s.a : make_gate(net, s.t, {s.a, s.b}, n);
    default: return make_gate(net, s.t, {s.a, s.b}, n);
  }
}

// ---- Share -----------------------------------------------------------------
// variant 0: complement partner — target computes ~aux over the same
// operands, so it becomes Not(aux); variant 1: exact duplicate of aux;
// variants 2/3: through-inverter sharing for the parity gates.  A target
// t(x, ~y) with t in {Xor, Xnor} equals comp_t(x, y), so it can reuse a
// live comp_t(x, y) directly (variant 2) or a live t(x, y) under an
// inverter (variant 3) — the bridge between a butterfly's sum chain
// (Xor(a, b)) and its difference chain (Xor(a, ~b)) that neither strash
// nor the plain complement share can see in one step.  Binds nothing: the
// partner is the candidate's aux.

// When n is t(x, Not(y)) with t parity, yields x and y; false otherwise.
bool parity_thru_inv(const Netlist& net, NodeId n, NodeId& x, NodeId& y) {
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

Match match_share(const Netlist& net, NodeId n, std::uint8_t v, NodeId m) {
  if (n == m || !live_gate(net, m)) return std::nullopt;
  const GateType tn = net.node(n).type, tm = net.node(m).type;
  bool hit = false;
  switch (v) {
    case 0:
      hit = is_commutative(tn) && complement_of(tn) == tm &&
            sorted_fanins(net, n) == sorted_fanins(net, m);
      break;
    case 1:
      hit = tn == tm &&
            (is_commutative(tn) ? sorted_fanins(net, n) == sorted_fanins(net, m)
                                : net.node(n).fanins == net.node(m).fanins);
      break;
    case 2:
    case 3: {
      NodeId x, y;
      hit = parity_thru_inv(net, n, x, y) &&
            tm == (v == 2 ? complement_of(tn) : tn) &&
            sorted_fanins(net, m) == std::vector<NodeId>{std::min(x, y),
                                                         std::max(x, y)};
      break;
    }
  }
  return hit ? Match{Site{}} : std::nullopt;
}

NodeId build_share(Netlist& net, NodeId n, std::uint8_t v, NodeId m) {
  return v == 0 || v == 3 ? make_not(net, m, n) : m;
}

// ---- MuxRule ---------------------------------------------------------------
// Mux fanins are (s, a, b) computing s ? b : a.
// variant 0: inverted select — binds the select's input; 1: equal arms;
// 2: constant arm folds; 3: same-select cascade in an arm (an in-place
// fanin edit); 4: common-operand arm factoring — binds the shared
// operand, the two others and the arms' type.

bool same_select_mux(const Netlist& net, NodeId arm, NodeId s) {
  return live_gate(net, arm) && net.node(arm).type == GateType::Mux &&
         net.node(arm).fanins[0] == s;
}

Match match_mux(const Netlist& net, NodeId n, std::uint8_t v) {
  if (net.node(n).type != GateType::Mux) return std::nullopt;
  const NodeId s = net.node(n).fanins[0];
  const NodeId a = net.node(n).fanins[1];
  const NodeId b = net.node(n).fanins[2];
  switch (v) {
    case 0:
      if (!is_live_not(net, s)) return std::nullopt;
      return Site{net.node(s).fanins[0]};
    case 1: return a == b ? Match{Site{}} : std::nullopt;
    case 2:
      return any_const(net, a) || any_const(net, b) ? Match{Site{}}
                                                    : std::nullopt;
    case 3:
      return same_select_mux(net, a, s) || same_select_mux(net, b, s)
                 ? Match{Site{}}
                 : std::nullopt;
    case 4: {
      if (a == b || !live_gate(net, a) || !live_gate(net, b))
        return std::nullopt;
      GateType op = net.node(a).type;
      if (op != GateType::And && op != GateType::Or && op != GateType::Xor)
        return std::nullopt;
      if (!is2(net, a, op) || !is2(net, b, op) || !retirable(net, a) ||
          !retirable(net, b))
        return std::nullopt;
      return common_operand(net, a, b, op);
    }
  }
  return std::nullopt;
}

/// Builds the replacement, or edits the target in place and returns kNoNode
/// (variant 3).
NodeId build_mux(Netlist& net, NodeId n, std::uint8_t v, const Site& st) {
  const NodeId s = net.node(n).fanins[0];
  const NodeId a = net.node(n).fanins[1];
  const NodeId b = net.node(n).fanins[2];
  switch (v) {
    case 0: return make_gate(net, GateType::Mux, {st.a, b, a}, n);
    case 1: return a;
    case 2:
      if (any_const(net, a) && any_const(net, b)) {
        bool va = is_const(net, a, true), vb = is_const(net, b, true);
        if (va == vb) return a;
        return vb ? s                     // s ? 1 : 0 = s
                  : make_not(net, s, n);  // s ? 0 : 1 = ~s
      }
      if (is_const(net, a, false))  // s ? b : 0 = s & b
        return make_gate(net, GateType::And, {s, b}, n);
      if (is_const(net, a, true))  // s ? b : 1 = ~s | b
        return make_gate(net, GateType::Or, {make_not(net, s, n), b}, n);
      if (is_const(net, b, false))  // s ? 0 : a = ~s & a
        return make_gate(net, GateType::And, {make_not(net, s, n), a}, n);
      return make_gate(net, GateType::Or, {s, a}, n);  // s ? 1 : a = s | a
    case 3:
      // The first edit never changes slot 2, so b stays valid.
      if (same_select_mux(net, a, s))
        net.replace_fanin(n, 1, net.node(a).fanins[1]);
      if (same_select_mux(net, b, s))
        net.replace_fanin(n, 2, net.node(b).fanins[2]);
      return kNoNode;
    default:
      return make_gate(
          net, st.t, {st.a, make_gate(net, GateType::Mux, {s, st.b, st.c}, n)},
          n);
  }
}

// ---- Carry -----------------------------------------------------------------
// n = Or(And(a,b), And(x,c)).  variant 0: x = Xor(a,b) -> And((a|b), c);
// variant 1: x = Or(a,b) -> And((a^b), c).  Both sides equal
// majority(a,b,c) given the And(a,b) term, so the identity is exact.  Binds
// the kept And(a,b), c, and the new propagate type.

Match match_carry(const Netlist& net, NodeId n, std::uint8_t v) {
  if (v > 1 || !is2(net, n, GateType::Or)) return std::nullopt;
  const GateType from = v == 0 ? GateType::Xor : GateType::Or;
  for (int k = 0; k < 2; ++k) {
    NodeId g = net.node(n).fanins[k];      // the And(a,b) kept as-is
    NodeId h = net.node(n).fanins[1 - k];  // the And(prop, c) restructured
    if (g == h || !is2(net, g, GateType::And) ||
        !is2(net, h, GateType::And) || !retirable(net, h))
      continue;
    auto ab = sorted_fanins(net, g);
    if (ab[0] == ab[1]) continue;
    for (int m = 0; m < 2; ++m) {
      NodeId x = net.node(h).fanins[m];
      NodeId c = net.node(h).fanins[1 - m];
      if (x != c && is2(net, x, from) && sorted_fanins(net, x) == ab)
        return Site{g, c, kNoNode, v == 0 ? GateType::Or : GateType::Xor};
    }
  }
  return std::nullopt;
}

NodeId build_carry(Netlist& net, NodeId n, const Site& s) {
  auto ab = sorted_fanins(net, s.a);
  NodeId prop = make_gate(net, s.t, {ab[0], ab[1]}, n);
  NodeId new_h = make_gate(net, GateType::And, {prop, s.b}, n);
  return make_gate(net, GateType::Or, {s.a, new_h}, n);
}

// ---- Distrib ---------------------------------------------------------------
// Or(And(a,x), And(a,y)) -> And(a, Or(x,y)) and the And/Or dual
// ((a|x)(a|y) = a | xy).  Binds a, x, y and the inner type.

Match match_distrib(const Netlist& net, NodeId n, std::uint8_t v) {
  GateType inner;
  if (v != 0) return std::nullopt;
  if (is2(net, n, GateType::Or))
    inner = GateType::And;
  else if (is2(net, n, GateType::And))
    inner = GateType::Or;
  else
    return std::nullopt;
  NodeId p = net.node(n).fanins[0], q = net.node(n).fanins[1];
  if (p == q || !is2(net, p, inner) || !is2(net, q, inner) ||
      !retirable(net, p) || !retirable(net, q))
    return std::nullopt;
  return common_operand(net, p, q, inner);
}

NodeId build_distrib(Netlist& net, NodeId n, const Site& s) {
  const GateType outer = net.node(n).type;
  NodeId rest = s.b == s.c ? s.b : make_gate(net, outer, {s.b, s.c}, n);
  return make_gate(net, s.t, {s.a, rest}, n);
}

/// The one structural match of every (rule, variant): enumeration and
/// application both decide a site through it.
Match match(const Netlist& net, const Candidate& c) {
  if (!live_gate(net, c.target)) return std::nullopt;
  switch (c.rule) {
    case RuleKind::Fold: return match_fold(net, c.target, c.variant);
    case RuleKind::Reassoc: return match_reassoc(net, c.target, c.variant);
    case RuleKind::InvPush: return match_inv_push(net, c.target, c.variant);
    case RuleKind::Share: return match_share(net, c.target, c.variant, c.aux);
    case RuleKind::MuxRule: return match_mux(net, c.target, c.variant);
    case RuleKind::Carry: return match_carry(net, c.target, c.variant);
    case RuleKind::Distrib: return match_distrib(net, c.target, c.variant);
  }
  return std::nullopt;
}

/// Share's partners: one ascending scan keys each gate on (type, sorted
/// fanins), and a later node pairs with the first earlier holder of its
/// duplicate (1) or complement (0) key, or — for t(x, ~y) — of a {x, y} key
/// of the complement type (2) or the same type (3).
void enumerate_share(const Netlist& net, std::vector<Candidate>& out) {
  std::unordered_map<GateKey, NodeId, GateKeyHash> seen;
  auto pair_with = [&](NodeId n, std::uint8_t v, const GateKey& key) {
    auto it = seen.find(key);
    if (it == seen.end()) return;
    Candidate c{RuleKind::Share, n, v, it->second};
    if (match(net, c)) out.push_back(c);
  };
  for (NodeId n = 0; n < net.size(); ++n) {
    if (!live_gate(net, n)) continue;
    GateType t = net.node(n).type;
    if (!is_commutative(t) && t != GateType::Not) continue;
    GateKey key{t, sorted_fanins(net, n)};
    pair_with(n, 1, key);
    pair_with(n, 0, {complement_of(t), key.fanins});
    NodeId x, y;
    if (parity_thru_inv(net, n, x, y)) {
      std::vector<NodeId> xy{std::min(x, y), std::max(x, y)};
      pair_with(n, 2, {complement_of(t), xy});
      pair_with(n, 3, {t, std::move(xy)});
    }
    seen.emplace(std::move(key), n);
  }
}

}  // namespace

std::string_view rule_name(RuleKind k) {
  switch (k) {
    case RuleKind::Fold: return "fold";
    case RuleKind::Reassoc: return "reassoc";
    case RuleKind::InvPush: return "inv_push";
    case RuleKind::Share: return "share";
    case RuleKind::MuxRule: return "mux";
    case RuleKind::Carry: return "carry";
    case RuleKind::Distrib: return "distrib";
  }
  return "?";
}

std::vector<Candidate> match_rules(const Netlist& net, bool fold_only) {
  // Variants per rule, in RuleKind order.
  constexpr std::uint8_t kVariants[] = {4, 2, 5, 4, 5, 2, 1};
  std::vector<Candidate> out;
  const std::size_t n_rules = fold_only ? 1 : std::size(kVariants);
  for (std::uint8_t r = 0; r < n_rules; ++r) {
    const auto rule = static_cast<RuleKind>(r);
    if (rule == RuleKind::Share) {
      enumerate_share(net, out);
      continue;
    }
    for (NodeId n = 0; n < net.size(); ++n) {
      for (std::uint8_t v = 0; v < kVariants[r]; ++v) {
        Candidate c{rule, n, v, kNoNode};
        if (!match(net, c)) continue;
        out.push_back(c);
        // A node folds one way, constant fanins before equal ones; equal
        // mux arms make the later mux variants moot.
        if (rule == RuleKind::Fold || (rule == RuleKind::MuxRule && v == 1))
          break;
      }
    }
  }
  return out;
}

bool apply_rule(Netlist& net, const Candidate& c) {
  Match site = match(net, c);
  if (!site) return false;
  const NodeId n = c.target;
  const std::uint8_t v = c.variant;
  NodeId repl = kNoNode;
  switch (c.rule) {
    case RuleKind::Fold: repl = build_fold(net, n, v); break;
    case RuleKind::Reassoc: repl = build_reassoc(net, n, v, *site); break;
    case RuleKind::InvPush: repl = build_inv_push(net, n, v, *site); break;
    case RuleKind::Share: repl = build_share(net, n, v, c.aux); break;
    case RuleKind::MuxRule: repl = build_mux(net, n, v, *site); break;
    case RuleKind::Carry: repl = build_carry(net, n, *site); break;
    case RuleKind::Distrib: repl = build_distrib(net, n, *site); break;
  }
  if (repl != kNoNode) net.substitute(n, repl);
  net.sweep();
  return true;
}

}  // namespace lps::logicopt::rewrite
