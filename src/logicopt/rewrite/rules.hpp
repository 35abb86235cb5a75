// rules.hpp — exact datapath rewrite rules over netlist cones.
//
// The rule families follow the structural/Boolean inventory the datapath
// rewriting literature applies to arithmetic circuits (Coward et al.,
// "Combining Power and Arithmetic Optimization via Datapath Rewriting"):
//
//   Fold      constant and trivial-operand simplification: And(x,0) -> 0,
//             Xor(x,1) -> ~x, Mux(0,a,b) -> a, And(x,x) -> x, Buf(x) -> x,
//             ~const -> const — naive elaboration (constant carry-ins,
//             zero-padded reduction rows) leaves these everywhere;
//   Reassoc   associative regrouping of 2-input And/Or/Xor chains,
//             OP(OP(a,b),c) -> OP(a,OP(b,c)) | OP(b,OP(a,c)) — moves the
//             high-activity operand next to the output so fewer gates see
//             its toggles;
//   InvPush   inverter absorption and De Morgan moves: Xor(a,~b) -> Xnor,
//             ~Xor -> Xnor, ~And -> Nand, ~~a -> a, and their duals;
//   Share     cross-cone sharing: a gate whose complement (And/Nand,
//             Or/Nor, Xor/Xnor over the same operands) or duplicate is
//             already live is replaced by (an inverter on) that node —
//             the complement case is invisible to strash; the
//             through-inverter form Xor(x,~y) == ~Xor(x,y) == Xnor(x,y)
//             reuses a live Xor/Xnor(x,y) across cones in one step (the
//             sum/difference chains of a butterfly);
//   MuxRule   mux laws: select-inverter absorption, equal/constant arms,
//             same-select cascades, and factoring a common operand out of
//             both arms, Mux(s,OP(x,y),OP(x,z)) -> OP(x,Mux(s,y,z));
//   Carry     carry-majority restructuring, ab + (a^b)c <-> ab + (a|b)c
//             (both sides are majority(a,b,c)) — re-routes the carry off
//             the hot XOR onto a calmer OR, or back;
//   Distrib   distribution/factoring, Or(And(a,x),And(a,y)) ->
//             And(a,Or(x,y)) and the And/Or dual.
//
// Every rule is an exact Boolean identity; the engine (engine.hpp)
// additionally proves each applied instance bit-identical to the original
// circuit by differential interpreter simulation before keeping it.
//
// Each (rule, variant) has one structural match, a pure read of the
// netlist that yields the site's bindings or nothing.  match_rules()
// enumerates sites by calling it; apply_rule() calls the same match again
// (sites go stale as earlier candidates are kept), returns false without
// mutating anything when it no longer holds, and otherwise builds the
// replacement from the bindings.

#pragma once

#include <string_view>
#include <vector>

#include "netlist/netlist.hpp"

namespace lps::logicopt::rewrite {

enum class RuleKind : std::uint8_t {
  Fold,
  Reassoc,
  InvPush,
  Share,
  MuxRule,
  Carry,
  Distrib,
};

std::string_view rule_name(RuleKind k);

struct Candidate {
  RuleKind rule;
  NodeId target;             // the node the rewrite replaces or edits
  std::uint8_t variant = 0;  // rule-specific alternative index
  NodeId aux = kNoNode;      // Share: the partner node to reuse
};

/// Deepest fanin level any rule's match or replacement build reads,
/// measured from a candidate's seed nodes (target, aux).  Per-rule audit:
/// Fold reads the target's fanins (1); Reassoc the chain gate's fanins (2);
/// InvPush the inner inverter's / inner gate's fanins (2); Share the
/// partner's fanins and the through-inverter operand (2); MuxRule the
/// select inverter's and the arms' fanins (2); Carry the propagate gate
/// two Ands below the Or plus that gate's fanin ids (3); Distrib the inner
/// gates' fanins (2).  speculate::read_closure() bounds a candidate's
/// structural read set with this — grow it when a deeper pattern is added
/// (the commit loop's touched-set cross-check catches a stale value at
/// run time, but only by forcing serial re-scores).
inline constexpr int kMaxMatchDepth = 3;

/// Enumerate every rule match over the live logic of `net`, rule-major in
/// RuleKind order, then by ascending target id and variant (Share lists a
/// node's duplicate partner before its complement).  A node gets at most
/// one Fold variant (a constant fanin before equal fanins), and a Mux with
/// equal arms no variant past 1.  `fold_only` enumerates Fold alone (the
/// engine's constant-propagation prephase).
std::vector<Candidate> match_rules(const Netlist& net, bool fold_only = false);

/// Apply one candidate in place.  Returns true when the site still matched
/// and the netlist was mutated (followed by a sweep of disconnected logic);
/// false when the match went stale or the rule has no such variant — the
/// netlist is untouched in that case.
bool apply_rule(Netlist& net, const Candidate& c);

}  // namespace lps::logicopt::rewrite
