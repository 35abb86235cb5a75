// bdd_netlist.hpp — the one netlist→BDD front end.
//
// Bridges the netlist substrate and the BDD package.  Every symbolic
// technique here — exact equivalence checking of optimization passes,
// exact signal probabilities (power/probability.cpp), don't-care
// extraction (logicopt/dontcare.cpp) and BDD→MUX synthesis
// (logicopt/bdd_synth.cpp) — lowers a netlist through the same three
// pieces:
//
//  * lower_gate: one gate's function from its fanins' functions.  It never
//    refs or derefs, so each caller keeps its own rooting protocol.
//  * fanin_dfs: one fanin-first walk from a list of roots, giving the
//    variable order heuristic and an evaluation order for the cone.
//  * observation_points: where a node's function is observed — every PO,
//    then every pin of every register (D and, when present, load enable).

#pragma once

#include <span>
#include <unordered_map>
#include <vector>

#include "bdd/bdd.hpp"
#include "netlist/netlist.hpp"

namespace lps::bdd {

struct NetlistBdds {
  Manager mgr;
  std::vector<Ref> node_fn;                     // per NodeId
  std::unordered_map<NodeId, unsigned> var_of;  // PI / Dff output -> var

  NetlistBdds() : mgr(0) {}
};

/// The function of `gate` (a logic gate or constant) given the function of
/// each of its fanins in `fn`, which is indexed by NodeId.  Throws
/// std::invalid_argument for a PI or Dff, which are variables, not gates.
/// Never refs or derefs.  Under auto-GC only the fanin functions must be
/// rooted: each intermediate is an argument of the next call.
Ref lower_gate(Manager& m, const Node& gate, std::span<const Ref> fn);

/// A fanin-first DFS that does not enter Dff outputs.
struct FaninOrder {
  /// PIs and Dff outputs in first-visit order.  For arithmetic circuits
  /// this interleaves the operand buses (a0 b0 a1 b1 ...), which keeps
  /// adder/comparator BDDs linear where the blocked positional order is
  /// exponential.
  std::vector<NodeId> sources;
  /// Every other reached node (logic gates and constants) in postorder: a
  /// valid evaluation order for lower_gate.
  std::vector<NodeId> gates;
};
FaninOrder fanin_dfs(const Netlist& net, std::span<const NodeId> roots);

/// Every PO, then every pin of every register, in that order and not
/// deduplicated.  A change to a node is visible exactly when it reaches
/// one of these.
std::vector<NodeId> observation_points(const Netlist& net);

/// Build global BDDs for all live nodes.  Variables follow fanin_dfs over
/// observation_points, then PIs and Dff outputs no point reaches.  Throws
/// NodeLimitExceeded if the network is too wide for the budget.
/// `reserve_hint` pre-sizes the manager's unique table before the build
/// (avoiding mid-build rehash churn); 0 applies the default 16x-gate-count
/// heuristic.
NetlistBdds build_bdds(const Netlist& net, std::size_t node_limit = 4u << 20,
                       std::size_t reserve_hint = 0);

/// Exact combinational equivalence: outputs matched by position, inputs
/// matched by position (a and b must have equally many).  Sequential
/// elements must correspond 1:1 by position as free variables.
bool equivalent_bdd(const Netlist& a, const Netlist& b,
                    std::size_t node_limit = 4u << 20);

/// Synthesize a BDD back into gates as a MUX tree (one MUX per BDD node,
/// shared via memoization).  `var_to_node[v]` supplies the netlist signal
/// for BDD variable v (must cover the support of f).
NodeId synthesize_bdd(Netlist& net, Manager& mgr, Ref f,
                      const std::vector<NodeId>& var_to_node);

}  // namespace lps::bdd
