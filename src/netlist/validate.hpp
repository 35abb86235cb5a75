// validate.hpp — structural invariant checker for Netlist.
//
// One pass over the network detecting every corruption class the
// fault-injection harness (faultinject.hpp) can produce:
//
//   - arity violations (fanin count outside the gate type's legal range);
//   - dangling references: fanins/fanouts/POs pointing at out-of-range or
//     tombstoned nodes;
//   - fanin/fanout cross-consistency in *both* directions (a stale fanout
//     entry whose user no longer lists the node is caught even when no
//     fanin-side count mismatches);
//   - combinational cycles, reported with the actual node cycle
//     ("12 (AND) -> 17 (OR f) -> 12") rather than a bare failure;
//   - primary-input list consistency (every entry live and of type Input,
//     every live Input listed exactly once);
//   - duplicate primary-output names (two POs claiming the same name);
//   - dead or out-of-range primary outputs.
//
// `Netlist::check()` delegates here; passes run it after every rewrite via
// the PassManager (core/pass.hpp).

#pragma once

#include "core/diag.hpp"
#include "netlist/netlist.hpp"

namespace lps {

/// Run every invariant check, reporting each violation into `eng` (stopping
/// early once the engine saturates).  Returns the number of errors found.
std::size_t validate(const Netlist& net, diag::DiagEngine& eng);

/// validate()'s verdict for the innermost undo epoch's edit, at a cost that
/// scales with the edit, given that the network passed validate() at that
/// epoch's begin_undo().  Only the edited nodes and their old and new
/// neighbours are checked, the PO list only when it changed or a node
/// died, and cycles only through the edges the edit added.  With no
/// active epoch, a wholesale pre-image or a changed PI list, this is the
/// full validate().
bool validate_edit(const Netlist& net);

/// Convenience: all violations as a vector (up to `max_diags`).
std::vector<diag::Diagnostic> validate(const Netlist& net,
                                       std::size_t max_diags = 64);

}  // namespace lps
