// validate.hpp — structural invariant checker for Netlist, over the whole
// network (validate) or one undo epoch's edit (validate_edit).  Both detect
// every corruption class the fault-injection harness (faultinject.hpp) can
// produce:
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
// `Netlist::check()` delegates to validate(); the stage runner
// (core/pass.hpp) and the BLIF reader run it, lpsd runs validate_edit().

#pragma once

#include "core/diag.hpp"
#include "netlist/netlist.hpp"

namespace lps {

/// Run every invariant check, reporting each violation into `eng` (stopping
/// early once the engine saturates).  Returns the number of errors found.
std::size_t validate(const Netlist& net, diag::DiagEngine& eng);

/// validate()'s checks over the innermost undo epoch's edit, at a cost that
/// scales with the edit, given that the network passed validate() at that
/// epoch's begin_undo().  Only the edited nodes and their old and new
/// neighbours are checked, the PO list only when the edit touched it or a
/// node died, and cycles only through the edges the edit added.  Every
/// violation but a cycle is reported as validate() words it, in its order.
/// With no active epoch, a wholesale pre-image or a changed PI list, this
/// is the full validate().  Returns the number of errors found.
std::size_t validate_edit(const Netlist& net, diag::DiagEngine& eng);

/// Convenience: true when validate_edit() finds no violation.
bool validate_edit(const Netlist& net);

}  // namespace lps
