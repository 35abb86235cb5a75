// seq_circuit.hpp — helpers for building and transforming clocked designs.
//
// Shared plumbing for the §III-C techniques: wrapping combinational blocks
// in register ranks (retiming/precomputation testbeds) and a register-file
// generator (the §III-C.3 example: "the register file is typically not
// accessed in each clock cycle").

#pragma once

#include <string>
#include <vector>

#include "netlist/netlist.hpp"

namespace lps::seq {

/// Wrap a combinational circuit with an input register rank and an output
/// register rank (a 1-deep pipeline; `extra_output_ranks` appends more).
Netlist registered(const Netlist& comb, int extra_output_ranks = 0);

/// A w-bit × n-word register file with one write port: inputs are
/// addr[log n], wdata[w], wen; outputs rdata of the addressed word.
/// Every word's register bank holds via a recirculating mux selected by its
/// address decode — exactly the hold pattern the clock-gating pass
/// (clock_gating.hpp) detects and converts to a gated clock (§III-C.3).
Netlist register_file(int words, int width);

}  // namespace lps::seq
