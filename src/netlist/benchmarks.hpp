// benchmarks.hpp — deterministic ISCAS-style benchmark circuits.
//
// The surveyed papers evaluate on the public ISCAS85/89 suites and on
// datapath blocks (adders, multipliers, comparators).  We generate the same
// circuit families programmatically so every experiment is reproducible
// without external files; real BLIF benchmarks can still be loaded via
// blif::read_file.  All generators are pure functions of their parameters
// (and an explicit seed where randomness is involved).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"

namespace lps::bench {

/// ISCAS85 c17 (the canonical 6-NAND example), built exactly per the netlist.
Netlist c17();

/// n-bit ripple-carry adder: inputs a[n], b[n], cin; outputs s[n], cout.
Netlist ripple_carry_adder(int n);

/// n-bit carry-lookahead-free carry-select adder with the given block size.
/// Same function as ripple_carry_adder(n) but a shallower, wider structure
/// with heavily unbalanced path profiles (a rich glitch source).
Netlist carry_select_adder(int n, int block);

/// n x n array multiplier: inputs a[n], b[n]; outputs p[2n].  The classic
/// glitch-heavy circuit of §III-A.2 ([25] builds exactly this with
/// transition-reduction circuitry).
Netlist array_multiplier(int n);

/// n-bit magnitude comparator computing C > D (the Figure 1 circuit).
/// Structured MSB-first as a ripple of (equal-so-far, greater) pairs.
Netlist comparator_gt(int n);

/// n-input parity: a tree of XORs with the given radix (2 or 3).
Netlist parity_tree(int n, int radix = 2);

/// Balanced AND tree over n inputs (zero glitches under unit delay).
Netlist and_tree(int n);

/// n-to-2^n decoder.
Netlist decoder(int n);

/// Small n-bit ALU: op[2] selects among ADD, AND, OR, XOR of a[n], b[n].
Netlist alu(int n);

/// n-bit DCT butterfly stage: outputs sum = a+b and diff = a-b (two's
/// complement).  Built the way naive RTL elaboration would: two fully
/// independent ripple chains, the subtractor forming ~b locally per bit —
/// so complement sharing (XOR(a,~b) = ~XOR(a,b)) and cross-cone CSE with
/// the adder are left on the table for the datapath rewriter.
Netlist dct_butterfly(int n);

/// n-bit add/sub ALU: `sub` selects a+b or a-b.  Like dct_butterfly, both
/// datapaths are elaborated independently and muxed per bit, leaving the
/// shared-adder restructuring to the optimizer.
Netlist alu_addsub(int n);

/// Random reconvergent DAG: `n_inputs` PIs, `n_gates` gates drawn from
/// {AND, OR, NAND, NOR, XOR, NOT}, fanins biased toward recent nodes so the
/// circuit is deep and reconvergent.  Deterministic in `seed`.
Netlist random_dag(int n_inputs, int n_gates, std::uint32_t seed);

/// Sequential: n-bit resettable counter (DFFs + increment logic).
Netlist counter(int n);

/// Sequential: shift register of length n.
Netlist shift_register(int n);

struct NamedNetlist {
  std::string name;
  Netlist net;
};

/// The default combinational experiment suite used by the bench harness:
/// a mix of arithmetic, control and random logic at moderate sizes.
std::vector<NamedNetlist> default_suite();

}  // namespace lps::bench
