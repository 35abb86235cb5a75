// residue.hpp — one-hot residue number system arithmetic (Chren [11]).
//
// §III-C.1: "A method of one-hot residue coding to minimize switching
// activity of arithmetic logic is presented in [11]."  Numbers are held as
// residues modulo pairwise-coprime moduli; each residue digit is a one-hot
// vector, so modular addition is a cyclic *rotation* of the one-hot wires —
// exactly 2 wire transitions per digit per operation regardless of operand
// values, versus the data-dependent carry rippling of two's-complement.

#pragma once

#include <cstdint>
#include <vector>

namespace lps::coding {

class OneHotRns {
 public:
  explicit OneHotRns(std::vector<int> moduli);

  std::uint64_t range() const { return range_; }  // product of moduli
  const std::vector<int>& moduli() const { return moduli_; }

  /// Residue digits of x.
  std::vector<int> encode(std::uint64_t x) const;
  /// Chinese-remainder reconstruction.
  std::uint64_t decode(const std::vector<int>& digits) const;

  std::vector<int> add(const std::vector<int>& a,
                       const std::vector<int>& b) const;
  std::vector<int> mul(const std::vector<int>& a,
                       const std::vector<int>& b) const;

  /// Wire transitions when the one-hot digit vectors change from `a` to `b`
  /// (2 per changed digit, 0 per unchanged digit).
  int onehot_transitions(const std::vector<int>& a,
                         const std::vector<int>& b) const;
  /// Total one-hot wires (sum of moduli).
  int num_wires() const;

 private:
  std::vector<int> moduli_;
  std::uint64_t range_;
  std::vector<std::uint64_t> crt_coef_;  // CRT reconstruction coefficients
};

struct RnsStats {
  double avg_transitions_binary = 0.0;  // accumulator register, binary
  double avg_transitions_onehot = 0.0;  // accumulator register, one-hot RNS
  // Arithmetic-logic switching per add: a binary accumulator ripples and
  // glitches through a carry chain (measured on the gate-level adder with
  // the timed waveform simulator); a one-hot residue adder is a barrel
  // rotation — exactly 2 wire transitions per digit, no carries, no
  // glitches.  This is where Chren's delay-power-product win [11] lives.
  double logic_transitions_binary = 0.0;
  double logic_transitions_onehot = 0.0;
  int wires_binary = 0;
  int wires_onehot = 0;
};

/// Accumulate a random operand stream (mod `rns.range()`) and compare the
/// register and arithmetic-logic switching of a binary accumulator against
/// a one-hot RNS one.
RnsStats evaluate_rns_accumulator(const OneHotRns& rns, std::size_t n_ops,
                                  std::uint64_t seed);

}  // namespace lps::coding
