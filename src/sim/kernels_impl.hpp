// kernels_impl.hpp — the compiled tape's record format and the templated
// execution kernels, shared source of every ISA-specific translation unit.
//
// The tape (sim/compiled.hpp) is one contiguous std::uint32_t array of
// packed records:
//   [opcode | n_fanins << 8] [output node] [fanin node]*n_fanins
// and every kernel executes records over a block of B 64-bit words per node
// (node id `n`'s words at val[n*B .. n*B+B-1]).  This header provides the
// record walk templated over a *word-vector traits* type W — a bundle of
// load/store/and/or/xor/not primitives over W::kWords adjacent words — so
// the same fold logic instantiates as scalar code, AVX2 code (4 words per
// op) or AVX-512 code (8 words per op) depending on which traits the
// including translation unit supplies.
//
// Bit-equality contract: every opcode is the same bitwise expression
// eval_gate (netlist.cpp) computes, with n-ary operands folded in fanin
// order, and SIMD bitwise ops are exact per lane — so every instantiation
// produces bit-identical value words.  tests/test_simd.cpp enforces this
// differentially across the width × block × thread matrix.
//
// ODR / ISA-safety: everything here lives in an unnamed namespace ON
// PURPOSE.  kernels_avx2.cpp is compiled with -mavx2 and kernels_avx512.cpp
// with -mavx512*; if the template instantiations had external linkage the
// linker would merge, say, exec_record_v<ScalarOps, 4> across translation
// units and could keep the copy compiled with AVX-512 codegen — which the
// scalar fallback path would then execute on a machine without AVX-512.
// Internal linkage gives each TU its own instantiations, so code compiled
// with wide-ISA flags is only ever reachable through that TU's exported
// entry points, which dispatch (sim/simd.hpp) guards behind a CPUID probe.

#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

#include "netlist/netlist.hpp"

namespace lps::sim::kern {

/// Offset-table sentinel: node has no tape record (dead / source / Dff).
inline constexpr std::uint32_t kNoRecord = 0xFFFFFFFFu;

/// Tape opcodes: specialized forms for the dominant small gates, n-ary
/// folds for everything wider.
enum class Op : std::uint8_t {
  Const0,
  Const1,
  Buf,
  Not,
  And2,
  Or2,
  Nand2,
  Nor2,
  Xor2,
  Xnor2,
  Mux,
  AndN,
  OrN,
  NandN,
  NorN,
  XorN,
  XnorN,
};

namespace {  // internal linkage per TU — see the ODR note above

/// Scalar word-vector traits: one 64-bit word per op.  The baseline every
/// ISA-specific traits type must match bit for bit.
struct ScalarOps {
  using V = std::uint64_t;
  static constexpr unsigned kWords = 1;
  static V load(const std::uint64_t* p) { return *p; }
  static void store(std::uint64_t* p, V v) { *p = v; }
  static V zero() { return 0; }
  static V ones() { return ~0ULL; }
  static V band(V a, V b) { return a & b; }
  static V bor(V a, V b) { return a | b; }
  static V bxor(V a, V b) { return a ^ b; }
  static V bnot(V a) { return ~a; }
  static V bandnot(V a, V b) { return ~a & b; }  // AND-NOT: ~a & b
};

// Execute one record over a block of B words per node and return the
// pointer past the record.  W::kWords must divide B.  Each opcode is the
// same bitwise expression eval_gate (netlist.cpp) computes, with n-ary
// operands folded in fanin order — this is what makes tape frames
// bit-identical to the per-gate interpreter's at any vector width.
template <typename W, unsigned B>
inline const std::uint32_t* exec_record_v(const std::uint32_t* p,
                                          std::uint64_t* val) {
  static_assert(B % W::kWords == 0, "block must be a multiple of the lanes");
  constexpr unsigned kV = B / W::kWords;  // vector ops per node block
  using V = typename W::V;
  const std::uint32_t h = *p++;
  const std::uint32_t n = h >> 8;
  // The network is acyclic, so a record's output slot never aliases any of
  // its operand slots; restrict keeps the stores independent of the loads.
  std::uint64_t* __restrict out = val + static_cast<std::size_t>(*p++) * B;
  auto in = [&](std::uint32_t i) {
    return static_cast<const std::uint64_t*>(
        val + static_cast<std::size_t>(p[i]) * B);
  };
  switch (static_cast<Op>(h & 0xFFu)) {
    case Op::Const0:
      for (unsigned v = 0; v < kV; ++v) W::store(out + v * W::kWords, W::zero());
      break;
    case Op::Const1:
      for (unsigned v = 0; v < kV; ++v) W::store(out + v * W::kWords, W::ones());
      break;
    case Op::Buf: {
      const std::uint64_t* a = in(0);
      for (unsigned v = 0; v < kV; ++v)
        W::store(out + v * W::kWords, W::load(a + v * W::kWords));
      break;
    }
    case Op::Not: {
      const std::uint64_t* a = in(0);
      for (unsigned v = 0; v < kV; ++v)
        W::store(out + v * W::kWords, W::bnot(W::load(a + v * W::kWords)));
      break;
    }
    case Op::And2: {
      const std::uint64_t *a = in(0), *b = in(1);
      for (unsigned v = 0; v < kV; ++v)
        W::store(out + v * W::kWords, W::band(W::load(a + v * W::kWords),
                                              W::load(b + v * W::kWords)));
      break;
    }
    case Op::Or2: {
      const std::uint64_t *a = in(0), *b = in(1);
      for (unsigned v = 0; v < kV; ++v)
        W::store(out + v * W::kWords, W::bor(W::load(a + v * W::kWords),
                                             W::load(b + v * W::kWords)));
      break;
    }
    case Op::Nand2: {
      const std::uint64_t *a = in(0), *b = in(1);
      for (unsigned v = 0; v < kV; ++v)
        W::store(out + v * W::kWords,
                 W::bnot(W::band(W::load(a + v * W::kWords),
                                 W::load(b + v * W::kWords))));
      break;
    }
    case Op::Nor2: {
      const std::uint64_t *a = in(0), *b = in(1);
      for (unsigned v = 0; v < kV; ++v)
        W::store(out + v * W::kWords,
                 W::bnot(W::bor(W::load(a + v * W::kWords),
                                W::load(b + v * W::kWords))));
      break;
    }
    case Op::Xor2: {
      const std::uint64_t *a = in(0), *b = in(1);
      for (unsigned v = 0; v < kV; ++v)
        W::store(out + v * W::kWords, W::bxor(W::load(a + v * W::kWords),
                                              W::load(b + v * W::kWords)));
      break;
    }
    case Op::Xnor2: {
      const std::uint64_t *a = in(0), *b = in(1);
      for (unsigned v = 0; v < kV; ++v)
        W::store(out + v * W::kWords,
                 W::bnot(W::bxor(W::load(a + v * W::kWords),
                                 W::load(b + v * W::kWords))));
      break;
    }
    case Op::Mux: {
      // fanins: s, a, b -> s ? b : a  (eval_gate's (~s & a) | (s & b))
      const std::uint64_t *s = in(0), *a = in(1), *b = in(2);
      for (unsigned v = 0; v < kV; ++v) {
        V sv = W::load(s + v * W::kWords);
        W::store(out + v * W::kWords,
                 W::bor(W::bandnot(sv, W::load(a + v * W::kWords)),
                        W::band(sv, W::load(b + v * W::kWords))));
      }
      break;
    }
    case Op::AndN: {
      V acc[kV];
      for (unsigned v = 0; v < kV; ++v) acc[v] = W::ones();
      for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint64_t* a = in(i);
        for (unsigned v = 0; v < kV; ++v)
          acc[v] = W::band(acc[v], W::load(a + v * W::kWords));
      }
      for (unsigned v = 0; v < kV; ++v) W::store(out + v * W::kWords, acc[v]);
      break;
    }
    case Op::OrN: {
      V acc[kV];
      for (unsigned v = 0; v < kV; ++v) acc[v] = W::zero();
      for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint64_t* a = in(i);
        for (unsigned v = 0; v < kV; ++v)
          acc[v] = W::bor(acc[v], W::load(a + v * W::kWords));
      }
      for (unsigned v = 0; v < kV; ++v) W::store(out + v * W::kWords, acc[v]);
      break;
    }
    case Op::NandN: {
      V acc[kV];
      for (unsigned v = 0; v < kV; ++v) acc[v] = W::ones();
      for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint64_t* a = in(i);
        for (unsigned v = 0; v < kV; ++v)
          acc[v] = W::band(acc[v], W::load(a + v * W::kWords));
      }
      for (unsigned v = 0; v < kV; ++v)
        W::store(out + v * W::kWords, W::bnot(acc[v]));
      break;
    }
    case Op::NorN: {
      V acc[kV];
      for (unsigned v = 0; v < kV; ++v) acc[v] = W::zero();
      for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint64_t* a = in(i);
        for (unsigned v = 0; v < kV; ++v)
          acc[v] = W::bor(acc[v], W::load(a + v * W::kWords));
      }
      for (unsigned v = 0; v < kV; ++v)
        W::store(out + v * W::kWords, W::bnot(acc[v]));
      break;
    }
    case Op::XorN: {
      V acc[kV];
      for (unsigned v = 0; v < kV; ++v) acc[v] = W::zero();
      for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint64_t* a = in(i);
        for (unsigned v = 0; v < kV; ++v)
          acc[v] = W::bxor(acc[v], W::load(a + v * W::kWords));
      }
      for (unsigned v = 0; v < kV; ++v) W::store(out + v * W::kWords, acc[v]);
      break;
    }
    case Op::XnorN: {
      V acc[kV];
      for (unsigned v = 0; v < kV; ++v) acc[v] = W::zero();
      for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint64_t* a = in(i);
        for (unsigned v = 0; v < kV; ++v)
          acc[v] = W::bxor(acc[v], W::load(a + v * W::kWords));
      }
      for (unsigned v = 0; v < kV; ++v)
        W::store(out + v * W::kWords, W::bnot(acc[v]));
      break;
    }
  }
  return p + n;
}

// Linear replay of a compact tape with streaming prefetch: while record r
// executes, the next record's tape words, output block and first operand
// block are requested — the tape walk is perfectly sequential, so the
// lookahead address is always one header read away.
template <typename W, unsigned B>
void exec_linear_v(const std::uint32_t* p, const std::uint32_t* end,
                   std::uint64_t* val) {
  while (p != end) {
    const std::uint32_t* nx = p + 2 + (p[0] >> 8);  // next record
    if (nx != end) {
      __builtin_prefetch(nx + 2, 0, 3);
      __builtin_prefetch(val + static_cast<std::size_t>(nx[1]) * B, 1, 3);
      // nx[2] (the first operand slot) only exists when the next record has
      // fanins; Const0/Const1 records end right after the output word.
      if ((nx[0] >> 8) != 0)
        __builtin_prefetch(val + static_cast<std::size_t>(nx[2]) * B, 0, 3);
    }
    p = exec_record_v<W, B>(p, val);
  }
}

// Offset-table replay of an explicit gate list (patched tapes, cone paths),
// prefetching the next listed gate's record while the current one runs.
template <typename W, unsigned B>
void exec_list_v(const std::uint32_t* tape, const std::uint32_t* offset,
                 std::span<const lps::NodeId> gates, std::uint64_t* val) {
  const std::size_t n = gates.size();
  for (std::size_t g = 0; g < n; ++g) {
    if (g + 1 < n) {
      std::uint32_t noff = offset[gates[g + 1]];
      if (noff != kNoRecord) __builtin_prefetch(tape + noff, 0, 3);
    }
    std::uint32_t off = offset[gates[g]];
    if (off != kNoRecord) exec_record_v<W, B>(tape + off, val);
  }
}

// Activity-counter accumulation over one evaluated value block: for each
// listed node, add the set-bit and toggle popcounts of its b populated
// lanes into ones[]/toggles[] and leave the lane's closing word in last[]
// (the cross-block seam carry).  On the first block of a shard the j==0
// toggle is against the lane itself (zero contribution), matching "no
// toggle counted into frame 0".  The loop is branch-free on purpose: the
// Monte Carlo drivers spend more wall clock here than in the tape replay,
// and the ISA builds of this TU decide whether std::popcount is a POPCNT
// instruction or the portable software fold.  Counter sums are exact
// integer adds, so every build produces identical counts — this is a
// speed lever only, like the execution kernels above.
inline void count_columns_impl(const std::uint64_t* val,
                               std::span<const lps::NodeId> nodes,
                               std::size_t B, std::size_t b, bool first,
                               std::uint64_t* ones, std::uint64_t* toggles,
                               std::uint64_t* last) {
  for (lps::NodeId id : nodes) {
    const std::uint64_t* w = val + static_cast<std::size_t>(id) * B;
    std::uint64_t prev = first ? w[0] : last[id];
    std::uint64_t o = 0, t = 0;
    for (std::size_t j = 0; j < b; ++j) {
      const std::uint64_t v = w[j];
      o += static_cast<unsigned>(std::popcount(v));
      t += static_cast<unsigned>(std::popcount(v ^ prev));
      prev = v;
    }
    ones[id] += o;
    toggles[id] += t;
    last[id] = prev;
  }
}

}  // namespace

}  // namespace lps::sim::kern
