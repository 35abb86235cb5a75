// simd.hpp — runtime vector-width selection for the compiled tape.
//
// The tape kernels (sim/kernels_impl.hpp) are compiled three ways: a
// portable scalar build in kernels_scalar.cpp (always present), an AVX2
// build in kernels_avx2.cpp and an AVX-512 build in kernels_avx512.cpp
// (each present only when the toolchain accepts the flags; see
// src/CMakeLists.txt).  This header is the single decision point for which
// build executes: detect_simd() probes the CPU once via
// __builtin_cpu_supports and caches the widest usable width, and
// resolve_simd() clamps a requested width (the LPS_SIM_WIDTH knob, default
// Auto) to what the hardware and the binary actually provide — asking for
// avx512 on an AVX2-only machine degrades to avx2, never to illegal
// instructions.
//
// Width selection never changes results: every kernel build computes
// bit-identical value words (the contract in kernels_impl.hpp), so
// LPS_SIM_WIDTH trades only speed, exactly like LPS_THREADS.
// tests/test_simd.cpp pins this differentially.

#pragma once

#include <cstddef>
#include <string>

namespace lps::sim {

/// Kernel lane width.  Ordered narrow → wide so widths compare with `<`;
/// Auto (the default) resolves to the widest detected width.
enum class SimdWidth : int {
  Scalar = 0,  // one uint64_t per op — portable baseline
  Avx2 = 1,    // 256-bit lanes, 4 words per op
  Avx512 = 2,  // 512-bit lanes, 8 words per op
  Auto = 3,    // resolve at dispatch: widest compiled-in width the CPU has
};

/// Widest width both compiled into this binary and supported by the CPU.
/// Probed once (CPUID via __builtin_cpu_supports) and cached; never Auto.
SimdWidth detect_simd();

/// Clamp a requested width to what can actually run: Auto becomes
/// detect_simd(), and an explicit request wider than detected degrades to
/// detected.  Never returns Auto.
SimdWidth resolve_simd(SimdWidth requested);

/// True when the named width's kernels are compiled into this binary
/// (independent of what the CPU supports — the scalar-forcing CI leg runs
/// on AVX hosts, and AVX binaries run on scalar-only hosts).
bool simd_compiled(SimdWidth w);

/// Knob spelling of a width: "scalar", "avx2", "avx512", "auto".
const char* simd_name(SimdWidth w);

/// 64-bit words per vector op at width `w` (1, 4 or 8; Auto resolves
/// first).  Blocks smaller than this execute through narrower kernels.
std::size_t simd_lane_words(SimdWidth w);

/// One-line description of the currently configured zero-delay engine,
/// e.g. "tape[avx512,b16]" — attached to power::Analysis so
/// reports and service responses say which code path produced a number.
std::string engine_desc();

}  // namespace lps::sim
