#include "sim/simd.hpp"

#include "sim/compiled.hpp"

namespace lps::sim {

namespace {

SimdWidth probe() {
  // Widest width that is BOTH compiled into this binary (the CMake feature
  // checks define LPS_HAVE_*_KERNELS for this library) and reported by the
  // CPU.  __builtin_cpu_supports reads CPUID once and caches internally;
  // we cache the whole decision anyway so the hot paths never re-ask.
#if defined(LPS_HAVE_AVX512_KERNELS)
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512dq") && __builtin_cpu_supports("avx512vl"))
    return SimdWidth::Avx512;
#endif
#if defined(LPS_HAVE_AVX2_KERNELS)
  if (__builtin_cpu_supports("avx2")) return SimdWidth::Avx2;
#endif
  return SimdWidth::Scalar;
}

}  // namespace

SimdWidth detect_simd() {
  static const SimdWidth w = probe();
  return w;
}

SimdWidth resolve_simd(SimdWidth requested) {
  SimdWidth detected = detect_simd();
  if (requested == SimdWidth::Auto || requested > detected) return detected;
  return requested;
}

bool simd_compiled(SimdWidth w) {
  switch (w) {
    case SimdWidth::Avx2:
#if defined(LPS_HAVE_AVX2_KERNELS)
      return true;
#else
      return false;
#endif
    case SimdWidth::Avx512:
#if defined(LPS_HAVE_AVX512_KERNELS)
      return true;
#else
      return false;
#endif
    default:
      return true;  // scalar is always built; Auto always resolves
  }
}

const char* simd_name(SimdWidth w) {
  switch (w) {
    case SimdWidth::Scalar: return "scalar";
    case SimdWidth::Avx2: return "avx2";
    case SimdWidth::Avx512: return "avx512";
    case SimdWidth::Auto: return "auto";
  }
  return "scalar";
}

std::size_t simd_lane_words(SimdWidth w) {
  switch (resolve_simd(w)) {
    case SimdWidth::Avx512: return 8;
    case SimdWidth::Avx2: return 4;
    default: return 1;
  }
}

std::string engine_desc() {
  return std::string("tape[") + simd_name(resolve_simd(sim_options().width)) +
         ",b" + std::to_string(kSimBlock) + "]";
}

}  // namespace lps::sim
