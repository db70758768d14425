#include "src/blas/simd.hpp"

#include <cstdlib>
#include <stdexcept>

#include "src/blas/microkernel.hpp"

namespace summagen::blas {
namespace {

#if defined(__x86_64__) || defined(_M_X64)
bool cpu_supports_avx2_fma() {
  static const bool ok =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return ok;
}
#endif

}  // namespace

bool force_scalar_requested() {
  const char* env = std::getenv("SUMMAGEN_FORCE_SCALAR");
  return env != nullptr && env[0] != '\0' &&
         !(env[0] == '0' && env[1] == '\0');
}

bool simd_tier_compiled(SimdTier tier) {
  switch (tier) {
    case SimdTier::kScalar:
      return true;
    case SimdTier::kSse2:
#ifdef SUMMAGEN_HAVE_SSE2_KERNEL
      return true;
#else
      return false;
#endif
    case SimdTier::kAvx2:
#ifdef SUMMAGEN_HAVE_AVX2_KERNEL
      return true;
#else
      return false;
#endif
    case SimdTier::kAuto:
      return false;
  }
  return false;
}

bool simd_tier_available(SimdTier tier) {
  if (tier == SimdTier::kScalar) return true;
  if (!simd_tier_compiled(tier) || force_scalar_requested()) return false;
#if defined(__x86_64__) || defined(_M_X64)
  switch (tier) {
    case SimdTier::kSse2:
      return true;  // baseline x86-64 ISA
    case SimdTier::kAvx2:
      return cpu_supports_avx2_fma();
    default:
      return false;
  }
#else
  return false;
#endif
}

SimdTier best_simd_tier() {
  if (simd_tier_available(SimdTier::kAvx2)) return SimdTier::kAvx2;
  if (simd_tier_available(SimdTier::kSse2)) return SimdTier::kSse2;
  return SimdTier::kScalar;
}

SimdTier resolve_simd_tier(SimdTier requested) {
  if (requested == SimdTier::kAuto) return best_simd_tier();
  if (!simd_tier_available(requested)) {
    throw std::invalid_argument(
        std::string("dgemm: SIMD tier '") + simd_tier_name(requested) +
        "' is not available on this host" +
        (force_scalar_requested() ? " (SUMMAGEN_FORCE_SCALAR is set)" : ""));
  }
  return requested;
}

const char* simd_tier_name(SimdTier tier) {
  switch (tier) {
    case SimdTier::kScalar:
      return "scalar";
    case SimdTier::kSse2:
      return "sse2";
    case SimdTier::kAvx2:
      return "avx2";
    case SimdTier::kAuto:
      return "auto";
  }
  return "?";
}

SimdTier parse_simd_tier(const std::string& name) {
  if (name == "scalar") return SimdTier::kScalar;
  if (name == "sse2") return SimdTier::kSse2;
  if (name == "avx2") return SimdTier::kAvx2;
  if (name == "auto") return SimdTier::kAuto;
  throw std::invalid_argument("unknown SIMD tier '" + name +
                              "' (expected auto|scalar|sse2|avx2)");
}

namespace detail {

MicroKernel microkernel_for(SimdTier tier, Rounding rounding) {
  switch (tier) {
#ifdef SUMMAGEN_HAVE_AVX2_KERNEL
    case SimdTier::kAvx2:
      if (rounding == Rounding::kSeparate) {
        return {6, 8, &micro_kernel_avx2_6x8_sep, "avx2_6x8_sep"};
      }
      return {6, 8, &micro_kernel_avx2_6x8, "avx2_6x8"};
#endif
#ifdef SUMMAGEN_HAVE_SSE2_KERNEL
    case SimdTier::kSse2:
      return {4, 4, &micro_kernel_sse2_4x4, "sse2_4x4"};
#endif
    default:
      return {4, 8, &micro_kernel_scalar_4x8, "scalar_4x8"};
  }
}

}  // namespace detail
}  // namespace summagen::blas
