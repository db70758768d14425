// Runtime SIMD dispatch for the packed DGEMM kernel.
//
// The paper's AbsCPU owes its speed to a vendor DGEMM (MKL); our substrate
// gets there with BLIS-style microkernels selected at runtime by CPUID:
//
//   tier      microkernel                 requires            rounding
//   kAvx2     6x8 tile_kernel, fused      AVX2 + FMA          fused
//             6x8 tile_kernel, mul+add                        separate
//   kSse2     4x4 tile_kernel, mul+add    SSE2 (any x86-64)   separate
//   kScalar   4x8 portable loop           nothing             separate
//
// What fixes a result's bits is the rounding class, not the kernel: every
// kernel preserves the per-C-element l-ascending accumulation chain, and
// a separate-rounding kernel performs per element exactly the scalar
// kernel's round-to-nearest multiply then add, so all separate kernels
// are bitwise equal to each other (and to kNaive/kBlocked) at any vector
// width, tile shape, blocking or thread count. The fused kernel rounds
// once per step and legitimately differs in low-order bits, but is
// deterministic and run-to-run bit-identical too. GemmOptions::rounding
// picks the class: kNative (default) takes each tier's fastest kernel
// (fused on kAvx2), kSeparate asks for the separate kernel of the tier —
// the verifier's choice, so it runs at AVX2 width with kScalar's bits.
//
// The SIMD tiers only exist on x86-64 and only when the compiler accepts
// the target flags (CMake probes; non-x86 builds fall back to kScalar).
// Setting SUMMAGEN_FORCE_SCALAR=1 in the environment caps availability at
// kScalar — the CI forced-scalar job uses this to run the whole numeric
// plane on the portable kernel.
#pragma once

#include <string>

namespace summagen::blas {

/// Dispatch tier of the packed kernel. Order is ascending capability.
enum class SimdTier { kScalar = 0, kSse2 = 1, kAvx2 = 2, kAuto = 3 };

/// Rounding class a packed-kernel call asks for (see the table above).
enum class Rounding {
  kNative = 0,    ///< the tier's fastest kernel: fused on kAvx2 (default)
  kSeparate = 1,  ///< mul then add, each rounded: kScalar's bits on any tier
};

/// True when the tier's translation unit was compiled into the library
/// (kScalar always; the SIMD tiers only on x86-64 with flag support).
bool simd_tier_compiled(SimdTier tier);

/// True when the tier is usable right now: compiled, the CPU reports the
/// required features, and SUMMAGEN_FORCE_SCALAR does not cap it away.
/// kScalar is always available; kAuto is not a concrete tier (false).
bool simd_tier_available(SimdTier tier);

/// Highest available tier (reads SUMMAGEN_FORCE_SCALAR live, so tests can
/// toggle the override around calls).
SimdTier best_simd_tier();

/// Maps kAuto to best_simd_tier() and validates explicit requests; throws
/// std::invalid_argument for a tier that is not available on this host.
SimdTier resolve_simd_tier(SimdTier requested);

/// "scalar" | "sse2" | "avx2" | "auto".
const char* simd_tier_name(SimdTier tier);

/// Inverse of simd_tier_name; throws std::invalid_argument on anything
/// else (the CLI wraps this into a CliError).
SimdTier parse_simd_tier(const std::string& name);

/// Live read of the SUMMAGEN_FORCE_SCALAR override (set and not "0").
bool force_scalar_requested();

}  // namespace summagen::blas
