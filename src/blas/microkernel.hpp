// Internal microkernel registry of the packed DGEMM path.
//
// Every microkernel computes one MR x NR register tile of
//   C := acc_init(op) + sum_l alpha*A[:,l] (*) B[l,:]
// over one packed A quad (kc x MR, row-interleaved, alpha folded in) and
// one packed B panel (kc x NR, zero-padded past the matrix edge), with
// the beta pass fused into the accumulator init of the first k-block:
//
//   acc = first_block ? (beta == 0 ? 0 : beta*C) : C      per valid element
//
// so beta == 0 never reads C (overwrite-NaN semantics) and no separate
// scale pass over C exists. `rows`/`cols` may be short at the fringes; the
// packed operands are zero-padded, so kernels may compute the full tile
// and write back only the valid region — padding lanes never feed a valid
// element's accumulator.
#pragma once

#include <cstdint>

#include "src/blas/simd.hpp"

namespace summagen::blas::detail {

using MicroKernelFn = void (*)(const double* pa_quad, const double* pb_panel,
                               std::int64_t kc, std::int64_t rows,
                               std::int64_t cols, bool first_block,
                               double beta, double* c, std::int64_t ldc);

struct MicroKernel {
  std::int64_t mr = 0;
  std::int64_t nr = 0;
  MicroKernelFn fn = nullptr;
  const char* name = "";
};

/// Registry (MR/NR shape + entry point) per concrete tier and rounding
/// class. `tier` must be a resolved, available tier (see
/// resolve_simd_tier). Rounding::kSeparate only changes the kAvx2 entry
/// (to its mul+add instantiation); the other tiers already round
/// separately.
MicroKernel microkernel_for(SimdTier tier,
                            Rounding rounding = Rounding::kNative);

// Per-TU entry points. The scalar kernel is the pre-dispatch kPacked
// microkernel verbatim; the SIMD ones instantiate tile_kernel.hpp in
// translation units compiled with the matching target flags and exist only
// when CMake enabled them.
void micro_kernel_scalar_4x8(const double* pa_quad, const double* pb_panel,
                             std::int64_t kc, std::int64_t rows,
                             std::int64_t cols, bool first_block, double beta,
                             double* c, std::int64_t ldc);
#ifdef SUMMAGEN_HAVE_SSE2_KERNEL
void micro_kernel_sse2_4x4(const double* pa_quad, const double* pb_panel,
                           std::int64_t kc, std::int64_t rows,
                           std::int64_t cols, bool first_block, double beta,
                           double* c, std::int64_t ldc);
#endif
#ifdef SUMMAGEN_HAVE_AVX2_KERNEL
void micro_kernel_avx2_6x8(const double* pa_quad, const double* pb_panel,
                           std::int64_t kc, std::int64_t rows,
                           std::int64_t cols, bool first_block, double beta,
                           double* c, std::int64_t ldc);
void micro_kernel_avx2_6x8_sep(const double* pa_quad, const double* pb_panel,
                               std::int64_t kc, std::int64_t rows,
                               std::int64_t cols, bool first_block,
                               double beta, double* c, std::int64_t ldc);
#endif

}  // namespace summagen::blas::detail
