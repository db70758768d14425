// AVX2+FMA 6x8 microkernels — the BLIS Haswell 8x6 register block
// transposed to row-major storage: 6 packed-A rows broadcast against two
// 4-wide packed-B vectors, 12 ymm accumulators + 2 B vectors + 1 broadcast
// = 15 of 16 architectural registers. Both rounding classes of
// tile_kernel.hpp are instantiated here:
//   micro_kernel_avx2_6x8        fused (FMA, one rounding per step) — the
//                                kAvx2 tier's default kernel;
//   micro_kernel_avx2_6x8_sep    mul then add, each rounded — bitwise
//                                equal to the scalar tier, used when
//                                GemmOptions::rounding asks for kSeparate.
//
// This TU is compiled with -mavx2 -mfma (CMake probes the flags and only
// adds the file when they are accepted); the entry points must only be
// reached after __builtin_cpu_supports confirms AVX2+FMA, which
// simd_tier_available / resolve_simd_tier guarantee. The project-wide
// -ffp-contract=off keeps the separate kernel's _mm256_mul_pd +
// _mm256_add_pd from being fused into an FMA under -mfma.

#include "src/blas/microkernel.hpp"

#ifdef SUMMAGEN_HAVE_AVX2_KERNEL

#include <immintrin.h>

#include "src/blas/tile_kernel.hpp"

namespace summagen::blas::detail {
namespace {

struct Avx2 {
  using Vec = __m256d;
  static constexpr int kWidth = 4;
  static Vec zero() { return _mm256_setzero_pd(); }
  static Vec set1(double x) { return _mm256_set1_pd(x); }
  static Vec broadcast(const double* p) { return _mm256_broadcast_sd(p); }
  static Vec load(const double* p) { return _mm256_load_pd(p); }
  static Vec loadu(const double* p) { return _mm256_loadu_pd(p); }
  static void store(double* p, Vec v) { _mm256_store_pd(p, v); }
  static void storeu(double* p, Vec v) { _mm256_storeu_pd(p, v); }
  static Vec mul(Vec a, Vec b) { return _mm256_mul_pd(a, b); }
  static Vec add(Vec a, Vec b) { return _mm256_add_pd(a, b); }
  static Vec fmadd(Vec a, Vec b, Vec c) { return _mm256_fmadd_pd(a, b, c); }
};

}  // namespace

void micro_kernel_avx2_6x8(const double* pa_quad, const double* pb_panel,
                           std::int64_t kc, std::int64_t rows,
                           std::int64_t cols, bool first_block, double beta,
                           double* c, std::int64_t ldc) {
  tile_kernel<Avx2, 6, RoundingClass::kFused>(pa_quad, pb_panel, kc, rows,
                                              cols, first_block, beta, c, ldc);
}

void micro_kernel_avx2_6x8_sep(const double* pa_quad, const double* pb_panel,
                               std::int64_t kc, std::int64_t rows,
                               std::int64_t cols, bool first_block,
                               double beta, double* c, std::int64_t ldc) {
  tile_kernel<Avx2, 6, RoundingClass::kSeparate>(
      pa_quad, pb_panel, kc, rows, cols, first_block, beta, c, ldc);
}

}  // namespace summagen::blas::detail

#endif  // SUMMAGEN_HAVE_AVX2_KERNEL
