// SSE2 4x4 microkernel (baseline x86-64 ISA, no extra target flags needed;
// kept in its own TU for symmetry with the AVX2 tier).
//
// The separate-rounding instantiation of tile_kernel.hpp: mulpd then
// addpd, i.e. exactly the scalar tier's per-element operation sequence in
// two-lane batches — the SSE2 tier is bitwise equal to the scalar tier
// (asserted by tests/blas/gemm_tail_test and kernel_oracle_test).

#include "src/blas/microkernel.hpp"

#ifdef SUMMAGEN_HAVE_SSE2_KERNEL

#include <emmintrin.h>

#include "src/blas/tile_kernel.hpp"

namespace summagen::blas::detail {
namespace {

struct Sse2 {
  using Vec = __m128d;
  static constexpr int kWidth = 2;
  static Vec zero() { return _mm_setzero_pd(); }
  static Vec set1(double x) { return _mm_set1_pd(x); }
  static Vec broadcast(const double* p) { return _mm_load1_pd(p); }
  static Vec load(const double* p) { return _mm_load_pd(p); }
  static Vec loadu(const double* p) { return _mm_loadu_pd(p); }
  static void store(double* p, Vec v) { _mm_store_pd(p, v); }
  static void storeu(double* p, Vec v) { _mm_storeu_pd(p, v); }
  static Vec mul(Vec a, Vec b) { return _mm_mul_pd(a, b); }
  static Vec add(Vec a, Vec b) { return _mm_add_pd(a, b); }
};

}  // namespace

void micro_kernel_sse2_4x4(const double* pa_quad, const double* pb_panel,
                           std::int64_t kc, std::int64_t rows,
                           std::int64_t cols, bool first_block, double beta,
                           double* c, std::int64_t ldc) {
  tile_kernel<Sse2, 4, RoundingClass::kSeparate>(
      pa_quad, pb_panel, kc, rows, cols, first_block, beta, c, ldc);
}

}  // namespace summagen::blas::detail

#endif  // SUMMAGEN_HAVE_SSE2_KERNEL
