// Independent bit oracles for the packed kernel's two rounding classes.
//
// Each oracle is a naive per-element l-ascending chain written out here,
// not another kernel of the library:
//   fused     acc = beta == 0 ? 0 : beta*c;  acc = fma(fl(alpha*a), b, acc)
//   separate  acc = beta == 0 ? 0 : beta*c;  acc = acc + fl(fl(alpha*a)*b)
// and every kernel of a class must reproduce its oracle to the bit
// (memcmp) over the fringe-shape matrix, alpha != 1, beta in {0, 1, 0.7},
// NaN in C under beta == 0 (never read), tiny and default blockings and
// two thread widths. A kernel whose tier this host cannot run is skipped.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/blas/gemm.hpp"
#include "src/blas/simd.hpp"
#include "src/util/matrix.hpp"
#include "src/util/rng.hpp"

namespace summagen::blas {
namespace {

using util::Matrix;

struct Shape {
  std::int64_t m, n, k;
};

// Zero and non-zero remainders against MR in {4, 6}, NR in {4, 8}, and
// (with kc = 3 below) K % KC tails.
const Shape kShapes[] = {
    {1, 1, 1},   {1, 1, 8},   {1, 13, 35},  {17, 1, 35}, {4, 8, 8},
    {6, 8, 8},   {5, 7, 3},   {23, 17, 35}, {24, 16, 8}, {25, 33, 35},
    {12, 24, 1}, {31, 9, 19},
};

const double kAlphas[] = {1.0, -0.37};
const double kBetas[] = {0.0, 1.0, 0.7};

enum class Chain { kFused, kSeparate };

/// The oracle chain for C := alpha*A*B + beta*C on C's current contents.
Matrix chain_oracle(Chain chain, double alpha, const Matrix& a,
                    const Matrix& b, double beta, const Matrix& c) {
  Matrix out(c.rows(), c.cols());
  for (std::int64_t i = 0; i < a.rows(); ++i) {
    for (std::int64_t j = 0; j < b.cols(); ++j) {
      double acc = beta == 0.0 ? 0.0 : beta * c(i, j);
      for (std::int64_t l = 0; l < a.cols(); ++l) {
        const double av = alpha * a(i, l);
        if (chain == Chain::kFused) {
          acc = std::fma(av, b(l, j), acc);
        } else {
          const double prod = av * b(l, j);
          acc = acc + prod;
        }
      }
      out(i, j) = acc;
    }
  }
  return out;
}

bool same_bits(const Matrix& x, const Matrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(),
                     static_cast<std::size_t>(x.size()) * sizeof(double)) ==
             0;
}

/// C filled with random values, or all NaN (only meaningful at beta == 0,
/// where the kernel must overwrite without reading).
Matrix initial_c(std::int64_t m, std::int64_t n, bool nan) {
  Matrix c(m, n);
  util::fill_random(c, 31);
  if (nan) {
    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t j = 0; j < n; ++j) {
        c(i, j) = std::numeric_limits<double>::quiet_NaN();
      }
    }
  }
  return c;
}

Matrix run(const GemmOptions& opts, double alpha, const Matrix& a,
           const Matrix& b, double beta, Matrix c) {
  dgemm(a.rows(), b.cols(), a.cols(), alpha, a.data(), a.cols(), b.data(),
        b.cols(), beta, c.data(), c.cols(), opts);
  return c;
}

/// Runs `opts` over the whole case matrix and memcmp-compares each result
/// with the oracle chain.
void expect_matches_chain(Chain chain, GemmOptions opts,
                          const std::string& label) {
  for (const Shape& s : kShapes) {
    Matrix a(s.m, s.k), b(s.k, s.n);
    util::fill_random(a, 41);
    util::fill_random(b, 42);
    for (double alpha : kAlphas) {
      for (double beta : kBetas) {
        for (bool nan_c : {false, true}) {
          if (nan_c && beta != 0.0) continue;
          const Matrix c = initial_c(s.m, s.n, nan_c);
          const Matrix want = chain_oracle(chain, alpha, a, b, beta, c);
          for (std::int64_t kc : {std::int64_t{3}, std::int64_t{0}}) {
            for (int threads : {1, 3}) {
              opts.threads = threads;
              opts.mc = kc == 0 ? 0 : 12;
              opts.nc = kc == 0 ? 0 : 16;
              opts.kc = kc;
              EXPECT_TRUE(same_bits(run(opts, alpha, a, b, beta, c), want))
                  << label << " m=" << s.m << " n=" << s.n << " k=" << s.k
                  << " alpha=" << alpha << " beta=" << beta
                  << (nan_c ? " (NaN C)" : "") << " kc=" << kc
                  << " threads=" << threads;
            }
          }
        }
      }
    }
  }
}

TEST(KernelOracle, FusedAvx2MatchesFmaChain) {
  if (!simd_tier_available(SimdTier::kAvx2)) {
    GTEST_SKIP() << "AVX2 tier not available on this host";
  }
  expect_matches_chain(
      Chain::kFused,
      {.kernel = GemmKernel::kPacked, .tier = SimdTier::kAvx2}, "avx2 fused");
}

TEST(KernelOracle, SeparateAvx2MatchesMulAddChain) {
  if (!simd_tier_available(SimdTier::kAvx2)) {
    GTEST_SKIP() << "AVX2 tier not available on this host";
  }
  expect_matches_chain(Chain::kSeparate,
                       {.kernel = GemmKernel::kPacked,
                        .tier = SimdTier::kAvx2,
                        .rounding = Rounding::kSeparate},
                       "avx2 separate");
}

TEST(KernelOracle, Sse2MatchesMulAddChain) {
  if (!simd_tier_available(SimdTier::kSse2)) {
    GTEST_SKIP() << "SSE2 tier not available on this host";
  }
  // Both rounding requests select the same (separate) SSE2 kernel.
  for (Rounding rounding : {Rounding::kNative, Rounding::kSeparate}) {
    expect_matches_chain(Chain::kSeparate,
                         {.kernel = GemmKernel::kPacked,
                          .tier = SimdTier::kSse2,
                          .rounding = rounding},
                         "sse2");
  }
}

TEST(KernelOracle, ScalarMatchesMulAddChain) {
  expect_matches_chain(
      Chain::kSeparate,
      {.kernel = GemmKernel::kPacked, .tier = SimdTier::kScalar}, "scalar");
}

// The separate AVX2 kernel against the library's other separate kernels:
// kScalar on every case, and kNaive where kNaive's own chain coincides
// (alpha == 1, beta == 0: kNaive scales the finished sum by alpha and adds
// it to beta*C, a different operation sequence otherwise).
TEST(KernelOracle, SeparateAvx2EqualsScalarAndNaive) {
  if (!simd_tier_available(SimdTier::kAvx2)) {
    GTEST_SKIP() << "AVX2 tier not available on this host";
  }
  const GemmOptions sep{.kernel = GemmKernel::kPacked,
                        .tier = SimdTier::kAvx2,
                        .rounding = Rounding::kSeparate};
  const GemmOptions scalar{.kernel = GemmKernel::kPacked,
                           .tier = SimdTier::kScalar};
  const GemmOptions naive{.kernel = GemmKernel::kNaive};
  for (const Shape& s : kShapes) {
    Matrix a(s.m, s.k), b(s.k, s.n);
    util::fill_random(a, 43);
    util::fill_random(b, 44);
    for (double alpha : kAlphas) {
      for (double beta : kBetas) {
        const Matrix c = initial_c(s.m, s.n, false);
        const Matrix got = run(sep, alpha, a, b, beta, c);
        EXPECT_TRUE(same_bits(got, run(scalar, alpha, a, b, beta, c)))
            << "vs scalar m=" << s.m << " n=" << s.n << " k=" << s.k
            << " alpha=" << alpha << " beta=" << beta;
        if (alpha == 1.0 && beta == 0.0) {
          EXPECT_TRUE(same_bits(got, run(naive, alpha, a, b, beta, c)))
              << "vs naive m=" << s.m << " n=" << s.n << " k=" << s.k;
        }
      }
    }
  }
}

// kAuto with separate rounding is what the verification reference runs:
// whatever tier it resolves to, the bits are kScalar's.
TEST(KernelOracle, AutoTierSeparateRoundingEqualsScalar) {
  Matrix a(70, 300), b(300, 45);
  util::fill_random(a, 45);
  util::fill_random(b, 46);
  const Matrix scalar = multiply(
      a, b, {.kernel = GemmKernel::kPacked, .tier = SimdTier::kScalar});
  EXPECT_TRUE(same_bits(multiply(a, b,
                                 {.kernel = GemmKernel::kPacked,
                                  .tier = SimdTier::kAuto,
                                  .rounding = Rounding::kSeparate}),
                        scalar));
}

}  // namespace
}  // namespace summagen::blas
