// The verification reference: one kernel (kPacked, best tier, separate
// rounding), bit-identical to the scalar, naive and blocked kernels, and a
// streamed check that returns exactly the error a whole reference product
// would give — at any band remainder and any pool width.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "src/core/reference.hpp"
#include "src/core/runner.hpp"
#include "src/pool/pool.hpp"
#include "src/util/rng.hpp"

namespace summagen::core {
namespace {

/// Restores the shared pool's size when a test that resizes it ends.
class PoolSizeGuard {
 public:
  PoolSizeGuard() : size_(sgpool::Pool::instance().size()) {}
  ~PoolSizeGuard() { sgpool::Pool::configure(size_); }
  PoolSizeGuard(const PoolSizeGuard&) = delete;
  PoolSizeGuard& operator=(const PoolSizeGuard&) = delete;

 private:
  int size_;
};

struct Operands {
  util::Matrix a, b;
};

Operands random_operands(std::int64_t n, std::uint64_t seed) {
  Operands ops{util::Matrix(n, n), util::Matrix(n, n)};
  util::fill_random(ops.a, seed);
  util::fill_random(ops.b, seed + 1);
  return ops;
}

bool same_bits(const util::Matrix& x, const util::Matrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(),
                     static_cast<std::size_t>(x.size()) * sizeof(double)) ==
             0;
}

TEST(Reference, MultiplyMatchesNaiveBitForBit) {
  for (std::int64_t n : {1, 3, 17, 255, 256, 257, 300}) {
    const Operands ops = random_operands(n, 11 + static_cast<std::uint64_t>(n));
    const util::Matrix naive =
        blas::multiply(ops.a, ops.b, {.kernel = blas::GemmKernel::kNaive});
    EXPECT_TRUE(same_bits(reference_multiply(ops.a, ops.b), naive))
        << "n=" << n;
  }
}

TEST(Reference, MultiplyMatchesBlockedBitForBitAtScale) {
  const Operands ops = random_operands(1024, 5);
  const util::Matrix blocked =
      blas::multiply(ops.a, ops.b, {.kernel = blas::GemmKernel::kBlocked});
  EXPECT_TRUE(same_bits(reference_multiply(ops.a, ops.b), blocked));
}

// The streamed check against the whole blocked product, for the default
// (widest-tier) kernel's C and for copies perturbed in the first, middle
// and last rows, at every pool width (0 workers = the caller runs every
// task inline). Square operands this size are one reference band; the
// band seams are covered by StreamedErrorBitsAcrossBandSeams.
TEST(Reference, StreamedErrorEqualsWholeBlockedComparison) {
  const PoolSizeGuard restore;
  for (std::int64_t n : {1, 3, 255, 256, 257, 600}) {
    const Operands ops = random_operands(n, 40 + static_cast<std::uint64_t>(n));
    const util::Matrix blocked =
        blas::multiply(ops.a, ops.b, {.kernel = blas::GemmKernel::kBlocked});
    const util::Matrix fast = blas::multiply(ops.a, ops.b);
    std::vector<util::Matrix> candidates{fast};
    double delta = 1e-9;
    for (std::int64_t row : {std::int64_t{0}, n / 2, n - 1}) {
      util::Matrix c = fast;
      c(row, (row * 7) % n) += delta;
      candidates.push_back(c);
      delta *= -1e3;
    }
    for (int workers : {0, 1, 3}) {
      sgpool::Pool::configure(workers);
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        const double want =
            util::Matrix::max_abs_diff(candidates[i], blocked);
        EXPECT_EQ(reference_max_abs_error(ops.a, ops.b, candidates[i]), want)
            << "n=" << n << " workers=" << workers << " candidate " << i;
      }
    }
  }
}

// Several reference bands, cheaply: C is 4096 columns wide, so a band is
// kReferenceBandDoubles / 4096 = 1024 rows, and k = 2 keeps the products
// trivial. C is perturbed on each side of every band seam and in the last
// row; then two NaNs with distinct payloads go into the last band, and the
// verdict must carry the first one in row-major order even when the fold
// splits that band into chunks. Every verdict equals, bit for bit, an
// explicit portable-scalar product followed by max_abs_diff.
TEST(Reference, StreamedErrorBitsAcrossBandSeams) {
  const PoolSizeGuard restore;
  constexpr std::int64_t kCols = 4096;
  constexpr std::int64_t kBand = kReferenceBandDoubles / kCols;
  static_assert(kBand == 1024);
  const double nan_first = std::bit_cast<double>(0x7ff8000000000001ULL);
  const double nan_second = std::bit_cast<double>(0x7ff8000000000002ULL);
  for (std::int64_t m : {kBand - 1, kBand, kBand + 1, 2 * kBand + 1}) {
    util::Matrix a(m, 2), b(2, kCols);
    util::fill_random(a, 500 + static_cast<std::uint64_t>(m));
    util::fill_random(b, 600 + static_cast<std::uint64_t>(m));
    const util::Matrix scalar = blas::multiply(
        a, b,
        {.kernel = blas::GemmKernel::kPacked, .tier = blas::SimdTier::kScalar});
    util::Matrix c = blas::multiply(a, b);
    const auto check = [&](const char* what) {
      const double want = util::Matrix::max_abs_diff(c, scalar);
      for (int workers : {0, 1, 3}) {
        sgpool::Pool::configure(workers);
        const double got = reference_max_abs_error(a, b, c);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                  std::bit_cast<std::uint64_t>(want))
            << "m=" << m << " workers=" << workers << " " << what << ": "
            << got << " vs " << want;
      }
    };
    check("unperturbed");
    double delta = 1e-9;
    for (std::int64_t row :
         {kBand - 1, kBand, 2 * kBand - 1, 2 * kBand, m - 1}) {
      if (row >= m) continue;
      const std::int64_t col = (row * 7) % kCols;
      const double saved = c(row, col);
      c(row, col) += delta;
      check("perturbed row");
      c(row, col) = saved;
      delta *= -10.0;
    }
    const std::int64_t last_band = (m - 1) / kBand * kBand;
    c(kBand / 2 < m ? kBand / 2 : 0, 1) += 0.5;  // an earlier, larger error
    c(last_band, 3) = nan_first;
    c(m - 1, kCols - 1) = nan_second;
    check("NaN in the last band");
    EXPECT_EQ(std::bit_cast<std::uint64_t>(reference_max_abs_error(a, b, c)),
              std::bit_cast<std::uint64_t>(nan_first))
        << "m=" << m;
  }
}

// Bit oracle for the verdict: the streamed error equals, bit for bit and
// NaN included, an explicit portable-scalar-tier product followed by
// max_abs_diff — whichever tier the reference kernel dispatches to.
TEST(Reference, StreamedErrorBitsEqualExplicitScalarComparison) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (std::int64_t n : {1, 255, 257, 600}) {
    Operands ops = random_operands(n, 90 + static_cast<std::uint64_t>(n));
    for (bool nan_in_a : {false, true}) {
      if (nan_in_a) ops.a(n - 1, 0) = nan;
      const util::Matrix scalar = blas::multiply(
          ops.a, ops.b,
          {.kernel = blas::GemmKernel::kPacked,
           .tier = blas::SimdTier::kScalar});
      const util::Matrix fast = blas::multiply(ops.a, ops.b);
      std::vector<util::Matrix> candidates{fast, fast, fast};
      candidates[1](0, 0) = nan;
      candidates[2](n / 2, n - 1) = -inf;
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        const double want = util::Matrix::max_abs_diff(candidates[i], scalar);
        const double got = reference_max_abs_error(ops.a, ops.b, candidates[i]);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                  std::bit_cast<std::uint64_t>(want))
            << "n=" << n << " nan_in_a=" << nan_in_a << " candidate " << i
            << ": " << got << " vs " << want;
      }
    }
  }
}

TEST(Reference, StreamedErrorRejectsShapeMismatch) {
  const Operands ops = random_operands(4, 3);
  EXPECT_THROW(reference_max_abs_error(ops.a, ops.b, util::Matrix(4, 5)),
               std::invalid_argument);
  EXPECT_THROW(reference_max_abs_error(ops.a, util::Matrix(5, 4), ops.a),
               std::invalid_argument);
}

// A NaN or an infinity anywhere in C must fail verification: the fold must
// not drop NaN the way std::max(worst, NaN) does.
TEST(Reference, NonFiniteEntriesFailVerification) {
  const std::int64_t n = 300;
  const Operands ops = random_operands(n, 77);
  const util::Matrix ref = reference_multiply(ops.a, ops.b);
  const double tolerance = gemm_tolerance(n);
  ASSERT_TRUE(reference_max_abs_error(ops.a, ops.b, ref) <= tolerance);
  const double inf = std::numeric_limits<double>::infinity();
  for (double bad : {std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
    for (std::int64_t row : {std::int64_t{0}, n - 1}) {
      util::Matrix c = ref;
      c(row, 1) = bad;
      const double err = reference_max_abs_error(ops.a, ops.b, c);
      EXPECT_FALSE(err <= tolerance) << "bad=" << bad << " row=" << row;
      EXPECT_EQ(std::isnan(err), std::isnan(bad));
      EXPECT_FALSE(util::Matrix::max_abs_diff(c, ref) <= tolerance);
    }
  }
  util::Matrix all_nan(n, n, std::numeric_limits<double>::quiet_NaN());
  EXPECT_TRUE(std::isnan(reference_max_abs_error(ops.a, ops.b, all_nan)));
}

// Every run hosts its ranks as fibers on the calling thread, so numeric and
// modeled runs alike leave the pool at the host width minus that one
// thread, and verification runs at that width without a resize.
TEST(Reference, NumericRunLeavesHostWidePoolForNextRunToResize) {
  ExperimentConfig config;
  config.platform = device::Platform::hclserver1();
  config.n = 256;
  config.shape = partition::Shape::kSquareCorner;
  config.regime = Regime::kConstant;
  config.cpm_speeds = {1.0, 2.0, 0.9};
  config.numeric = true;
  const ExperimentResult numeric = run_pmm(config);
  EXPECT_TRUE(numeric.verified) << numeric.max_abs_error;
  EXPECT_EQ(sgpool::Pool::instance().size(),
            sgpool::Pool::recommended_size(1));

  config.numeric = false;
  run_pmm(config);
  EXPECT_EQ(sgpool::Pool::instance().size(),
            sgpool::Pool::recommended_size(1));
  config.numeric = true;
  const ExperimentResult again = run_pmm(config);
  EXPECT_TRUE(again.verified);
  EXPECT_EQ(again.max_abs_error, numeric.max_abs_error);
  EXPECT_EQ(sgpool::Pool::instance().size(),
            sgpool::Pool::recommended_size(1));
}

}  // namespace
}  // namespace summagen::core
