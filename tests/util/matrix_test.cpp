#include "src/util/matrix.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "src/mpi/mpi.hpp"
#include "src/pool/pool.hpp"
#include "src/util/accounting.hpp"
#include "src/util/row_bands.hpp"
#include "src/util/rng.hpp"

namespace summagen::util {
namespace {

TEST(Matrix, DefaultIsEmpty) {
  Matrix m;
  EXPECT_EQ(m.rows(), 0);
  EXPECT_EQ(m.cols(), 0);
  EXPECT_TRUE(m.empty());
}

TEST(Matrix, ConstructsZeroInitialised) {
  Matrix m(3, 5);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 5);
  EXPECT_EQ(m.size(), 15);
  for (double v : m.span()) EXPECT_EQ(v, 0.0);
}

TEST(Matrix, ConstructsWithFillValue) {
  Matrix m(2, 2, 7.5);
  for (double v : m.span()) EXPECT_EQ(v, 7.5);
}

TEST(Matrix, ThrowsOnNegativeDimensions) {
  EXPECT_THROW(Matrix(-1, 2), std::invalid_argument);
  EXPECT_THROW(Matrix(2, -1), std::invalid_argument);
}

TEST(Matrix, ZeroByNIsValid) {
  Matrix m(0, 7);
  EXPECT_TRUE(m.empty());
  Matrix m2(7, 0);
  EXPECT_TRUE(m2.empty());
}

TEST(Matrix, ElementAccessIsRowMajor) {
  Matrix m(2, 3);
  m(0, 0) = 1;
  m(0, 2) = 2;
  m(1, 0) = 3;
  EXPECT_EQ(m.data()[0], 1);
  EXPECT_EQ(m.data()[2], 2);
  EXPECT_EQ(m.data()[3], 3);
}

TEST(Matrix, AtThrowsOutOfRange) {
  Matrix m(2, 2);
  EXPECT_THROW(m.at(2, 0), std::out_of_range);
  EXPECT_THROW(m.at(0, 2), std::out_of_range);
  EXPECT_THROW(m.at(-1, 0), std::out_of_range);
  EXPECT_NO_THROW(m.at(1, 1));
}

TEST(Matrix, MaxAbsDiff) {
  Matrix a(2, 2, 1.0);
  Matrix b(2, 2, 1.0);
  b(1, 1) = 1.5;
  EXPECT_DOUBLE_EQ(Matrix::max_abs_diff(a, b), 0.5);
  EXPECT_DOUBLE_EQ(Matrix::max_abs_diff(a, a), 0.0);
}

TEST(Matrix, MaxAbsDiffShapeMismatchThrows) {
  Matrix a(2, 2), b(2, 3);
  EXPECT_THROW(Matrix::max_abs_diff(a, b), std::invalid_argument);
}

// std::max(worst, NaN) keeps `worst`, so a plain max fold would report 0
// for a C full of NaN; the difference must propagate NaN instead.
TEST(Matrix, MaxAbsDiffPropagatesNaN) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int at = 0; at < 4; ++at) {
    Matrix a(2, 2, 1.0);
    const Matrix b(2, 2, 1.0);
    a.data()[at] = nan;
    EXPECT_TRUE(std::isnan(Matrix::max_abs_diff(a, b))) << at;
    EXPECT_TRUE(std::isnan(Matrix::max_abs_diff(b, a))) << at;
  }
  Matrix a(2, 2, 1.0);
  const Matrix b(2, 2, 1.0);
  a(1, 0) = 3.0;
  a(1, 1) = std::numeric_limits<double>::infinity();
  EXPECT_EQ(Matrix::max_abs_diff(a, b),
            std::numeric_limits<double>::infinity());
}

TEST(Matrix, MaxAbsDiffSpanLengthMismatchThrows) {
  const std::vector<double> x(3, 0.0), y(4, 0.0);
  EXPECT_THROW(max_abs_diff(x, y), std::invalid_argument);
  EXPECT_EQ(max_abs_diff(std::span<const double>(), {}), 0.0);
}

TEST(CopyMatrix, ContiguousFastPath) {
  Matrix src(3, 4);
  fill_random(src, 1);
  Matrix dst(3, 4);
  copy_matrix(dst.data(), 4, src.data(), 4, 3, 4);
  EXPECT_EQ(dst, src);
}

TEST(CopyMatrix, StridedCopy) {
  // Copy a 2x2 block out of a 4x4 matrix into a 2x3 destination.
  Matrix src(4, 4);
  for (std::int64_t i = 0; i < 4; ++i)
    for (std::int64_t j = 0; j < 4; ++j) src(i, j) = i * 10.0 + j;
  Matrix dst(2, 3, -1.0);
  copy_matrix(dst.data(), 3, src.data() + 1 * 4 + 2, 4, 2, 2);
  EXPECT_EQ(dst(0, 0), 12.0);
  EXPECT_EQ(dst(0, 1), 13.0);
  EXPECT_EQ(dst(1, 0), 22.0);
  EXPECT_EQ(dst(1, 1), 23.0);
  EXPECT_EQ(dst(0, 2), -1.0);  // untouched past the copied columns
}

TEST(CopyMatrix, ZeroExtentIsNoop) {
  Matrix dst(2, 2, 5.0);
  const double src[1] = {9.0};
  copy_matrix(dst.data(), 2, src, 1, 0, 1);
  copy_matrix(dst.data(), 2, src, 1, 1, 0);
  for (double v : dst.span()) EXPECT_EQ(v, 5.0);
}

TEST(CopyMatrix, RejectsBadLeadingDimensions) {
  Matrix a(2, 4), b(2, 4);
  EXPECT_THROW(copy_matrix(a.data(), 3, b.data(), 4, 2, 4),
               std::invalid_argument);
  EXPECT_THROW(copy_matrix(a.data(), 4, b.data(), 3, 2, 4),
               std::invalid_argument);
  EXPECT_THROW(copy_matrix(a.data(), 4, b.data(), 4, -1, 4),
               std::invalid_argument);
}

TEST(ExtractPlaceBlock, RoundTrips) {
  Matrix m(6, 6);
  fill_random(m, 3);
  const Matrix block = extract_block(m, 2, 1, 3, 4);
  EXPECT_EQ(block.rows(), 3);
  EXPECT_EQ(block.cols(), 4);
  EXPECT_EQ(block(0, 0), m(2, 1));
  EXPECT_EQ(block(2, 3), m(4, 4));

  Matrix target(6, 6);
  place_block(target, block, 2, 1);
  for (std::int64_t i = 0; i < 3; ++i)
    for (std::int64_t j = 0; j < 4; ++j)
      EXPECT_EQ(target(2 + i, 1 + j), m(2 + i, 1 + j));
  EXPECT_EQ(target(0, 0), 0.0);
}

TEST(ExtractBlock, ThrowsOutsideMatrix) {
  Matrix m(4, 4);
  EXPECT_THROW(extract_block(m, 2, 2, 3, 1), std::out_of_range);
  EXPECT_THROW(extract_block(m, 0, 3, 1, 2), std::out_of_range);
  EXPECT_THROW(extract_block(m, -1, 0, 1, 1), std::out_of_range);
}

TEST(PlaceBlock, ThrowsOutsideMatrix) {
  Matrix m(4, 4);
  Matrix b(2, 2, 1.0);
  EXPECT_THROW(place_block(m, b, 3, 0), std::out_of_range);
  EXPECT_THROW(place_block(m, b, 0, 3), std::out_of_range);
}

TEST(ToString, RendersSmallMatrix) {
  Matrix m(2, 2);
  m(0, 0) = 1;
  m(0, 1) = 2;
  m(1, 0) = 3;
  m(1, 1) = 4;
  EXPECT_EQ(to_string(m), "2x2 [ 1 2 ; 3 4 ]");
}

TEST(ToString, TruncatesLargeMatrix) {
  Matrix m(20, 20, 1.0);
  const std::string s = to_string(m, 2);
  EXPECT_NE(s.find("..."), std::string::npos);
  EXPECT_NE(s.find("20x20"), std::string::npos);
}

// --- Zero-fill above the row-band serial cut ---
//
// A Matrix this size is filled in row bands on the shared pool. Its storage
// is never value-initialised by the allocator, so every element must still
// read +0.0 (bitwise) wherever it is built: run_gemm accumulates into C
// with beta = 1.

constexpr std::int64_t kBigRows = 301;  // 301 x 211 > kRowBandSerialCut
constexpr std::int64_t kBigCols = 211;
static_assert(kBigRows * kBigCols >= kRowBandSerialCut);

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

/// Number of elements whose bits are not those of +0.0.
std::int64_t nonzero_bits(const Matrix& m) {
  std::int64_t bad = 0;
  for (double v : m.span()) bad += std::bit_cast<std::uint64_t>(v) != 0;
  return bad;
}

TEST(MatrixZeroFill, PositiveZeroAtEveryPoolWidth) {
  const PoolSizeGuard restore;
  for (int workers : {0, 1, 3}) {
    sgpool::Pool::configure(workers);
    ASSERT_GT(row_bands(kBigRows, kBigCols).count(), workers > 0 ? 1 : 0);
    const Matrix m(kBigRows, kBigCols);
    EXPECT_EQ(nonzero_bits(m), 0) << "workers=" << workers;
    const Matrix v(kBigRows, kBigCols, -2.5);
    for (double x : v.span()) ASSERT_EQ(x, -2.5) << "workers=" << workers;
  }
}

TEST(MatrixZeroFill, PositiveZeroInsidePoolTasks) {
  const PoolSizeGuard restore;
  sgpool::Pool::configure(3);
  std::vector<std::int64_t> bad(4, -1);
  sgpool::TaskGroup group;
  for (std::size_t t = 0; t < bad.size(); ++t) {
    group.run([&bad, t] { bad[t] = nonzero_bits(Matrix(kBigRows, kBigCols)); });
  }
  group.wait();
  for (std::size_t t = 0; t < bad.size(); ++t) EXPECT_EQ(bad[t], 0) << t;
}

// summa.cpp builds each rank's C block inside its rank fiber.
TEST(MatrixZeroFill, PositiveZeroInsideRankFibers) {
  const PoolSizeGuard restore;
  sgpool::Pool::configure(3);
  sgmpi::Config config;
  config.nranks = 3;
  std::vector<std::int64_t> bad(3, -1);
  sgmpi::Runtime runtime(config);
  runtime.run([&bad](sgmpi::Comm& comm) {
    const Matrix m(kBigRows, kBigCols);
    comm.barrier();
    bad[static_cast<std::size_t>(comm.rank())] = nonzero_bits(m);
  });
  for (std::size_t r = 0; r < bad.size(); ++r) EXPECT_EQ(bad[r], 0) << r;
}

// Freed payloads of the same size come back from the heap with their old
// contents; the new Matrix must overwrite all of them.
TEST(MatrixZeroFill, PositiveZeroOverReusedDirtyMemory) {
  const PoolSizeGuard restore;
  sgpool::Pool::configure(3);
  for (int round = 0; round < 3; ++round) {
    {
      Matrix dirty(kBigRows, kBigCols);
      dirty.fill(std::numeric_limits<double>::quiet_NaN());
    }
    EXPECT_EQ(nonzero_bits(Matrix(kBigRows, kBigCols)), 0) << round;
  }
}

TEST(MatrixZeroFill, RecordsOneAllocationOfThePayload) {
  const PoolSizeGuard restore;
  sgpool::Pool::configure(3);
  const std::int64_t bytes =
      kBigRows * kBigCols * static_cast<std::int64_t>(sizeof(double));
  const DataPlaneStats before = data_plane_stats();
  const Matrix zero(kBigRows, kBigCols);
  const Matrix filled(kBigRows, kBigCols, 1.0);
  const Matrix small(3, 5);
  const DataPlaneStats d = data_plane_stats().since(before);
  EXPECT_EQ(d.allocs, 3);
  EXPECT_EQ(d.alloc_bytes,
            2 * bytes + 15 * static_cast<std::int64_t>(sizeof(double)));
}

}  // namespace
}  // namespace summagen::util
