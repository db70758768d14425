#include "src/core/reference.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "src/util/buffer_pool.hpp"
#include "src/util/row_bands.hpp"

namespace summagen::core {

util::Matrix reference_multiply(const util::Matrix& a, const util::Matrix& b) {
  return blas::multiply(a, b, kReferenceGemm);
}

double reference_max_abs_error(const util::Matrix& a, const util::Matrix& b,
                               const util::Matrix& c) {
  if (a.cols() != b.rows() || c.rows() != a.rows() || c.cols() != b.cols()) {
    throw std::invalid_argument("reference_max_abs_error: shape mismatch");
  }
  const std::int64_t m = a.rows();
  const std::int64_t n = b.cols();
  const std::int64_t k = a.cols();
  // Leading dimensions must be >= 1 even for an empty k or n.
  const std::int64_t lda = std::max<std::int64_t>(1, k);
  const std::int64_t ldb = std::max<std::int64_t>(1, n);
  const std::int64_t band_rows =
      std::min(m, std::max<std::int64_t>(1, kReferenceBandDoubles / ldb));
  util::PooledBuffer band = util::BufferPool::instance().acquire(
      static_cast<std::size_t>(band_rows * n));
  double worst = 0.0;
  for (std::int64_t r0 = 0; r0 < m; r0 += band_rows) {
    const std::int64_t rows = std::min(band_rows, m - r0);
    blas::dgemm(rows, n, k, 1.0, a.data() + r0 * k, lda, b.data(), ldb, 0.0,
                band.data(), ldb, kReferenceGemm);
    // Each fold chunk keeps its own maximum (or its first NaN); scanning
    // the chunks in row order returns the serial fold's bits.
    const util::RowBands chunks = util::row_bands(rows, n);
    std::vector<double> chunk_max(static_cast<std::size_t>(chunks.count()));
    chunks.run([&](std::int64_t i0, std::int64_t i1) {
      const auto count = static_cast<std::size_t>((i1 - i0) * n);
      chunk_max[static_cast<std::size_t>(i0 / chunks.height)] =
          util::max_abs_diff(
              std::span<const double>(band.data() + i0 * n, count),
              c.span().subspan(static_cast<std::size_t>((r0 + i0) * n),
                               count));
    });
    for (const double d : chunk_max) {
      if (std::isnan(d)) return d;
      worst = std::max(worst, d);
    }
  }
  return worst;
}

double gemm_tolerance(std::int64_t n) {
  return 64.0 * static_cast<double>(n) *
         std::numeric_limits<double>::epsilon();
}

}  // namespace summagen::core
