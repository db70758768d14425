// Row-major dense matrix container and submatrix copy utilities.
//
// SummaGen (the paper, Section IV) manipulates raw row-major double buffers
// with explicit leading dimensions (`copy_matrix(dst, dld, src, sld, ...)`).
// This header provides a safe owning container plus the same low-level copy
// primitive the paper's pseudo-code relies on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace summagen::util {

/// Owning row-major matrix of doubles.
///
/// Invariants: `data().size() == rows()*cols()`, leading dimension == cols().
/// All indices are 0-based; element (i, j) lives at `data()[i*cols() + j]`.
class Matrix {
 public:
  Matrix() = default;

  /// Creates a rows x cols matrix, zero-initialised (+0.0 everywhere).
  Matrix(std::int64_t rows, std::int64_t cols);

  /// Creates a rows x cols matrix filled with `value`. The fill is the
  /// first write to the storage and runs in row bands (util::row_bands),
  /// so a large matrix is written and paged in by the whole pool.
  Matrix(std::int64_t rows, std::int64_t cols, double value);

  std::int64_t rows() const noexcept { return rows_; }
  std::int64_t cols() const noexcept { return cols_; }
  std::int64_t size() const noexcept { return rows_ * cols_; }
  bool empty() const noexcept { return size() == 0; }

  double* data() noexcept { return data_.data(); }
  const double* data() const noexcept { return data_.data(); }

  std::span<double> span() noexcept { return {data_.data(), data_.size()}; }
  std::span<const double> span() const noexcept {
    return {data_.data(), data_.size()};
  }

  double& operator()(std::int64_t i, std::int64_t j) noexcept {
    return data_[static_cast<std::size_t>(i * cols_ + j)];
  }
  double operator()(std::int64_t i, std::int64_t j) const noexcept {
    return data_[static_cast<std::size_t>(i * cols_ + j)];
  }

  /// Bounds-checked element access (throws std::out_of_range).
  double& at(std::int64_t i, std::int64_t j);
  double at(std::int64_t i, std::int64_t j) const;

  /// Sets every element to `value`, in row bands (util::row_bands).
  void fill(double value);

  /// Largest element-wise |a - b| (see the span overload: NaN propagates).
  /// Throws std::invalid_argument on a shape mismatch.
  static double max_abs_diff(const Matrix& a, const Matrix& b);

  bool operator==(const Matrix& other) const = default;

 private:
  /// std::allocator whose value-less construct() default-initialises, so
  /// data_ sized with it is left unwritten until the constructor fills it
  /// in row bands on the shared pool.
  template <class T>
  struct DefaultInitAllocator : std::allocator<T> {
    template <class U>
    struct rebind {
      using other = DefaultInitAllocator<U>;
    };
    DefaultInitAllocator() = default;
    template <class U>
    DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

    template <class U, class... Args>
    void construct(U* p, Args&&... args) {
      if constexpr (sizeof...(Args) == 0) {
        ::new (static_cast<void*>(p)) U;
      } else {
        ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
      }
    }
  };

  std::int64_t rows_ = 0;
  std::int64_t cols_ = 0;
  std::vector<double, DefaultInitAllocator<double>> data_;
};

/// Largest element-wise |x[i] - y[i]| over two equally long spans (0 when
/// empty). A NaN difference — a NaN in either operand, or Inf - Inf —
/// returns NaN, so a `max_abs_diff(...) <= tolerance` check fails on it
/// instead of folding it away. Throws std::invalid_argument on a length
/// mismatch.
double max_abs_diff(std::span<const double> x, std::span<const double> y);

/// Copies a `rows x cols` block between two row-major buffers with
/// leading dimensions `dst_ld` / `src_ld` (in elements).
///
/// This mirrors the `copy_matrix` helper in the paper's Figures 2-4.
/// Preconditions: dst_ld >= cols, src_ld >= cols, no aliasing overlap.
void copy_matrix(double* dst, std::int64_t dst_ld, const double* src,
                 std::int64_t src_ld, std::int64_t rows, std::int64_t cols);

/// Extracts the block with top-left corner (r0, c0) and size rows x cols.
Matrix extract_block(const Matrix& src, std::int64_t r0, std::int64_t c0,
                     std::int64_t rows, std::int64_t cols);

/// Writes `block` into `dst` with top-left corner at (r0, c0).
void place_block(Matrix& dst, const Matrix& block, std::int64_t r0,
                 std::int64_t c0);

/// Renders a small matrix for diagnostics ("3x3 [ 1 2 3 ; ... ]").
std::string to_string(const Matrix& m, std::int64_t max_dim = 8);

}  // namespace summagen::util
