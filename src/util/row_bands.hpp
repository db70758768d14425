// Row-band parallelism for one-pass element-wise work on row-major buffers.
//
// fill_random, the Matrix fill (and with it the zero-fill of every new
// Matrix) and the verifier's |ref - C| fold each touch a rows x cols buffer
// once, element by element. They share one split: below kRowBandSerialCut
// elements the caller runs the whole range, since task overhead outweighs
// the pass; otherwise the rows are cut into one band per pool worker plus
// the caller, and the bands run on the shared sgpool executor.
#pragma once

#include <cstdint>
#include <functional>

namespace summagen::util {

/// Passes over fewer elements than this run serially on the caller.
inline constexpr std::int64_t kRowBandSerialCut = std::int64_t{1} << 14;

/// One split of [0, rows) into consecutive bands of `height` rows (the
/// last may be shorter).
struct RowBands {
  std::int64_t rows = 0;
  std::int64_t height = 1;  ///< >= 1

  /// Number of bands; band b covers [b * height, min(rows, (b+1) * height)).
  std::int64_t count() const { return (rows + height - 1) / height; }

  /// Runs body(r0, r1) once per band — inline when there is one band, else
  /// on the shared pool with the caller helping — and returns when every
  /// band is done. Rethrows the first exception a band throws.
  void run(const std::function<void(std::int64_t, std::int64_t)>& body) const;
};

/// The split for a rows x cols pass: one band when rows * cols is below
/// kRowBandSerialCut, else ceil(rows / (shared pool size + 1)) rows a band.
RowBands row_bands(std::int64_t rows, std::int64_t cols);

}  // namespace summagen::util
