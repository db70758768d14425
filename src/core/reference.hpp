// Reference product for verification.
//
// The reference is the packed kernel at the best available SIMD tier
// with separate rounding (blas::Rounding::kSeparate), run on the shared
// pool at its current width. Every separate-rounding kernel keeps the
// per-element l-ascending accumulation chain of the ikj kernel — one
// separately rounded multiply and add per l, starting from zero — so
// every element of the reference is bit-identical to kScalar, kNaive and
// kBlocked, whatever the tier, row-band split, block sizes or pool width a
// call runs with (SUMMAGEN_FORCE_SCALAR=1 only makes it slower).
#pragma once

#include <cstdint>

#include "src/blas/gemm.hpp"
#include "src/util/matrix.hpp"

namespace summagen::core {

/// The one reference kernel: every reference product runs with exactly
/// these options (micro_dgemm's BM_GemmReference times them too).
inline constexpr blas::GemmOptions kReferenceGemm{
    .kernel = blas::GemmKernel::kPacked,
    .tier = blas::SimdTier::kAuto,
    .rounding = blas::Rounding::kSeparate};

/// Elements of the reference product reference_max_abs_error forms at a
/// time (32 MiB): the band is clamp(kReferenceBandDoubles / n, 1, m) rows,
/// the whole product up to n = 2048 and 512 rows at n = 8192. A band that
/// tall gives the packed kernel enough row tasks per k-block to keep the
/// whole pool busy; a 256-row band left it 4 tasks per block at n = 2048.
inline constexpr std::int64_t kReferenceBandDoubles = std::int64_t{1} << 22;

/// C = A * B with the reference kernel — the oracle SummaGen results are
/// checked against in tests and numeric experiments.
util::Matrix reference_multiply(const util::Matrix& a, const util::Matrix& b);

/// max |C - A*B| over all elements, equal bit for bit to
/// `util::Matrix::max_abs_diff(c, reference_multiply(a, b))` but without
/// the whole product once it exceeds kReferenceBandDoubles: A*B is formed
/// a band of rows at a time into one pooled buffer, and each band's
/// |ref - C| is folded in row bands on the shared pool (util::row_bands)
/// into a running maximum. The first NaN difference in row-major order is
/// returned as in util::max_abs_diff. Throws std::invalid_argument on
/// shape mismatches.
double reference_max_abs_error(const util::Matrix& a, const util::Matrix& b,
                               const util::Matrix& c);

/// Tolerance scale for comparing two n x n products of matrices with
/// entries in [-1, 1]: |error| grows like n * eps under reassociation.
double gemm_tolerance(std::int64_t n);

}  // namespace summagen::core
