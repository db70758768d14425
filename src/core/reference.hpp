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

/// Rows of the reference product reference_max_abs_error forms at a time.
inline constexpr std::int64_t kReferenceBandRows = 256;

/// C = A * B with the reference kernel — the oracle SummaGen results are
/// checked against in tests and numeric experiments.
util::Matrix reference_multiply(const util::Matrix& a, const util::Matrix& b);

/// max |C - A*B| over all elements, equal bit for bit to
/// `util::Matrix::max_abs_diff(c, reference_multiply(a, b))` but without
/// the whole product: A*B is formed kReferenceBandRows rows at a time into
/// one pooled band buffer and folded into a running maximum. NaN
/// propagates as in util::max_abs_diff. Throws std::invalid_argument on
/// shape mismatches.
double reference_max_abs_error(const util::Matrix& a, const util::Matrix& b,
                               const util::Matrix& c);

/// Tolerance scale for comparing two n x n products of matrices with
/// entries in [-1, 1]: |error| grows like n * eps under reassociation.
double gemm_tolerance(std::int64_t n);

}  // namespace summagen::core
