// The one register-tiled microkernel template behind every SIMD tier of
// the packed DGEMM (the tile contract is documented in microkernel.hpp).
//
// tile_kernel<Isa, MR, Rounding> computes an MR x NR tile with NR = two
// Isa vectors: MR packed-A values broadcast against two packed-B vectors
// per k step, into 2*MR vector accumulators. Every row loop carries
// `#pragma GCC unroll`, so each accumulator is a named value after
// unrolling and stays in a register for the whole k loop (no per-step
// store to the stack); the operands are __restrict so the loads of the
// packed panels never have to be re-ordered around stores to C.
//
// Rounding classes (the only thing that changes a tile's bits):
//   kFused     acc = fma(a, b, acc) — one rounding per step;
//   kSeparate  acc = acc + (a * b), each rounded — per element exactly
//              the operation sequence of micro_kernel_scalar_4x8, so the
//              result is bitwise equal to the scalar tier at any vector
//              width (the surrounding TU must not contract mul+add: the
//              project builds with -ffp-contract=off).
// The accumulator init is shared by both classes and by the scalar
// kernel: first block ? (beta == 0 ? 0 : beta*C) : C for valid elements,
// zero in padding lanes.
//
// `Isa` is a traits struct defined by the TU that instantiates the
// template (compiled with the matching target flags); this header uses no
// intrinsics itself. It provides:
//   using Vec;  static constexpr int kWidth;       doubles per Vec
//   zero(), set1(x), broadcast(const double*)
//   load(p) (aligned), loadu(p), store(p, v) (aligned), storeu(p, v)
//   mul(a, b), add(a, b), and fmadd(a, b, c) = a*b + c for kFused.
#pragma once

#include <cstdint>

namespace summagen::blas::detail {

enum class RoundingClass { kFused, kSeparate };

template <class Isa, int MR, RoundingClass R>
inline void tile_kernel(const double* __restrict pa_quad,
                        const double* __restrict pb_panel, std::int64_t kc,
                        std::int64_t rows, std::int64_t cols,
                        bool first_block, double beta, double* __restrict c,
                        std::int64_t ldc) {
  static_assert(MR >= 1 && MR <= 16, "row loops unroll at most 16 times");
  using Vec = typename Isa::Vec;
  constexpr int kW = Isa::kWidth;
  constexpr int kNr = 2 * kW;
  Vec acc0[MR];  // columns [0, kW) of each row
  Vec acc1[MR];  // columns [kW, kNr)
  alignas(64) double tile[MR * kNr];
  const bool full = rows == MR && cols == kNr;
  if (first_block && beta == 0.0) {
#pragma GCC unroll 16
    for (int r = 0; r < MR; ++r) {
      acc0[r] = Isa::zero();
      acc1[r] = Isa::zero();
    }
  } else if (full) {
    // beta*cur is exact for beta == 1 (1.0*x == x bitwise, NaN included),
    // so the common accumulate call needs no special case.
    const Vec bv = Isa::set1(beta);
#pragma GCC unroll 16
    for (int r = 0; r < MR; ++r) {
      const Vec lo = Isa::loadu(c + r * ldc);
      const Vec hi = Isa::loadu(c + r * ldc + kW);
      acc0[r] = first_block ? Isa::mul(bv, lo) : lo;
      acc1[r] = first_block ? Isa::mul(bv, hi) : hi;
    }
  } else {
    // Fringe: stage the valid C region (zeros elsewhere) and run the full
    // tile — the packed operands are zero-padded, so padding lanes never
    // feed a valid element and the valid lanes see the same operation
    // sequence as in a full tile.
    for (int r = 0; r < MR; ++r) {
      for (int cix = 0; cix < kNr; ++cix) {
        double v = 0.0;
        if (r < rows && cix < cols) {
          const double cur = c[r * ldc + cix];
          v = first_block ? beta * cur : cur;
        }
        tile[r * kNr + cix] = v;
      }
    }
#pragma GCC unroll 16
    for (int r = 0; r < MR; ++r) {
      acc0[r] = Isa::load(tile + r * kNr);
      acc1[r] = Isa::load(tile + r * kNr + kW);
    }
  }

  for (std::int64_t l = 0; l < kc; ++l) {
    const double* pa_l = pa_quad + l * MR;
    const Vec b0 = Isa::loadu(pb_panel + l * kNr);
    const Vec b1 = Isa::loadu(pb_panel + l * kNr + kW);
#pragma GCC unroll 16
    for (int r = 0; r < MR; ++r) {
      const Vec av = Isa::broadcast(pa_l + r);
      if constexpr (R == RoundingClass::kFused) {
        acc0[r] = Isa::fmadd(av, b0, acc0[r]);
        acc1[r] = Isa::fmadd(av, b1, acc1[r]);
      } else {
        acc0[r] = Isa::add(acc0[r], Isa::mul(av, b0));
        acc1[r] = Isa::add(acc1[r], Isa::mul(av, b1));
      }
    }
  }

  if (full) {
#pragma GCC unroll 16
    for (int r = 0; r < MR; ++r) {
      Isa::storeu(c + r * ldc, acc0[r]);
      Isa::storeu(c + r * ldc + kW, acc1[r]);
    }
    return;
  }
#pragma GCC unroll 16
  for (int r = 0; r < MR; ++r) {
    Isa::store(tile + r * kNr, acc0[r]);
    Isa::store(tile + r * kNr + kW, acc1[r]);
  }
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t cix = 0; cix < cols; ++cix) {
      c[r * ldc + cix] = tile[r * kNr + cix];
    }
  }
}

}  // namespace summagen::blas::detail
