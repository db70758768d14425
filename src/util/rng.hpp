// Deterministic random number helpers.
//
// Every stochastic component in the library (matrix initialisation, meter
// noise, profile jitter) takes an explicit seed so experiments replay
// bit-identically — a requirement for the Student-t repetition driver tests.
#pragma once

#include <cstdint>
#include <random>

#include "src/util/matrix.hpp"
#include "src/util/row_bands.hpp"

namespace summagen::util {

/// Thin wrapper over a 64-bit Mersenne Twister with convenience draws.
///
/// Distributions are members, parameterised per draw — constructing a fresh
/// std::*_distribution per call (the old shape) both costs a constructor on
/// every draw and, for normal(), discards the cached second Box-Muller
/// variate, wasting half the engine output.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed5eedULL) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    using Dist = std::uniform_real_distribution<double>;
    return real_(engine_, Dist::param_type(lo, hi));
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    using Dist = std::uniform_int_distribution<std::int64_t>;
    return int_(engine_, Dist::param_type(lo, hi));
  }

  /// Normal draw.
  double normal(double mean, double stddev) {
    using Dist = std::normal_distribution<double>;
    return normal_(engine_, Dist::param_type(mean, stddev));
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
  std::uniform_real_distribution<double> real_;
  std::uniform_int_distribution<std::int64_t> int_;
  std::normal_distribution<double> normal_;
};

/// Derives a child seed; avoids correlated streams when a seed fans out
/// across ranks, rows, or repetitions (SplitMix64 finaliser).
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Fills `m` with uniform values in [lo, hi); deterministic given `seed`.
///
/// Each row draws from its own engine seeded with `derive_seed(seed, row)`
/// and rows fill in parallel on the shared sgpool executor — the result is
/// bit-identical for any worker count (including the serial small-matrix
/// path), since the row <-> stream mapping never depends on scheduling.
inline void fill_random(Matrix& m, std::uint64_t seed, double lo = -1.0,
                        double hi = 1.0) {
  const std::int64_t cols = m.cols();
  double* data = m.data();
  // Engine construction is ~2.5 KiB of state per row, so small matrices
  // fill serially; the values are identical for any split.
  row_bands(m.rows(), cols).run([=](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t i = r0; i < r1; ++i) {
      Rng rng(derive_seed(seed, static_cast<std::uint64_t>(i)));
      double* row = data + i * cols;
      for (std::int64_t j = 0; j < cols; ++j) row[j] = rng.uniform(lo, hi);
    }
  });
}

}  // namespace summagen::util
