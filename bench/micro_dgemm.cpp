// Micro-benchmark: sgblas DGEMM kernels (the MKL/CUBLAS substrate).
//
// Beyond the single-caller kernel sweeps, the `Concurrent3` benchmarks
// model the in-process platform's three rank threads issuing local DGEMMs
// against the one shared sgpool executor — the scenario the pool exists
// for (no per-call thread spawning, no host oversubscription).
//
// Per-tier entries: BM_GemmPackedTier<Scalar|Sse2|Avx2> are registered for
// every SIMD tier available on this host, so one run covers the dispatch
// table and the baseline gates each tier independently (a forced-scalar
// host simply registers fewer entries). BM_GemmReference times the
// verification reference's kernel with exactly its options
// (core::kReferenceGemm: best tier, separate rounding), so the gate also
// covers the kernel every numeric run_pmm verifies with. BM_ReferenceCheck
// times the whole check run_pmm makes (core::reference_max_abs_error: band
// lease, reference products and the |ref - C| fold).
//
//   --json FILE   also write results as Google-Benchmark JSON (the format
//                 tools/compare_bench.py checks against BENCH_dgemm.json).
//   --repeats R   run R repetitions per benchmark and report aggregates;
//                 compare_bench.py prefers the medians (sugar for
//                 --benchmark_repetitions=R).
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/blas/gemm.hpp"
#include "src/blas/simd.hpp"
#include "src/core/reference.hpp"
#include "src/pool/pool.hpp"
#include "src/util/accounting.hpp"
#include "src/util/matrix.hpp"
#include "src/util/rng.hpp"

namespace {

using summagen::blas::GemmKernel;
using summagen::blas::GemmOptions;

// Exports the data-plane accounting delta of the timed region as benchmark
// counters, so the JSON baseline also gates allocation behaviour (a kernel
// that silently starts allocating per call regresses alloc_bytes_per_iter
// long before it regresses GFLOPs).
void set_alloc_counters(benchmark::State& state,
                        const summagen::util::DataPlaneStats& base) {
  const summagen::util::DataPlaneStats d =
      summagen::util::data_plane_stats().since(base);
  const double iters =
      static_cast<double>(state.iterations() > 0 ? state.iterations() : 1);
  state.counters["alloc_bytes_per_iter"] =
      static_cast<double>(d.alloc_bytes) / iters;
  state.counters["allocs_per_iter"] = static_cast<double>(d.allocs) / iters;
  state.counters["pool_hit_rate"] = d.pool_hit_rate();
}

void run_gemm(benchmark::State& state, const GemmOptions& opts) {
  const std::int64_t n = state.range(0);
  summagen::util::Matrix a(n, n), b(n, n), c(n, n);
  summagen::util::fill_random(a, 1);
  summagen::util::fill_random(b, 2);
  // One untimed warm-up so the counters measure the pool's steady state,
  // not the first touch of this problem size's buffer classes.
  summagen::blas::dgemm(n, n, n, 1.0, a.data(), n, b.data(), n, 0.0,
                        c.data(), n, opts);
  const summagen::util::DataPlaneStats base =
      summagen::util::data_plane_stats();
  for (auto _ : state) {
    summagen::blas::dgemm(n, n, n, 1.0, a.data(), n, b.data(), n, 0.0,
                          c.data(), n, opts);
    benchmark::DoNotOptimize(c.data());
  }
  set_alloc_counters(state, base);
  state.SetItemsProcessed(state.iterations() *
                          summagen::blas::gemm_flops(n, n, n));
}

// The verification call of a numeric run_pmm, end to end, against a C
// equal to the product. Real time: the fold and the products run on the
// pool, with the measuring thread only one of the participants.
void BM_ReferenceCheck(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  summagen::util::Matrix a(n, n), b(n, n);
  summagen::util::fill_random(a, 1);
  summagen::util::fill_random(b, 2);
  const summagen::util::Matrix c = summagen::blas::multiply(a, b);
  // Untimed warm-up: the first call leases the band buffer.
  double err = summagen::core::reference_max_abs_error(a, b, c);
  const summagen::util::DataPlaneStats base =
      summagen::util::data_plane_stats();
  for (auto _ : state) {
    err = summagen::core::reference_max_abs_error(a, b, c);
    benchmark::DoNotOptimize(err);
  }
  set_alloc_counters(state, base);
  state.SetItemsProcessed(state.iterations() *
                          summagen::blas::gemm_flops(n, n, n));
}

// Three caller threads (the rank-thread count of the paper's platform)
// each multiply their own n^3 problem concurrently through the shared
// pool. Items processed counts all three multiplications.
void run_gemm_concurrent3(benchmark::State& state, GemmKernel kernel) {
  constexpr int kCallers = 3;
  const std::int64_t n = state.range(0);
  std::vector<summagen::util::Matrix> as, bs, cs;
  for (int r = 0; r < kCallers; ++r) {
    as.emplace_back(n, n);
    bs.emplace_back(n, n);
    cs.emplace_back(n, n);
    summagen::util::fill_random(as.back(), 2 * r + 1);
    summagen::util::fill_random(bs.back(), 2 * r + 2);
  }
  GemmOptions opts;
  opts.kernel = kernel;
  const auto wave = [&] {
    std::vector<std::thread> callers;
    for (int r = 0; r < kCallers; ++r) {
      callers.emplace_back([&, r] {
        summagen::blas::dgemm(n, n, n, 1.0, as[r].data(), n, bs[r].data(), n,
                              0.0, cs[r].data(), n, opts);
      });
    }
    for (auto& t : callers) t.join();
  };
  // One untimed 3-way wave warms the pool at this concurrency level, so
  // the counters below report the steady state.
  wave();
  const summagen::util::DataPlaneStats base =
      summagen::util::data_plane_stats();
  for (auto _ : state) {
    wave();
    benchmark::DoNotOptimize(cs[0].data());
  }
  set_alloc_counters(state, base);
  state.SetItemsProcessed(state.iterations() * kCallers *
                          summagen::blas::gemm_flops(n, n, n));
}

void BM_GemmNaive(benchmark::State& state) {
  run_gemm(state, {.kernel = GemmKernel::kNaive, .threads = 1});
}
void BM_GemmBlocked(benchmark::State& state) {
  run_gemm(state, {.kernel = GemmKernel::kBlocked, .threads = 1});
}
void BM_GemmThreaded(benchmark::State& state) {
  run_gemm(state, {.kernel = GemmKernel::kThreaded});
}
void BM_GemmPacked(benchmark::State& state) {
  run_gemm(state, {.kernel = GemmKernel::kPacked});
}
void BM_GemmReference(benchmark::State& state) {
  run_gemm(state, summagen::core::kReferenceGemm);
}
void BM_GemmThreadedConcurrent3(benchmark::State& state) {
  run_gemm_concurrent3(state, GemmKernel::kThreaded);
}
void BM_GemmPackedConcurrent3(benchmark::State& state) {
  run_gemm_concurrent3(state, GemmKernel::kPacked);
}

// Registers one BM_GemmPackedTier<Name> entry per available SIMD tier, so
// the baseline JSON carries each tier's GFLOPs independently of which tier
// kAuto dispatches to.
void register_tier_benchmarks() {
  using summagen::blas::SimdTier;
  struct TierEntry {
    SimdTier tier;
    const char* name;
  };
  const TierEntry tiers[] = {{SimdTier::kScalar, "BM_GemmPackedTierScalar"},
                             {SimdTier::kSse2, "BM_GemmPackedTierSse2"},
                             {SimdTier::kAvx2, "BM_GemmPackedTierAvx2"}};
  for (const TierEntry& entry : tiers) {
    if (!summagen::blas::simd_tier_available(entry.tier)) continue;
    const SimdTier tier = entry.tier;
    benchmark::RegisterBenchmark(
        entry.name,
        [tier](benchmark::State& state) {
          run_gemm(state, {.kernel = GemmKernel::kPacked, .tier = tier});
        })
        ->Arg(256)
        ->Arg(512)
        ->Arg(1024);
  }
}

}  // namespace

BENCHMARK(BM_GemmNaive)->Arg(64)->Arg(128)->Arg(256);
BENCHMARK(BM_GemmBlocked)->Arg(64)->Arg(128)->Arg(256)->Arg(512);
BENCHMARK(BM_GemmThreaded)->Arg(256)->Arg(512)->Arg(1024);
BENCHMARK(BM_GemmPacked)->Arg(256)->Arg(512)->Arg(1024);
BENCHMARK(BM_GemmReference)->Arg(256)->Arg(512)->Arg(1024);
BENCHMARK(BM_ReferenceCheck)->Arg(1024)->Arg(2048)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
// UseRealTime: the measuring thread only spawns/joins the callers, so CPU
// time would be ~0 and the derived GFLOPs meaningless.
BENCHMARK(BM_GemmThreadedConcurrent3)->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_GemmPackedConcurrent3)->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

int main(int argc, char** argv) {
  // Translate `--json FILE` into the library's out/out_format flags so the
  // CI regression gate gets machine-readable GFLOPs (items_per_second),
  // and `--repeats R` into --benchmark_repetitions (median-of-R rows that
  // compare_bench.py prefers over single runs).
  std::vector<std::string> args(argv, argv + argc);
  std::vector<std::string> rewritten;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    std::string file;
    if (arg.rfind("--json=", 0) == 0) {
      file = arg.substr(std::strlen("--json="));
    } else if (arg == "--json" && i + 1 < args.size()) {
      file = args[++i];
    } else if (arg.rfind("--repeats=", 0) == 0) {
      rewritten.push_back("--benchmark_repetitions=" +
                          arg.substr(std::strlen("--repeats=")));
      continue;
    } else if (arg == "--repeats" && i + 1 < args.size()) {
      rewritten.push_back("--benchmark_repetitions=" + args[++i]);
      continue;
    } else {
      rewritten.push_back(arg);
      continue;
    }
    rewritten.push_back("--benchmark_out=" + file);
    rewritten.push_back("--benchmark_out_format=json");
  }
  register_tier_benchmarks();
  std::vector<char*> cargs;
  for (std::string& s : rewritten) cargs.push_back(s.data());
  int cargc = static_cast<int>(cargs.size());
  benchmark::Initialize(&cargc, cargs.data());
  if (benchmark::ReportUnrecognizedArguments(cargc, cargs.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
