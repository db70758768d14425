// Ablation: Strassen-family fast MM vs the classical packed kernel.
//
// For each N the bench times the packed classical DGEMM and the fast-MM
// kinds (strassen / s223 / auto, src/blas/fastmm.hpp) on the same random
// operands — in interleaved rounds, one call of every kind per round, each
// kind's median over --repeats rounds — reporting effective GFLOP/s
// (always normalised to classical 2N^3 flops so the numbers compare
// directly) and the norm-wise error of each fast result against the
// classical one as a fraction of its budget (err_over_bound must stay
// <= 1).
//
// Unlike the virtual-time ablations this bench measures real wall time, so
// absolute seconds vary per machine; the committed baseline
// (bench/BENCH_fastmm.json) is gated in CI on the machine-relative
// speedup_vs_classical counter rather than raw time.
//
// Acceptance bars (ISSUE 10):
//  * best fast kind >= --min-speedup (default 1.10) x classical GFLOP/s at
//    the largest N;
//  * auto >= --auto-tolerance (default 1.0) x classical at EVERY N — auto
//    must never lose to classical, it can only decline to split;
//  * every fast result within its fastmm_error_budget norm bound.
//
// Flags: --sizes 512,1024,2048  --repeats 5  --crossover 0 (0 = tuned/auto)
//        --max-depth 3  --min-speedup 1.10  --auto-tolerance 1.0
//        --csv  --json FILE (Google-Benchmark JSON for
//        tools/compare_bench.py, see bench/BENCH_fastmm.json)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench/bench_json.hpp"
#include "src/blas/fastmm.hpp"
#include "src/blas/gemm.hpp"
#include "src/util/cli.hpp"
#include "src/util/matrix.hpp"
#include "src/util/rng.hpp"
#include "src/util/table.hpp"

namespace {

using summagen::benchjson::JsonEntry;
using summagen::util::Matrix;

double frobenius(const Matrix& x) {
  double s = 0.0;
  const double* p = x.data();
  const std::int64_t total = x.rows() * x.cols();
  for (std::int64_t i = 0; i < total; ++i) s += p[i] * p[i];
  return std::sqrt(s);
}

double frobenius_diff(const Matrix& x, const Matrix& y) {
  double s = 0.0;
  const double* px = x.data();
  const double* py = y.data();
  const std::int64_t total = x.rows() * x.cols();
  for (std::int64_t i = 0; i < total; ++i) {
    const double d = px[i] - py[i];
    s += d * d;
  }
  return std::sqrt(s);
}

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

// Wall seconds of one multiplication into `c`.
double time_dgemm(std::int64_t n, const Matrix& a, const Matrix& b, Matrix* c,
                  const summagen::blas::GemmOptions& opts) {
  const auto t0 = std::chrono::steady_clock::now();
  summagen::blas::dgemm(n, n, n, 1.0, a.data(), n, b.data(), n, 0.0,
                        c->data(), n, opts);
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  return dt.count();
}

const char* bench_tag(summagen::blas::FastMmKind kind) {
  switch (kind) {
    case summagen::blas::FastMmKind::kClassical: return "BM_FastMMClassical";
    case summagen::blas::FastMmKind::kStrassen: return "BM_FastMMStrassen";
    case summagen::blas::FastMmKind::kS223: return "BM_FastMMS223";
    case summagen::blas::FastMmKind::kAuto: return "BM_FastMMAuto";
  }
  return "BM_FastMM";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace summagen;
  const util::Cli cli(argc, argv);
  const std::vector<std::int64_t> sizes =
      cli.get_int_list("sizes", {512, 1024, 2048});
  const int repeats = static_cast<int>(cli.get_int_min("repeats", 5, 1));
  const std::int64_t crossover = cli.get_int("crossover", 0);
  const int max_depth = static_cast<int>(cli.get_int("max-depth", 3));
  const double min_speedup = cli.get_double("min-speedup", 1.10);
  const double auto_tolerance = cli.get_double("auto-tolerance", 1.0);
  const bool csv = cli.get_bool("csv", false);

  const blas::FastMmKind kinds[] = {blas::FastMmKind::kStrassen,
                                    blas::FastMmKind::kS223,
                                    blas::FastMmKind::kAuto};

  util::Table t("Fast-MM ablation (classical-normalised GFLOP/s, tier " +
                std::string(blas::simd_tier_name(blas::best_simd_tier())) +
                ")");
  t.set_header({"N", "kind", "seconds", "gflops", "speedup", "err/bound"});

  std::vector<JsonEntry> json_rows;
  bool bound_ok = true;
  bool auto_ok = true;
  double top_speedup = 0.0;
  std::int64_t top_n = 0;

  for (const std::int64_t n : sizes) {
    Matrix a(n, n), b(n, n), c(n, n);
    util::fill_random(a, 1);
    util::fill_random(b, 2);
    const double norm_product = frobenius(a) * frobenius(b);
    const double flops = static_cast<double>(blas::gemm_flops(n, n, n));

    // Classical first, then every fast kind. The untimed warm-up call of
    // each primes the pool size classes and pack paths, and its product
    // gives the error check (classical = the reference).
    std::vector<blas::GemmOptions> variants(1);
    for (const blas::FastMmKind kind : kinds) {
      blas::GemmOptions fast;
      fast.fastmm = kind;
      fast.fastmm_crossover = crossover;
      fast.fastmm_max_depth = max_depth;
      variants.push_back(fast);
    }
    time_dgemm(n, a, b, &c, variants[0]);
    const Matrix reference = c;  // classical product, beta = 0
    std::vector<double> err_over_bound(variants.size(), 0.0);
    std::vector<int> depth(variants.size(), 0);
    for (std::size_t v = 1; v < variants.size(); ++v) {
      time_dgemm(n, a, b, &c, variants[v]);
      depth[v] = blas::fastmm_max_reachable_depth(n, n, n, variants[v]);
      const double bound = blas::fastmm_error_budget(n, depth[v]) *
                           std::numeric_limits<double>::epsilon() *
                           norm_product;
      err_over_bound[v] =
          depth[v] == 0 ? 0.0 : frobenius_diff(c, reference) / bound;
    }

    // Timed in interleaved rounds — each round times every variant once —
    // so background load drifting during the run hits all of them alike
    // instead of whichever happened to be timed last. Median per variant.
    std::vector<std::vector<double>> secs(variants.size());
    for (int r = 0; r < repeats; ++r) {
      for (std::size_t v = 0; v < variants.size(); ++v) {
        secs[v].push_back(time_dgemm(n, a, b, &c, variants[v]));
      }
    }

    const double classical_s = median_of(secs[0]);
    const double classical_gflops = flops / classical_s / 1e9;
    t.add_row({util::Table::num(n), "classical",
               util::Table::num(classical_s), util::Table::num(classical_gflops),
               "1.0000", "-"});
    json_rows.push_back({std::string(bench_tag(variants[0].fastmm)) + "/" +
                             std::to_string(n),
                         classical_s,
                         {{"gflops", classical_gflops},
                          {"speedup_vs_classical", 1.0}}});

    for (std::size_t v = 1; v < variants.size(); ++v) {
      const blas::FastMmKind kind = variants[v].fastmm;
      const double fast_s = median_of(secs[v]);
      const double fast_gflops = flops / fast_s / 1e9;
      const double speedup = classical_s / fast_s;
      if (err_over_bound[v] > 1.0) bound_ok = false;
      // depth 0 means auto declined to split: the code path IS classical,
      // so any measured difference is timer noise, not a loss.
      if (kind == blas::FastMmKind::kAuto && depth[v] > 0 &&
          speedup < auto_tolerance - 1e-9) {
        auto_ok = false;
      }
      if (n == sizes.back() && speedup > top_speedup) {
        top_speedup = speedup;
        top_n = n;
      }

      t.add_row({util::Table::num(n), blas::fastmm_kind_name(kind),
                 util::Table::num(fast_s), util::Table::num(fast_gflops),
                 util::Table::num(speedup),
                 depth[v] == 0 ? "=classical"
                               : util::Table::num(err_over_bound[v])});
      json_rows.push_back({std::string(bench_tag(kind)) + "/" +
                               std::to_string(n),
                           fast_s,
                           {{"gflops", fast_gflops},
                            {"speedup_vs_classical", speedup},
                            {"err_over_bound", err_over_bound[v]},
                            {"depth", static_cast<double>(depth[v])}}});
    }
  }

  if (csv) {
    t.print_csv(std::cout);
  } else {
    t.print(std::cout);
  }

  if (cli.has("json")) {
    benchjson::write_json(cli.get("json", ""), "ablation_fastmm", json_rows);
  }

  bool ok = true;
  if (!bound_ok) {
    std::cout << "FAIL: a fast result exceeded its norm-wise error budget\n";
    ok = false;
  }
  if (!auto_ok) {
    std::cout << "FAIL: --fastmm auto fell below " << auto_tolerance
              << "x classical at some N (auto must never lose)\n";
    ok = false;
  }
  if (top_speedup < min_speedup) {
    std::cout << "FAIL: best fast kind reached only " << top_speedup
              << "x classical at N=" << top_n << " (need >= " << min_speedup
              << ")\n";
    ok = false;
  }
  if (ok) {
    std::cout << "OK: best fast speedup " << util::Table::num(top_speedup)
              << "x at N=" << top_n << ", all error bounds held\n";
  }
  return ok ? 0 : 1;
}
