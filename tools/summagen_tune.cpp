// summagen_tune — offline cache-blocking autotuner for the packed DGEMM.
//
// Sweeps the MC/NC/KC candidate grid for every requested (and available)
// SIMD tier, then merges the per-tier winners into the persisted tune
// cache (src/blas/tune.hpp documents the JSON format and lookup rules).
// dgemm's auto path picks the tuned blocking up on the next process start;
// tuning never runs implicitly.
//
//   --n N          problem size per timed multiply   (default 768)
//   --repeats R    timed multiplies per candidate, median taken (default 3)
//   --tiers LIST   comma list of scalar,sse2,avx2, or "all" (default all)
//   --fastmm-n N   also sweep the fast-MM crossover at this problem size
//                  and persist it per tier (0 = skip, the default; the
//                  sweep needs N >= 2x the smallest candidate to be
//                  meaningful, so prefer 1536+)
//   --out PATH     cache file to merge into (default: tune_cache_path())
//   --dry-run      sweep and report, but do not write the cache
#include <cstdint>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/blas/simd.hpp"
#include "src/blas/tune.hpp"
#include "src/util/cli.hpp"

namespace {

constexpr const char* kUsage =
    "usage: summagen_tune [--n N] [--repeats R] [--tiers scalar,sse2,avx2]\n"
    "                     [--fastmm-n N] [--out PATH] [--dry-run]\n";

std::vector<summagen::blas::SimdTier> parse_tiers(const std::string& spec) {
  using summagen::blas::SimdTier;
  if (spec == "all") {
    return {SimdTier::kScalar, SimdTier::kSse2, SimdTier::kAvx2};
  }
  std::vector<SimdTier> tiers;
  std::stringstream ss(spec);
  std::string token;
  while (std::getline(ss, token, ',')) {
    if (token.empty()) continue;
    try {
      const SimdTier tier = summagen::blas::parse_simd_tier(token);
      if (tier == SimdTier::kAuto) {
        throw std::invalid_argument("'auto' is not a tunable tier");
      }
      tiers.push_back(tier);
    } catch (const std::invalid_argument& e) {
      throw summagen::util::CliError(std::string("--tiers: ") + e.what());
    }
  }
  if (tiers.empty()) {
    throw summagen::util::CliError("--tiers: no tiers listed");
  }
  return tiers;
}

}  // namespace

int main(int argc, char** argv) {
  using summagen::blas::SimdTier;
  try {
    const summagen::util::Cli cli(argc, argv);
    const std::int64_t n = cli.get_int_min("n", 768, 64);
    const int repeats =
        static_cast<int>(cli.get_int_min("repeats", 3, 1));
    const std::vector<SimdTier> tiers =
        parse_tiers(cli.get("tiers", "all"));
    const std::int64_t fastmm_n = cli.get_int_min("fastmm-n", 0, 0);
    const std::string out =
        cli.get("out", summagen::blas::tune_cache_path());
    const bool dry_run = cli.get_bool("dry-run", false);
    cli.reject_unread();

    const std::string cpu = summagen::blas::cpu_model_key();
    std::cout << "cpu: " << cpu << "\n"
              << "sweeping n=" << n << " repeats=" << repeats << "\n";

    const std::vector<summagen::blas::TuneResult> results =
        summagen::blas::autotune_block_sizes(n, repeats, tiers);
    if (results.empty()) {
      std::cerr << "error: none of the requested tiers are available on "
                   "this host\n";
      return 1;
    }
    for (const auto& r : results) {
      std::cout << "  " << summagen::blas::simd_tier_name(r.tier)
                << ": mc=" << r.bs.mc << " nc=" << r.bs.nc
                << " kc=" << r.bs.kc << "  (" << r.gflops << " GFLOP/s)\n";
    }

    // Optional second sweep: the Strassen crossover (smallest sub-block edge
    // worth splitting, src/blas/fastmm.hpp) per tier, persisted next to the
    // blocking so dgemm --fastmm picks it up without flags.
    std::vector<std::int64_t> crossovers(results.size(), 0);
    if (fastmm_n > 0) {
      std::cout << "sweeping fast-MM crossover at n=" << fastmm_n << "\n";
      for (std::size_t i = 0; i < results.size(); ++i) {
        const summagen::blas::FastMmTuneResult f =
            summagen::blas::autotune_fastmm_crossover(fastmm_n, repeats,
                                                      results[i].tier);
        crossovers[i] = f.crossover;
        std::cout << "  " << summagen::blas::simd_tier_name(results[i].tier)
                  << ": crossover=" << f.crossover << "  (" << f.gflops
                  << " GFLOP/s)\n";
      }
    }

    if (dry_run) {
      std::cout << "dry run: cache not written\n";
      return 0;
    }
    if (out.empty()) {
      std::cerr << "error: no cache path ($HOME and $SUMMAGEN_TUNE_CACHE "
                   "both unset); pass --out\n";
      return 1;
    }
    // Merge-write: keep other CPUs' entries and this CPU's untuned tiers.
    summagen::blas::TuneFile file;
    summagen::blas::load_tune_file(out, &file);
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& r = results[i];
      summagen::blas::TuneRecord& rec =
          file[cpu][summagen::blas::simd_tier_name(r.tier)];
      const std::int64_t kept = rec.fastmm_crossover;  // survive a re-tune
      rec = {r.bs, r.gflops};
      rec.fastmm_crossover = fastmm_n > 0 ? crossovers[i] : kept;
    }
    if (!summagen::blas::save_tune_file(out, file)) {
      std::cerr << "error: cannot write " << out << "\n";
      return 1;
    }
    std::cout << "wrote " << out << "\n";
    return 0;
  } catch (const summagen::util::CliError& e) {
    std::cerr << "error: " << e.what() << "\n" << kUsage;
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
