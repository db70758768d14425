#include "src/core/runner.hpp"

#include "src/partition/nrrp.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace summagen::core {
namespace {

ExperimentConfig base_config() {
  ExperimentConfig config;
  config.platform = device::Platform::hclserver1();
  config.n = 1024;
  config.shape = partition::Shape::kSquareCorner;
  config.regime = Regime::kConstant;
  config.cpm_speeds = {1.0, 2.0, 0.9};
  return config;
}

TEST(Runner, ComputeAreasCpmSumsToTotal) {
  const auto areas = compute_areas(base_config());
  EXPECT_EQ(std::accumulate(areas.begin(), areas.end(), std::int64_t{0}),
            1024LL * 1024);
  // GPU (speed 2.0) gets the biggest share.
  EXPECT_GT(areas[1], areas[0]);
  EXPECT_GT(areas[0], areas[2]);
}

TEST(Runner, ComputeAreasDerivesSpeedsWhenEmpty) {
  auto config = base_config();
  config.cpm_speeds.clear();
  const auto areas = compute_areas(config);
  EXPECT_EQ(std::accumulate(areas.begin(), areas.end(), std::int64_t{0}),
            1024LL * 1024);
  EXPECT_GT(areas[1], areas[0]);
}

TEST(Runner, ComputeAreasFpmRegime) {
  auto config = base_config();
  config.regime = Regime::kFunctional;
  config.cpm_speeds.clear();
  const auto areas = compute_areas(config);
  EXPECT_EQ(std::accumulate(areas.begin(), areas.end(), std::int64_t{0}),
            1024LL * 1024);
}

TEST(Runner, PresetAreasBypassPartitioning) {
  auto config = base_config();
  config.n = 64;
  config.preset_areas = {1000, 2000, 64 * 64 - 3000};
  const auto res = run_pmm(config);
  EXPECT_EQ(res.areas, config.preset_areas);
}

TEST(Runner, PresetAreasSizeMismatchThrows) {
  auto config = base_config();
  config.preset_areas = {10, 20};
  EXPECT_THROW(run_pmm(config), std::invalid_argument);
}

TEST(Runner, SpeedCountMismatchThrows) {
  auto config = base_config();
  config.cpm_speeds = {1.0, 2.0};
  EXPECT_THROW(run_pmm(config), std::invalid_argument);
}

TEST(Runner, NumericPlaneRefusedAtPaperScale) {
  auto config = base_config();
  config.n = 25600;
  config.numeric = true;
  EXPECT_THROW(run_pmm(config), std::invalid_argument);
}

TEST(Runner, ModeledRunProducesConsistentMetrics) {
  const auto res = run_pmm(base_config());
  EXPECT_GT(res.exec_time_s, 0.0);
  EXPECT_GT(res.comp_time_s, 0.0);
  EXPECT_GE(res.comm_time_s, 0.0);
  EXPECT_GT(res.tflops, 0.0);
  ASSERT_EQ(res.rank_exec_s.size(), 3u);
  // Parallel time is the max of rank completion times.
  const double max_rank =
      *std::max_element(res.rank_exec_s.begin(), res.rank_exec_s.end());
  EXPECT_DOUBLE_EQ(res.exec_time_s, max_rank);
  // Every rank's buckets sum to its completion time.
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_NEAR(res.rank_comp_s[r] + res.rank_comm_s[r] + res.rank_idle_s[r],
                res.rank_exec_s[r], 1e-9);
  }
  // Reports account for every element of C: total flops == 2 n^3.
  std::int64_t flops = 0;
  for (const auto& rep : res.reports) flops += rep.flops;
  EXPECT_EQ(flops, 2 * 1024LL * 1024 * 1024);
}

TEST(Runner, ModeledRunIsDeterministic) {
  const auto r1 = run_pmm(base_config());
  const auto r2 = run_pmm(base_config());
  EXPECT_DOUBLE_EQ(r1.exec_time_s, r2.exec_time_s);
  EXPECT_DOUBLE_EQ(r1.comp_time_s, r2.comp_time_s);
  EXPECT_DOUBLE_EQ(r1.comm_time_s, r2.comm_time_s);
  EXPECT_EQ(r1.areas, r2.areas);
}

TEST(Runner, EventsAndEnergyOnlyWhenRequested) {
  auto config = base_config();
  const auto quiet = run_pmm(config);
  EXPECT_FALSE(quiet.has_energy);
  EXPECT_TRUE(quiet.events.empty());

  config.record_events = true;
  const auto traced = run_pmm(config);
  EXPECT_TRUE(traced.has_energy);
  EXPECT_FALSE(traced.events.empty());
  EXPECT_GT(traced.energy.dynamic_j, 0.0);
  EXPECT_NEAR(traced.energy.static_j,
              230.0 * traced.exec_time_s, 1e-6);
}

TEST(Runner, EnergyConsistentWithEventIntegration) {
  auto config = base_config();
  config.record_events = true;
  const auto res = run_pmm(config);
  const auto recomputed = energy::dynamic_energy_exact(
      res.events, config.platform, res.exec_time_s);
  EXPECT_DOUBLE_EQ(recomputed.dynamic_j, res.energy.dynamic_j);
}

TEST(Runner, NumericMatchesModeledTimes) {
  // The virtual-time metrics must not depend on the data plane.
  auto config = base_config();
  config.n = 128;
  const auto modeled = run_pmm(config);
  config.numeric = true;
  const auto numeric = run_pmm(config);
  EXPECT_TRUE(numeric.verified);
  EXPECT_DOUBLE_EQ(modeled.exec_time_s, numeric.exec_time_s);
  EXPECT_DOUBLE_EQ(modeled.comm_time_s, numeric.comm_time_s);
}

TEST(Runner, FastMmNumericRunVerifies) {
  // The fast-MM kernel is norm-bound accurate, not bit-identical; the
  // runner widens its elementwise tolerance by the reachable depth.
  auto config = base_config();
  config.n = 256;
  config.numeric = true;
  config.kernel.fastmm = blas::FastMmKind::kStrassen;
  config.kernel.fastmm_crossover = 32;
  const auto res = run_pmm(config);
  EXPECT_TRUE(res.verified);
  EXPECT_GT(res.alloc.fastmm_leases, 0);
}

TEST(Runner, FastMmRefusedWithFaults) {
  // Fault recovery re-executes cells under different sub-shapes, whose
  // verification demands bit-determinism — fast-MM cannot provide it.
  auto config = base_config();
  config.kernel.fastmm = blas::FastMmKind::kAuto;
  config.faults.events.push_back({sgmpi::FaultKind::kCrash, /*rank=*/1, 0.5});
  EXPECT_THROW(run_pmm(config), std::invalid_argument);
}

TEST(Runner, FastMmRefusedWithRepartition) {
  auto config = base_config();
  config.kernel.fastmm = blas::FastMmKind::kStrassen;
  config.repartition.enabled = true;
  EXPECT_THROW(run_pmm(config), std::invalid_argument);
}

TEST(Runner, GranularityForwarded) {
  auto config = base_config();
  config.n = 256;
  config.granularity = 32;
  const auto res = run_pmm(config);
  for (auto h : res.spec.subph) EXPECT_EQ(h % 32, 0);
  for (auto w : res.spec.subpw) EXPECT_EQ(w % 32, 0);
}

TEST(Runner, TwoProcessorPlatformWorks) {
  ExperimentConfig config;
  config.platform = device::Platform::synthetic({1.0, 3.0});
  config.n = 128;
  config.shape = partition::Shape::kSquareCorner;
  config.cpm_speeds = {1.0, 3.0};
  config.numeric = true;
  const auto res = run_pmm(config);
  EXPECT_TRUE(res.verified);
}

TEST(Runner, SingleProcessorDegenerateCase) {
  ExperimentConfig config;
  config.platform = device::Platform::homogeneous(1);
  config.n = 64;
  config.shape = partition::Shape::kOneDimensional;
  config.cpm_speeds = {1.0};
  config.numeric = true;
  const auto res = run_pmm(config);
  EXPECT_TRUE(res.verified);
  EXPECT_EQ(res.comm_time_s, 0.0);  // nothing to communicate
}

TEST(Runner, RejectsBadConfigs) {
  auto config = base_config();
  config.n = 0;
  EXPECT_THROW(run_pmm(config), std::invalid_argument);
}

TEST(Runner, NoiseProducesRunToRunVariance) {
  auto config = base_config();
  config.noise_sigma = 0.05;
  config.noise_seed = 1;
  const auto r1 = run_pmm(config);
  config.noise_seed = 2;
  const auto r2 = run_pmm(config);
  EXPECT_NE(r1.exec_time_s, r2.exec_time_s);
  // Same seed replays identically.
  config.noise_seed = 1;
  const auto r3 = run_pmm(config);
  EXPECT_DOUBLE_EQ(r1.exec_time_s, r3.exec_time_s);
  // Noise is bounded-ish: a 5% sigma should not move times by 3x.
  EXPECT_NEAR(r2.exec_time_s / r1.exec_time_s, 1.0, 0.5);
}

TEST(Runner, NoiseDoesNotBreakNumericVerification) {
  auto config = base_config();
  config.n = 96;
  config.numeric = true;
  config.noise_sigma = 0.1;
  const auto res = run_pmm(config);
  EXPECT_TRUE(res.verified);  // noise affects time, never values
}

TEST(Runner, LRectangleExtensionRunsEndToEnd) {
  auto config = base_config();
  config.n = 128;
  config.shape = partition::Shape::kLRectangle;
  config.numeric = true;
  const auto res = run_pmm(config);
  EXPECT_TRUE(res.verified) << res.max_abs_error;
}

TEST(Runner, PresetSpecBypassesShapeConstruction) {
  // Drive run_pmm with an NRRP layout over a 2-node cluster — the
  // future-work pipeline end to end, numerically verified.
  const std::int64_t n = 120;
  const auto platform = device::Platform::cluster(
      device::Platform::synthetic({1.0, 2.0, 0.9}), 2);
  std::vector<double> speeds = {1.0, 2.0, 0.9, 1.0, 2.0, 0.9};
  const auto areas = partition::partition_areas_cpm(n * n, speeds);

  core::ExperimentConfig config;
  config.platform = platform;
  config.n = n;
  config.preset_spec = partition::nrrp_partition(n, areas);
  config.numeric = true;
  const auto res = run_pmm(config);
  EXPECT_TRUE(res.verified) << res.max_abs_error;
  ASSERT_EQ(res.areas.size(), 6u);
  std::int64_t sum = 0;
  for (auto a : res.areas) sum += a;
  EXPECT_EQ(sum, n * n);
}

TEST(Runner, PresetSpecSizeMismatchThrows) {
  auto config = base_config();
  config.preset_spec = partition::build_shape(
      partition::Shape::kOneDimensional, 64,
      partition::partition_areas_cpm(64 * 64, {1.0, 2.0, 0.9}));
  config.n = 128;  // != spec.n
  EXPECT_THROW(run_pmm(config), std::invalid_argument);
}

TEST(Runner, ClusterTopologyRaisesCommTime) {
  // The same layout costs more MPI time when the ranks straddle a slow
  // network than when they share a node.
  const std::int64_t n = 2048;
  const auto single = device::Platform::synthetic({1.0, 1.0, 1.0});
  auto spread = single;
  spread.node_of = {0, 1, 2};
  spread.internode_link = trace::HockneyParams{1.0e-4, 1.0 / 0.5e9};

  core::ExperimentConfig config;
  config.n = n;
  config.shape = partition::Shape::kOneDimensional;
  config.cpm_speeds = {1.0, 1.0, 1.0};
  config.platform = single;
  const auto fast = run_pmm(config);
  config.platform = spread;
  const auto slow = run_pmm(config);
  EXPECT_GT(slow.comm_time_s, 2.0 * fast.comm_time_s);
  EXPECT_DOUBLE_EQ(slow.comp_time_s, fast.comp_time_s);
}

// One run owns the process-wide pool and caches at a time: a run_pmm call
// that starts while another is in flight must be refused up front, never
// reconfigure the pool under the running job. A "long" caller retries one
// large numeric run until it gets the runtime; a "short" caller meanwhile
// runs a small one back to back, so its calls land inside the long run and
// must be refused. Every call either reproduces its solo result exactly or
// throws std::logic_error.
TEST(Runner, OverlappingCallsThrowOrMatchSoloRuns) {
  ExperimentConfig long_config = base_config();
  long_config.n = 384;
  long_config.numeric = true;
  ExperimentConfig short_config = long_config;
  short_config.n = 96;
  short_config.shape = partition::Shape::kBlockRectangle;
  short_config.summagen_options.scheduler = Scheduler::kTaskGraph;
  short_config.summagen_options.bcast_panel_rows = 16;
  const ExperimentResult long_solo = run_pmm(long_config);
  const ExperimentResult short_solo = run_pmm(short_config);
  ASSERT_TRUE(long_solo.verified);
  ASSERT_TRUE(short_solo.verified);

  const auto matches = [](const ExperimentResult& res,
                          const ExperimentResult& solo) {
    return res.verified && res.exec_time_s == solo.exec_time_s;
  };
  std::atomic<bool> long_done{false};
  bool long_ok = false;
  int short_refused = 0, short_wrong = 0;
  std::thread long_caller([&] {
    for (;;) {
      try {
        const ExperimentResult res = run_pmm(long_config);
        long_ok = matches(res, long_solo);
        break;
      } catch (const std::logic_error&) {
        std::this_thread::yield();  // the short caller holds the runtime
      } catch (const std::exception&) {
        break;  // any other failure leaves long_ok false
      }
    }
    long_done.store(true);
  });
  std::thread short_caller([&] {
    while (!long_done.load()) {
      try {
        if (!matches(run_pmm(short_config), short_solo)) ++short_wrong;
        // Leave the runtime free for a moment so the long caller gets in.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      } catch (const std::logic_error&) {
        ++short_refused;
      } catch (const std::exception&) {
        ++short_wrong;
      }
    }
  });
  long_caller.join();
  short_caller.join();

  EXPECT_TRUE(long_ok);
  EXPECT_EQ(short_wrong, 0);
  EXPECT_GE(short_refused, 1) << "no call overlapped the long run";
  // The guard is released on every exit, a throwing run included: a later
  // solo call still runs.
  ExperimentConfig bad = short_config;
  bad.preset_areas = {10, 20};  // rejected by the plan phase, mid-run
  EXPECT_THROW(run_pmm(bad), std::invalid_argument);
  EXPECT_TRUE(run_pmm(short_config).verified);
}

TEST(DefaultFpmModels, OnePerDeviceCoveringN) {
  const auto platform = device::Platform::hclserver1();
  const auto models = default_fpm_models(platform, 4096);
  ASSERT_EQ(models.size(), 3u);
  for (const auto& m : models) {
    EXPECT_GE(m.points().back().edge, 4096.0);
    EXPECT_FALSE(m.is_constant());
  }
}

TEST(DefaultCpmSpeeds, NormalisedToFirstDevice) {
  const auto speeds =
      default_cpm_speeds(device::Platform::hclserver1());
  ASSERT_EQ(speeds.size(), 3u);
  EXPECT_DOUBLE_EQ(speeds[0], 1.0);
}

}  // namespace
}  // namespace summagen::core
