// Resume-order equivalence (DESIGN.md §5.14): every rank is a cooperative
// fiber, and results must not depend on the order the fibers are resumed
// in. Each case runs the production ascending sweep against several seeded
// shuffled sweeps (sgmpi::detail::ScopedResumeOrder); the suite names keep
// "engine" from when the reference was a thread-per-rank engine. Across
// the four paper shapes and both schedulers, the numeric C must be
// bit-identical and the full virtual timeline (execution, computation,
// communication, hidden overlap, per rank) must match EXACTLY — a resume
// order is a different interleaving of the same schedule, never a
// different schedule.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/core/runner.hpp"
#include "src/mpi/engine.hpp"
#include "src/partition/nrrp.hpp"
#include "src/util/rng.hpp"

namespace summagen {
namespace {

using core::ExperimentConfig;
using core::ExperimentResult;
using core::Scheduler;
using partition::Shape;

constexpr Scheduler kSchedulers[] = {Scheduler::kEager, Scheduler::kTaskGraph};

/// Non-zero resume-order seeds every case runs against the ascending sweep.
constexpr std::uint64_t kResumeSeeds[] = {1, 2, 3};

bool same_bits(const util::Matrix& x, const util::Matrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(),
                     static_cast<std::size_t>(x.size()) * sizeof(double)) ==
             0;
}

/// Gathers the full distributed C of one numeric execution with the rank
/// fibers resumed in the order `seed` selects (0 = ascending).
util::Matrix distributed_c(Shape shape, Scheduler scheduler,
                           std::uint64_t seed) {
  const sgmpi::detail::ScopedResumeOrder order(seed);
  const std::int64_t n = 120;
  const auto areas = partition::partition_areas_cpm(n * n, {1.0, 2.0, 0.9});
  const auto spec = partition::build_shape(shape, n, areas);

  util::Matrix a(n, n), b(n, n);
  util::fill_random(a, 1);
  util::fill_random(b, 2);
  std::vector<std::unique_ptr<core::LocalData>> locals;
  for (int r = 0; r < 3; ++r) {
    locals.push_back(std::make_unique<core::LocalData>(spec, r, a, b));
  }
  const auto platform = device::Platform::hclserver1();
  const auto processors = platform.processors(blas::GemmOptions{});

  core::SummaGenOptions options;
  options.scheduler = scheduler;
  options.overlap_depth = 2;
  options.bcast_panel_rows = 16;

  sgmpi::Config mpi_config;
  mpi_config.nranks = 3;
  sgmpi::Runtime runtime(mpi_config);
  runtime.run([&](sgmpi::Comm& world) {
    const std::size_t r = static_cast<std::size_t>(world.rank());
    core::summagen_rank(world, spec, processors[r], locals[r].get(),
                        /*contended=*/true, options);
  });

  util::Matrix c(n, n);
  for (int r = 0; r < 3; ++r) {
    locals[static_cast<std::size_t>(r)]->gather_c(spec, c);
  }
  return c;
}

ExperimentConfig model_config(Shape shape, Scheduler scheduler) {
  ExperimentConfig config;
  config.platform = device::Platform::hclserver1();
  config.n = 2048;
  config.shape = shape;
  config.cpm_speeds = {1.0, 2.0, 0.9};
  config.summagen_options.scheduler = scheduler;
  config.summagen_options.overlap_depth = 2;
  config.summagen_options.bcast_panel_rows = 64;
  return config;
}

ExperimentResult run_pmm_in_order(const ExperimentConfig& config,
                                  std::uint64_t seed) {
  const sgmpi::detail::ScopedResumeOrder order(seed);
  return core::run_pmm(config);
}

class EngineEquivalenceMatrix : public ::testing::TestWithParam<Shape> {};

TEST_P(EngineEquivalenceMatrix, NumericCBitIdenticalAcrossEngines) {
  const Shape shape = GetParam();
  for (const Scheduler sched : kSchedulers) {
    const util::Matrix ascending = distributed_c(shape, sched, 0);
    for (const std::uint64_t seed : kResumeSeeds) {
      const util::Matrix shuffled = distributed_c(shape, sched, seed);
      EXPECT_TRUE(same_bits(ascending, shuffled))
          << partition::shape_name(shape) << " " << core::to_string(sched)
          << " seed " << seed;
    }
  }
}

TEST_P(EngineEquivalenceMatrix, VirtualTimelineBitIdenticalAcrossEngines) {
  const Shape shape = GetParam();
  for (const Scheduler sched : kSchedulers) {
    const ExperimentConfig config = model_config(shape, sched);
    const ExperimentResult ascending = run_pmm_in_order(config, 0);
    for (const std::uint64_t seed : kResumeSeeds) {
      const std::string label = std::string(partition::shape_name(shape)) +
                                " " + core::to_string(sched) + " seed " +
                                std::to_string(seed);
      const ExperimentResult shuffled = run_pmm_in_order(config, seed);

      // Exact doubles: every order replays the same virtual-clock
      // arithmetic.
      EXPECT_EQ(ascending.exec_time_s, shuffled.exec_time_s) << label;
      EXPECT_EQ(ascending.comp_time_s, shuffled.comp_time_s) << label;
      EXPECT_EQ(ascending.comm_time_s, shuffled.comm_time_s) << label;
      EXPECT_EQ(ascending.hidden_comm_time_s, shuffled.hidden_comm_time_s)
          << label;
      ASSERT_EQ(ascending.rank_exec_s.size(), shuffled.rank_exec_s.size())
          << label;
      for (std::size_t r = 0; r < ascending.rank_exec_s.size(); ++r) {
        EXPECT_EQ(ascending.rank_exec_s[r], shuffled.rank_exec_s[r])
            << label << " rank " << r;
        EXPECT_EQ(ascending.rank_comp_s[r], shuffled.rank_comp_s[r])
            << label << " rank " << r;
        EXPECT_EQ(ascending.rank_comm_s[r], shuffled.rank_comm_s[r])
            << label << " rank " << r;
        EXPECT_EQ(ascending.rank_idle_s[r], shuffled.rank_idle_s[r])
            << label << " rank " << r;
        EXPECT_EQ(ascending.rank_hidden_s[r], shuffled.rank_hidden_s[r])
            << label << " rank " << r;
      }
      ASSERT_EQ(ascending.reports.size(), shuffled.reports.size()) << label;
      for (std::size_t r = 0; r < ascending.reports.size(); ++r) {
        EXPECT_EQ(ascending.reports[r].bcasts, shuffled.reports[r].bcasts)
            << label << " rank " << r;
        EXPECT_EQ(ascending.reports[r].bcast_bytes,
                  shuffled.reports[r].bcast_bytes)
            << label << " rank " << r;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EngineEquivalenceMatrix,
    ::testing::Values(Shape::kSquareCorner, Shape::kSquareRectangle,
                      Shape::kBlockRectangle, Shape::kOneDimensional),
    [](const auto& param_info) {
      return std::string(partition::shape_name(param_info.param));
    });

/// A 16-rank, 4-node cluster run through the full runner pipeline, with
/// the rank fibers resumed in the order `seed` selects (0 = ascending).
ExperimentResult cluster_run(std::uint64_t seed, Scheduler scheduler,
                             const sgmpi::FaultPlan& faults) {
  const std::int64_t n = 1024;
  const auto base = device::Platform::homogeneous(4);
  const trace::HockneyParams net{20.0e-6, 1.0 / 1.0e9};
  ExperimentConfig config;
  config.platform = device::Platform::cluster(base, 4, net);
  config.n = n;
  const std::vector<double> speeds(16, 1.0);
  const auto areas = partition::partition_areas_cpm(n * n, speeds);
  config.preset_spec = partition::nrrp_partition(n, areas);
  config.summagen_options.scheduler = scheduler;
  config.faults = faults;
  return run_pmm_in_order(config, seed);
}

/// Every resume order must reproduce the ascending timeline on a
/// multi-node platform (subgroup communicators, inter-node pricing) too.
/// Under a crash, the communication a rank accrues before it observes the
/// failure may depend on the interleaving, so the comm totals are compared
/// on fault-free runs only; makespans, compute and the recovery record
/// are order-invariant either way.
void expect_cluster_orders_identical(Scheduler scheduler,
                                     const sgmpi::FaultPlan& faults) {
  const ExperimentResult ascending = cluster_run(0, scheduler, faults);
  for (const std::uint64_t seed : kResumeSeeds) {
    const std::string label =
        std::string(core::to_string(scheduler)) + " seed " +
        std::to_string(seed);
    const ExperimentResult shuffled = cluster_run(seed, scheduler, faults);
    EXPECT_EQ(ascending.exec_time_s, shuffled.exec_time_s) << label;
    EXPECT_EQ(ascending.comp_time_s, shuffled.comp_time_s) << label;
    if (faults.empty()) {
      EXPECT_EQ(ascending.comm_time_s, shuffled.comm_time_s) << label;
      EXPECT_EQ(ascending.hidden_comm_time_s, shuffled.hidden_comm_time_s)
          << label;
    }
    ASSERT_EQ(ascending.rank_exec_s.size(), shuffled.rank_exec_s.size())
        << label;
    for (std::size_t r = 0; r < ascending.rank_exec_s.size(); ++r) {
      EXPECT_EQ(ascending.rank_exec_s[r], shuffled.rank_exec_s[r])
          << label << " rank " << r;
    }
    EXPECT_EQ(ascending.recoveries, shuffled.recoveries) << label;
    EXPECT_EQ(ascending.redistributed_area, shuffled.redistributed_area)
        << label;
    EXPECT_EQ(ascending.detection_latency_s, shuffled.detection_latency_s)
        << label;
    EXPECT_EQ(ascending.recovery_vtime_s, shuffled.recovery_vtime_s)
        << label;
    ASSERT_EQ(ascending.fault_records.size(), shuffled.fault_records.size())
        << label;
    for (std::size_t i = 0; i < ascending.fault_records.size(); ++i) {
      const auto& a = ascending.fault_records[i];
      const auto& s = shuffled.fault_records[i];
      EXPECT_EQ(a.triggered, s.triggered) << label << " event " << i;
      EXPECT_EQ(a.handled, s.handled) << label << " event " << i;
      EXPECT_EQ(a.trigger_vtime, s.trigger_vtime) << label << " event " << i;
      EXPECT_EQ(a.first_detect_vtime, s.first_detect_vtime)
          << label << " event " << i;
      EXPECT_EQ(a.handled_vtime, s.handled_vtime) << label << " event " << i;
    }
  }
}

TEST(EngineEquivalenceCluster, MultiNodeTimelineBitIdentical) {
  expect_cluster_orders_identical(Scheduler::kEager, {});
}

TEST(EngineEquivalenceCluster, MultiNodeTaskGraphTimelineBitIdentical) {
  expect_cluster_orders_identical(Scheduler::kTaskGraph, {});
}

// A mid-run crash on the cluster: every survivor unwinds, meets in the
// shrink gate and re-executes the unfinished cells. Parked fibers must be
// woken by the fault trigger and the gate, never left behind, in any
// resume order.
TEST(EngineEquivalenceCluster, CrashShrinkRecoveryBitIdentical) {
  for (const Scheduler sched : kSchedulers) {
    const double t0 = cluster_run(0, sched, {}).exec_time_s;
    ASSERT_GT(t0, 0.0);
    sgmpi::FaultPlan faults;
    faults.events.push_back(
        {sgmpi::FaultKind::kCrash, /*rank=*/5, /*at_vtime=*/0.4 * t0});
    EXPECT_GE(cluster_run(0, sched, faults).recoveries, 1)
        << core::to_string(sched);
    expect_cluster_orders_identical(sched, faults);
  }
}

}  // namespace
}  // namespace summagen
