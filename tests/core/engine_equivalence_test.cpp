// Engine equivalence (DESIGN.md §5.14): the modeled engine — every rank a
// cooperative fiber on one scheduler thread — must be indistinguishable
// from the thread engine in everything but host cost. Across the four
// paper shapes and both schedulers, the numeric C must be
// bit-identical and the full virtual timeline (execution, computation,
// communication, hidden overlap, per rank) must match EXACTLY — the
// modeled engine is a cheaper execution of the same schedule, never a
// different schedule.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/runner.hpp"
#include "src/partition/nrrp.hpp"
#include "src/util/rng.hpp"

namespace summagen {
namespace {

using core::ExperimentConfig;
using core::ExperimentResult;
using core::Scheduler;
using partition::Shape;

constexpr Scheduler kSchedulers[] = {Scheduler::kEager, Scheduler::kTaskGraph};

/// Gathers the full distributed C of one numeric execution under the
/// given engine.
util::Matrix distributed_c(Shape shape, Scheduler scheduler,
                           sgmpi::Engine engine) {
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
  mpi_config.engine = engine;
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

ExperimentConfig model_config(Shape shape, Scheduler scheduler,
                              sgmpi::Engine engine) {
  ExperimentConfig config;
  config.platform = device::Platform::hclserver1();
  config.n = 2048;
  config.shape = shape;
  config.cpm_speeds = {1.0, 2.0, 0.9};
  config.summagen_options.scheduler = scheduler;
  config.summagen_options.overlap_depth = 2;
  config.summagen_options.bcast_panel_rows = 64;
  config.engine = engine;
  return config;
}

class EngineEquivalenceMatrix : public ::testing::TestWithParam<Shape> {};

TEST_P(EngineEquivalenceMatrix, NumericCBitIdenticalAcrossEngines) {
  const Shape shape = GetParam();
  for (const Scheduler sched : kSchedulers) {
    const util::Matrix threaded =
        distributed_c(shape, sched, sgmpi::Engine::kThread);
    const util::Matrix modeled =
        distributed_c(shape, sched, sgmpi::Engine::kModeled);
    EXPECT_EQ(util::Matrix::max_abs_diff(threaded, modeled), 0.0)
        << partition::shape_name(shape) << " " << core::to_string(sched);
  }
}

TEST_P(EngineEquivalenceMatrix, VirtualTimelineBitIdenticalAcrossEngines) {
  const Shape shape = GetParam();
  for (const Scheduler sched : kSchedulers) {
    const std::string label = std::string(partition::shape_name(shape)) +
                              " " + core::to_string(sched);
    const ExperimentResult threaded =
        core::run_pmm(model_config(shape, sched, sgmpi::Engine::kThread));
    const ExperimentResult modeled =
        core::run_pmm(model_config(shape, sched, sgmpi::Engine::kModeled));

    // Exact doubles: the fibers replay the same virtual-clock arithmetic.
    EXPECT_EQ(threaded.exec_time_s, modeled.exec_time_s) << label;
    EXPECT_EQ(threaded.comp_time_s, modeled.comp_time_s) << label;
    EXPECT_EQ(threaded.comm_time_s, modeled.comm_time_s) << label;
    EXPECT_EQ(threaded.hidden_comm_time_s, modeled.hidden_comm_time_s)
        << label;
    ASSERT_EQ(threaded.rank_exec_s.size(), modeled.rank_exec_s.size())
        << label;
    for (std::size_t r = 0; r < threaded.rank_exec_s.size(); ++r) {
      EXPECT_EQ(threaded.rank_exec_s[r], modeled.rank_exec_s[r])
          << label << " rank " << r;
      EXPECT_EQ(threaded.rank_comp_s[r], modeled.rank_comp_s[r])
          << label << " rank " << r;
      EXPECT_EQ(threaded.rank_comm_s[r], modeled.rank_comm_s[r])
          << label << " rank " << r;
      EXPECT_EQ(threaded.rank_idle_s[r], modeled.rank_idle_s[r])
          << label << " rank " << r;
      EXPECT_EQ(threaded.rank_hidden_s[r], modeled.rank_hidden_s[r])
          << label << " rank " << r;
    }
    ASSERT_EQ(threaded.reports.size(), modeled.reports.size()) << label;
    for (std::size_t r = 0; r < threaded.reports.size(); ++r) {
      EXPECT_EQ(threaded.reports[r].bcasts, modeled.reports[r].bcasts)
          << label << " rank " << r;
      EXPECT_EQ(threaded.reports[r].bcast_bytes,
                modeled.reports[r].bcast_bytes)
          << label << " rank " << r;
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

/// A 16-rank, 4-node cluster run through the full runner pipeline.
ExperimentResult cluster_run(sgmpi::Engine engine, Scheduler scheduler,
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
  config.engine = engine;
  return core::run_pmm(config);
}

/// The modeled engine must reproduce the thread engine's timeline on a
/// multi-node platform (subgroup communicators, inter-node pricing) too.
/// Under a crash, the communication a thread-engine rank accrues before it
/// observes the failure depends on OS scheduling, so the comm totals are
/// compared on fault-free runs only; makespans, compute and the recovery
/// record are engine-invariant either way.
void expect_cluster_engines_identical(Scheduler scheduler,
                                      const sgmpi::FaultPlan& faults) {
  const std::string label = core::to_string(scheduler);
  const ExperimentResult threaded =
      cluster_run(sgmpi::Engine::kThread, scheduler, faults);
  const ExperimentResult modeled =
      cluster_run(sgmpi::Engine::kModeled, scheduler, faults);
  EXPECT_EQ(threaded.exec_time_s, modeled.exec_time_s) << label;
  EXPECT_EQ(threaded.comp_time_s, modeled.comp_time_s) << label;
  if (faults.empty()) {
    EXPECT_EQ(threaded.comm_time_s, modeled.comm_time_s) << label;
    EXPECT_EQ(threaded.hidden_comm_time_s, modeled.hidden_comm_time_s)
        << label;
  }
  ASSERT_EQ(threaded.rank_exec_s.size(), modeled.rank_exec_s.size())
      << label;
  for (std::size_t r = 0; r < threaded.rank_exec_s.size(); ++r) {
    EXPECT_EQ(threaded.rank_exec_s[r], modeled.rank_exec_s[r])
        << label << " rank " << r;
  }
  EXPECT_EQ(threaded.recoveries, modeled.recoveries) << label;
  EXPECT_EQ(threaded.redistributed_area, modeled.redistributed_area)
      << label;
  EXPECT_EQ(threaded.detection_latency_s, modeled.detection_latency_s)
      << label;
  EXPECT_EQ(threaded.recovery_vtime_s, modeled.recovery_vtime_s) << label;
  ASSERT_EQ(threaded.fault_records.size(), modeled.fault_records.size())
      << label;
  for (std::size_t i = 0; i < threaded.fault_records.size(); ++i) {
    const auto& t = threaded.fault_records[i];
    const auto& m = modeled.fault_records[i];
    EXPECT_EQ(t.triggered, m.triggered) << label << " event " << i;
    EXPECT_EQ(t.handled, m.handled) << label << " event " << i;
    EXPECT_EQ(t.trigger_vtime, m.trigger_vtime) << label << " event " << i;
    EXPECT_EQ(t.first_detect_vtime, m.first_detect_vtime)
        << label << " event " << i;
    EXPECT_EQ(t.handled_vtime, m.handled_vtime) << label << " event " << i;
  }
}

TEST(EngineEquivalenceCluster, MultiNodeTimelineBitIdentical) {
  expect_cluster_engines_identical(Scheduler::kEager, {});
}

TEST(EngineEquivalenceCluster, MultiNodeTaskGraphTimelineBitIdentical) {
  expect_cluster_engines_identical(Scheduler::kTaskGraph, {});
}

// A mid-run crash on the cluster: every survivor unwinds, meets in the
// shrink gate and re-executes the unfinished cells. Parked fibers must be
// woken by the fault trigger and the gate, never left behind.
TEST(EngineEquivalenceCluster, CrashShrinkRecoveryBitIdentical) {
  for (const Scheduler sched : kSchedulers) {
    const double t0 =
        cluster_run(sgmpi::Engine::kModeled, sched, {}).exec_time_s;
    ASSERT_GT(t0, 0.0);
    sgmpi::FaultPlan faults;
    faults.events.push_back(
        {sgmpi::FaultKind::kCrash, /*rank=*/5, /*at_vtime=*/0.4 * t0});
    const ExperimentResult modeled =
        cluster_run(sgmpi::Engine::kModeled, sched, faults);
    EXPECT_GE(modeled.recoveries, 1) << core::to_string(sched);
    expect_cluster_engines_identical(sched, faults);
  }
}

}  // namespace
}  // namespace summagen
