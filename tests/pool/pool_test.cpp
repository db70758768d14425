// sgpool executor tests: primitives (task groups, stealing, exceptions,
// nesting), the no-thread-spawn-in-dgemm guarantee, concurrent dgemm
// callers vs a serial oracle, kPacked equivalence, and the pool under the
// chunk-pipelined (kTaskGraph) SummaGen scheduler (this binary also runs in
// the TSan CI job).
#include "src/pool/pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/blas/gemm.hpp"
#include "src/core/runner.hpp"
#include "src/util/matrix.hpp"
#include "src/util/rng.hpp"

namespace summagen {
namespace {

using blas::GemmKernel;
using blas::GemmOptions;
using blas::multiply;
using util::Matrix;

Matrix oracle(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (std::int64_t i = 0; i < a.rows(); ++i) {
    for (std::int64_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (std::int64_t l = 0; l < a.cols(); ++l) acc += a(i, l) * b(l, j);
      c(i, j) = acc;
    }
  }
  return c;
}

TEST(Pool, RunsEverySubmittedTask) {
  sgpool::Pool pool(3);
  std::atomic<int> count{0};
  sgpool::TaskGroup group(pool);
  for (int i = 0; i < 200; ++i) {
    group.run([&count] { count.fetch_add(1); });
  }
  group.wait();
  EXPECT_EQ(count.load(), 200);
  EXPECT_EQ(pool.size(), 3);
  EXPECT_EQ(pool.stats().threads_spawned, 3);
  EXPECT_GE(pool.stats().tasks_executed, 200);
}

TEST(Pool, WorkerlessPoolRunsInline) {
  sgpool::Pool pool(0);
  std::atomic<int> count{0};
  sgpool::TaskGroup group(pool);
  for (int i = 0; i < 16; ++i) group.run([&count] { count.fetch_add(1); });
  group.wait();
  EXPECT_EQ(count.load(), 16);
  EXPECT_EQ(pool.stats().threads_spawned, 0);
}

TEST(Pool, WaitRethrowsFirstTaskException) {
  sgpool::Pool pool(2);
  sgpool::TaskGroup group(pool);
  for (int i = 0; i < 8; ++i) {
    group.run([i] {
      if (i % 2 == 1) throw std::runtime_error("task failed");
    });
  }
  EXPECT_THROW(group.wait(), std::runtime_error);
  // After the throw the group is reusable and clean.
  group.run([] {});
  EXPECT_NO_THROW(group.wait());
}

TEST(Pool, NestedGroupsDoNotDeadlock) {
  sgpool::Pool pool(2);
  std::atomic<int> inner_total{0};
  sgpool::TaskGroup outer(pool);
  for (int i = 0; i < 8; ++i) {
    outer.run([&pool, &inner_total] {
      sgpool::TaskGroup inner(pool);
      for (int j = 0; j < 8; ++j) {
        inner.run([&inner_total] { inner_total.fetch_add(1); });
      }
      inner.wait();  // waits inside a pool task: helping keeps this live
    });
  }
  outer.wait();
  EXPECT_EQ(inner_total.load(), 64);
}

TEST(Pool, WorkStealingStress) {
  // Deterministic steal: the first submission (a blocker) pins whichever
  // worker picks it up; external submissions land round-robin across both
  // deques, so the surviving worker can only finish the pinned worker's
  // share by stealing. The main thread deliberately does NOT call wait()
  // (which would help) until every light task is done.
  sgpool::Pool pool(2);
  std::atomic<bool> release{false};
  std::atomic<int> done{0};
  sgpool::TaskGroup group(pool);
  group.run([&release] {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  constexpr int kTasks = 100;
  for (int i = 0; i < kTasks; ++i) {
    group.run([&done] { done.fetch_add(1); });
  }
  while (done.load() < kTasks) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(pool.stats().steals, 0);
  release.store(true);
  group.wait();
  EXPECT_GE(pool.stats().tasks_executed, kTasks + 1);
}

TEST(Pool, ParallelForCoversRangeOnce) {
  sgpool::Pool pool(3);
  std::vector<std::atomic<int>> hits(257);
  sgpool::parallel_for(
      0, 257, 10,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) {
          hits[static_cast<std::size_t>(i)].fetch_add(1);
        }
      },
      pool);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Pool, ConfigureResizesSharedPool) {
  const int before = sgpool::Pool::instance().size();
  sgpool::Pool::configure(before + 2);
  EXPECT_EQ(sgpool::Pool::instance().size(), before + 2);
  std::atomic<int> count{0};
  sgpool::TaskGroup group;
  for (int i = 0; i < 32; ++i) group.run([&count] { count.fetch_add(1); });
  group.wait();
  EXPECT_EQ(count.load(), 32);
  sgpool::Pool::configure(before);
  EXPECT_EQ(sgpool::Pool::instance().size(), before);
}

TEST(Pool, RecommendedSizeLeavesRoomForRanks) {
  const unsigned hw = std::thread::hardware_concurrency();
  const int avail = static_cast<int>(hw == 0 ? 1 : hw);
  EXPECT_EQ(sgpool::Pool::recommended_size(0), std::max(1, avail));
  EXPECT_EQ(sgpool::Pool::recommended_size(3), std::max(1, avail - 3));
  EXPECT_EQ(sgpool::Pool::recommended_size(1000), 1);  // floor of one worker
}

// Ordering bug, pinned: set_reserved_threads used to only feed the lazy
// default size, so a reservation made AFTER the shared pool's first use was
// silently ignored — the pool kept its stale size and the host ended up
// oversubscribed by the rank threads. A late reservation must resize the
// already-constructed pool.
TEST(Pool, LateReservationResizesConstructedPool) {
  (void)sgpool::Pool::instance();  // force construction before reserving
  const int old_reserved = sgpool::Pool::reserved_threads();

  sgpool::Pool::set_reserved_threads(3);
  EXPECT_EQ(sgpool::Pool::reserved_threads(), 3);
  EXPECT_EQ(sgpool::Pool::instance().size(), sgpool::Pool::recommended_size(3));

  sgpool::Pool::set_reserved_threads(0);
  EXPECT_EQ(sgpool::Pool::instance().size(), sgpool::Pool::recommended_size(0));

  // Negative reservations clamp to zero rather than inflating the pool.
  sgpool::Pool::set_reserved_threads(-5);
  EXPECT_EQ(sgpool::Pool::reserved_threads(), 0);
  EXPECT_EQ(sgpool::Pool::instance().size(), sgpool::Pool::recommended_size(0));

  // The resized pool still executes work.
  std::atomic<int> count{0};
  sgpool::TaskGroup group;
  for (int i = 0; i < 16; ++i) group.run([&count] { count.fetch_add(1); });
  group.wait();
  EXPECT_EQ(count.load(), 16);

  sgpool::Pool::set_reserved_threads(old_reserved);
}

// The acceptance hook: a dgemm call must never construct a thread — all
// parallelism is task submission into already-running pool workers.
TEST(Pool, DgemmSpawnsNoThreads) {
  sgpool::Pool::configure(4);
  Matrix a(96, 64), b(64, 80);
  util::fill_random(a, 1);
  util::fill_random(b, 2);
  // Warm-up creates any lazily-constructed state.
  (void)blas::multiply(a, b, {.kernel = GemmKernel::kPacked});
  const std::int64_t spawned_before = sgpool::Pool::process_threads_spawned();
  for (int rep = 0; rep < 20; ++rep) {
    for (GemmKernel kernel : {GemmKernel::kThreaded, GemmKernel::kPacked}) {
      GemmOptions opts;
      opts.kernel = kernel;
      (void)blas::multiply(a, b, opts);
    }
  }
  EXPECT_EQ(sgpool::Pool::process_threads_spawned(), spawned_before);
}

TEST(Pool, ConcurrentDgemmCallersMatchSerialOracle) {
  // N caller threads (standing in for sgmpi rank threads) share the one
  // pool; every result must match the serial oracle exactly as computed
  // serially (the kernels are scheduling-independent).
  sgpool::Pool::configure(2);
  constexpr int kCallers = 4;
  std::vector<Matrix> as, bs, wants;
  for (int r = 0; r < kCallers; ++r) {
    as.emplace_back(60 + r, 40 + r);
    bs.emplace_back(40 + r, 50 + r);
    util::fill_random(as.back(), util::derive_seed(10, r));
    util::fill_random(bs.back(), util::derive_seed(20, r));
    GemmOptions serial;
    serial.kernel = GemmKernel::kPacked;
    serial.threads = 1;
    wants.push_back(multiply(as.back(), bs.back(), serial));
  }
  for (GemmKernel kernel : {GemmKernel::kThreaded, GemmKernel::kPacked}) {
    std::vector<Matrix> got(kCallers);
    std::vector<std::thread> callers;
    for (int r = 0; r < kCallers; ++r) {
      callers.emplace_back([&, r] {
        GemmOptions opts;
        opts.kernel = kernel;
        for (int rep = 0; rep < 8; ++rep) {
          got[static_cast<std::size_t>(r)] =
              multiply(as[static_cast<std::size_t>(r)],
                       bs[static_cast<std::size_t>(r)], opts);
        }
      });
    }
    for (auto& t : callers) t.join();
    for (int r = 0; r < kCallers; ++r) {
      EXPECT_LE(Matrix::max_abs_diff(got[static_cast<std::size_t>(r)],
                                     wants[static_cast<std::size_t>(r)]),
                1e-11)
          << "caller " << r;
    }
  }
}

TEST(Pool, PackedMatchesNaiveOnRandomShapes) {
  sgpool::Pool::configure(3);
  util::Rng rng(4242);
  for (int trial = 0; trial < 40; ++trial) {
    const std::int64_t m = rng.uniform_int(1, 70);
    const std::int64_t n = rng.uniform_int(1, 70);
    const std::int64_t k = rng.uniform_int(1, 300);  // crosses the KC block
    Matrix a(m, k), b(k, n);
    util::fill_random(a, util::derive_seed(100, trial));
    util::fill_random(b, util::derive_seed(200, trial));
    const Matrix want = multiply(a, b, {.kernel = GemmKernel::kNaive});
    const Matrix got = multiply(a, b, {.kernel = GemmKernel::kPacked});
    EXPECT_LE(Matrix::max_abs_diff(got, want), 1e-11 * (k + 1))
        << "trial " << trial << " m=" << m << " n=" << n << " k=" << k;
  }
}

TEST(Pool, PackedBitIdenticalToBlockedAndThreaded) {
  // The packed layout must not change the per-element accumulation chain.
  // The scalar (and SSE2) dispatch tiers keep that guarantee; the AVX2 tier
  // fuses multiply-add and is covered by tolerance tests instead.
  Matrix a(53, 210), b(210, 37);
  util::fill_random(a, 5);
  util::fill_random(b, 6);
  const Matrix blocked = multiply(a, b, {.kernel = GemmKernel::kBlocked});
  const Matrix threaded = multiply(a, b, {.kernel = GemmKernel::kThreaded});
  const Matrix packed = multiply(
      a, b,
      {.kernel = GemmKernel::kPacked, .tier = blas::SimdTier::kScalar});
  EXPECT_EQ(blocked, threaded);
  EXPECT_EQ(blocked, packed);
  // The auto tier (whatever this host dispatches to) stays within the
  // usual componentwise error bound of the same chain.
  const Matrix dispatched = multiply(a, b, {.kernel = GemmKernel::kPacked});
  EXPECT_LE(Matrix::max_abs_diff(blocked, dispatched), 1e-11 * (210 + 1));
}

TEST(Pool, PipelinedSchedulerOnPoolVerifies) {
  // The k-chunked task-graph schedule issues local DGEMMs from three rank
  // threads concurrently with outstanding broadcasts — exactly the workload
  // that oversubscribed the host before the shared pool. Run it numerically
  // end-to-end (TSan covers this binary in CI).
  core::ExperimentConfig config;
  config.platform = device::Platform::hclserver1();
  config.n = 144;
  config.numeric = true;
  config.summagen_options.scheduler = core::Scheduler::kTaskGraph;
  config.summagen_options.overlap_depth = 2;
  config.summagen_options.bcast_panel_rows = 24;
  for (GemmKernel kernel : {GemmKernel::kThreaded, GemmKernel::kPacked}) {
    config.kernel.kernel = kernel;
    const auto res = core::run_pmm(config);
    EXPECT_TRUE(res.verified) << "max |err| " << res.max_abs_error;
  }
}

}  // namespace
}  // namespace summagen
