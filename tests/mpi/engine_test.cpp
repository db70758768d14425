// The rank engine: FiberHost scheduling, the runtime over fibers, and the
// arrival-order independence contract — every fair resume order gives
// bit-identical payloads and virtual times over every sgmpi primitive class
// (collectives, async slots, point-to-point, faults).
#include "src/mpi/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/mpi/mpi.hpp"

namespace summagen::sgmpi {
namespace {

using detail::FiberHost;
using detail::ScopedResumeOrder;

/// Non-zero resume-order seeds every equivalence case runs against the
/// ascending sweep.
constexpr std::uint64_t kResumeSeeds[] = {1, 2, 3, 4};

Config engine_config(int nranks) {
  Config config;
  config.nranks = nranks;
  return config;
}

// --- FiberHost scheduling ---

TEST(FiberHost, RunsEveryFiberToCompletion) {
  FiberHost host(8, 0);
  std::vector<int> done(8, 0);
  host.run([&](int i) { done[static_cast<std::size_t>(i)] = i + 1; });
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(done[static_cast<std::size_t>(i)], i + 1);
  }
}

TEST(FiberHost, RoundRobinOrderIsDeterministic) {
  // Each fiber logs (index, step) around two yields: with ascending-order
  // sweeps the trace is exactly step-major.
  FiberHost host(3, 0);
  std::vector<std::pair<int, int>> trace;
  host.run([&](int i) {
    for (int step = 0; step < 3; ++step) {
      trace.emplace_back(i, step);
      FiberHost::current()->yield();
    }
  });
  ASSERT_EQ(trace.size(), 9u);
  std::size_t k = 0;
  for (int step = 0; step < 3; ++step) {
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(trace[k], std::make_pair(i, step)) << "entry " << k;
      ++k;
    }
  }
}

TEST(FiberHost, CurrentIsNullOutsideARun) {
  EXPECT_EQ(FiberHost::current(), nullptr);
  FiberHost host(2, 0);
  host.run([&](int) { EXPECT_EQ(FiberHost::current(), &host); });
  EXPECT_EQ(FiberHost::current(), nullptr);
}

TEST(FiberHost, CapturesPerFiberExceptions) {
  FiberHost host(4, 0);
  host.run([&](int i) {
    if (i == 2) throw std::runtime_error("fiber 2 failed");
  });
  for (int i = 0; i < 4; ++i) {
    const auto& e = host.errors()[static_cast<std::size_t>(i)];
    if (i == 2) {
      ASSERT_TRUE(e != nullptr);
      EXPECT_THROW(std::rethrow_exception(e), std::runtime_error);
    } else {
      EXPECT_TRUE(e == nullptr);
    }
  }
}

TEST(FiberHost, YieldOutsideAFiberThrows) {
  FiberHost host(1, 0);
  EXPECT_THROW(host.yield(), std::logic_error);
}

TEST(FiberHost, SurvivesDeepStackUse) {
  // Touch well into each fiber's stack (half the 256 KiB reservation) to
  // prove the guard-page layout leaves the reservation usable.
  FiberHost host(4, 256 * 1024);
  std::vector<double> sums(4, 0.0);
  host.run([&](int i) {
    volatile char buffer[128 * 1024];
    buffer[0] = static_cast<char>(i);
    buffer[sizeof(buffer) - 1] = static_cast<char>(i + 1);
    sums[static_cast<std::size_t>(i)] =
        static_cast<double>(buffer[0]) + buffer[sizeof(buffer) - 1];
  });
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(sums[static_cast<std::size_t>(i)], 2.0 * i + 1.0);
  }
}

// --- FiberHost park/wake ---

TEST(FiberHost, ParkedFiberWaitsForItsKey) {
  // Fiber 0 parks; fiber 1 yields for several sweeps before waking it. A
  // host that resumed parked fibers every sweep would return from park()
  // before the wake.
  FiberHost host(2, 0);
  int key = 0;
  bool woken = false;
  bool saw_wake = false;
  host.run([&](int i) {
    FiberHost* self = FiberHost::current();
    if (i == 0) {
      self->park(&key, "test");
      saw_wake = woken;
      return;
    }
    for (int step = 0; step < 5; ++step) self->yield();
    woken = true;
    self->wake(&key);
  });
  EXPECT_TRUE(saw_wake);
  for (const auto& e : host.errors()) EXPECT_TRUE(e == nullptr);
}

TEST(FiberHost, WakeResumesInAscendingOrderWhateverTheWakeOrder) {
  // Fibers 1..3 park on distinct keys; fiber 0 wakes them in reverse. The
  // sweep resumes them in ascending index order regardless.
  FiberHost host(4, 0);
  int keys[4] = {};
  std::vector<int> resumed;
  host.run([&](int i) {
    FiberHost* self = FiberHost::current();
    if (i == 0) {
      self->yield();  // let fibers 1..3 park first
      self->wake(&keys[3]);
      self->wake(&keys[1]);
      self->wake(&keys[2]);
      return;
    }
    self->park(&keys[i], "test");
    resumed.push_back(i);
  });
  EXPECT_EQ(resumed, (std::vector<int>{1, 2, 3}));
}

TEST(FiberHost, WakeBelowTheRunningFiberWaitsForTheNextSweep) {
  // Fiber 2 wakes fiber 0 and then yields: fiber 0 (below it) runs in the
  // next sweep, after fiber 3 has finished this one.
  FiberHost host(4, 0);
  int key = 0;
  std::vector<int> trace;
  host.run([&](int i) {
    FiberHost* self = FiberHost::current();
    if (i == 0) {
      self->park(&key, "test");
      trace.push_back(0);
    } else if (i == 2) {
      self->wake(&key);
      self->yield();
      trace.push_back(2);
    } else {
      trace.push_back(i);
    }
  });
  EXPECT_EQ(trace, (std::vector<int>{1, 3, 0, 2}));
}

TEST(FiberHost, PlainYieldStaysRunnable) {
  // No fiber ever wakes anything: yielding fibers must still be resumed
  // (a yield is not a park), so the run completes without a deadlock.
  FiberHost host(3, 0);
  std::vector<int> steps(3, 0);
  host.run([&](int i) {
    for (int step = 0; step < 4; ++step) {
      ++steps[static_cast<std::size_t>(i)];
      FiberHost::current()->yield();
    }
  });
  EXPECT_EQ(steps, (std::vector<int>{4, 4, 4}));
  for (const auto& e : host.errors()) EXPECT_TRUE(e == nullptr);
}

TEST(FiberHost, WakingAnUnknownKeyIsANoOp) {
  FiberHost host(2, 0);
  int parked_key = 0, other_key = 0;
  bool woken = false;
  bool saw_wake = false;
  host.run([&](int i) {
    FiberHost* self = FiberHost::current();
    if (i == 0) {
      self->park(&parked_key, "test");
      saw_wake = woken;
      return;
    }
    self->wake(&other_key);  // nobody parked here: must not resume fiber 0
    self->yield();
    self->yield();
    woken = true;
    self->wake(&parked_key);
  });
  EXPECT_TRUE(saw_wake);
}

TEST(FiberHost, ParkOutsideAFiberThrows) {
  FiberHost host(1, 0);
  int key = 0;
  EXPECT_THROW(host.park(&key, "test"), std::logic_error);
  host.wake(&key);  // no run, nobody parked: harmless
}

TEST(FiberHost, NoRunnableFiberRaisesDeadlockInEveryParkedFiber) {
  FiberHost host(3, 0);
  int key = 0;
  host.run([&](int i) {
    if (i == 1) return;  // the others wait for a wake that never comes
    FiberHost::current()->park(&key, "meeting");
  });
  for (int i : {0, 2}) {
    const auto& e = host.errors()[static_cast<std::size_t>(i)];
    ASSERT_TRUE(e != nullptr) << "fiber " << i;
    try {
      std::rethrow_exception(e);
    } catch (const DeadlockError& err) {
      EXPECT_STREQ(err.what(),
                   "sgmpi: deadlock: no rank can make progress; blocked: "
                   "rank 0 in meeting, rank 2 in meeting");
    }
  }
  EXPECT_TRUE(host.errors()[1] == nullptr);
}

// --- Seeded resume order ---

/// (fiber, step) log of `n` fibers that each yield `steps` times.
std::vector<std::pair<int, int>> yield_trace(int n, int steps) {
  FiberHost host(n, 0);
  std::vector<std::pair<int, int>> trace;
  host.run([&](int i) {
    for (int step = 0; step < steps; ++step) {
      trace.emplace_back(i, step);
      FiberHost::current()->yield();
    }
  });
  return trace;
}

TEST(FiberHost, SeededResumeOrderIsFairAndReproducible) {
  // Every fiber yields each step, so each sweep is exactly one step: the
  // trace must be step-major with every fiber once per step, in an order
  // that a seed fixes and that differs from ascending for some seed. Seed
  // 0 is the ascending sweep.
  constexpr int kFibers = 6;
  constexpr int kSteps = 4;
  const auto ascending = yield_trace(kFibers, kSteps);
  {
    const ScopedResumeOrder order(0);
    EXPECT_EQ(yield_trace(kFibers, kSteps), ascending);
  }
  bool some_order_differs = false;
  for (const std::uint64_t seed : kResumeSeeds) {
    const ScopedResumeOrder order(seed);
    const auto trace = yield_trace(kFibers, kSteps);
    ASSERT_EQ(trace.size(), static_cast<std::size_t>(kFibers * kSteps));
    for (int step = 0; step < kSteps; ++step) {
      std::vector<int> seen;
      for (int k = 0; k < kFibers; ++k) {
        const auto& entry = trace[static_cast<std::size_t>(
            step * kFibers + k)];
        EXPECT_EQ(entry.second, step) << "seed " << seed;
        seen.push_back(entry.first);
      }
      std::sort(seen.begin(), seen.end());
      std::vector<int> all(kFibers);
      std::iota(all.begin(), all.end(), 0);
      EXPECT_EQ(seen, all) << "seed " << seed << " step " << step;
    }
    EXPECT_EQ(yield_trace(kFibers, kSteps), trace) << "seed " << seed;
    some_order_differs = some_order_differs || trace != ascending;
  }
  EXPECT_TRUE(some_order_differs);
  EXPECT_EQ(yield_trace(kFibers, kSteps), ascending);  // scope restored
}

TEST(FiberHost, SeededResumeOrderStillDiagnosesDeadlock) {
  const ScopedResumeOrder order(kResumeSeeds[0]);
  FiberHost host(3, 0);
  int key = 0;
  host.run([&](int i) {
    if (i == 1) return;
    FiberHost::current()->park(&key, "meeting");
  });
  for (int i : {0, 2}) {
    const auto& e = host.errors()[static_cast<std::size_t>(i)];
    ASSERT_TRUE(e != nullptr) << "fiber " << i;
    EXPECT_THROW(std::rethrow_exception(e), DeadlockError);
  }
  EXPECT_TRUE(host.errors()[1] == nullptr);
}

TEST(FiberHost, WaitOutsideAFiberThrows) {
  std::mutex m;
  std::unique_lock<std::mutex> lock(m);
  EXPECT_THROW(detail::engine_wait_step(lock, "test"), std::logic_error);
  EXPECT_TRUE(lock.owns_lock());
}

// --- The runtime on fibers, over the primitives ---

TEST(ModeledEngine, CollectivesDeliverPayloads) {
  Runtime rt(engine_config(5));
  rt.run([](Comm& world) {
    std::vector<double> buf(64, world.rank() == 1 ? 2.5 : 0.0);
    world.bcast(buf.data(), 64, 1);
    for (double v : buf) EXPECT_EQ(v, 2.5);
    EXPECT_EQ(world.allreduce_max(static_cast<double>(world.rank())), 4.0);
    EXPECT_EQ(world.allreduce_sum(1.0), 5.0);
    world.barrier();
    const auto gathered = world.gather(10.0 + world.rank(), 0);
    if (world.rank() == 0) {
      ASSERT_EQ(gathered.size(), 5u);
      for (int r = 0; r < 5; ++r) {
        EXPECT_EQ(gathered[static_cast<std::size_t>(r)], 10.0 + r);
      }
    }
  });
}

TEST(ModeledEngine, PointToPointAndAsyncBcastWork) {
  Runtime rt(engine_config(4));
  rt.run([](Comm& world) {
    // Ring send: r -> (r+1) % 4 with distinct tags, then an async bcast.
    const int next = (world.rank() + 1) % 4;
    const int prev = (world.rank() + 3) % 4;
    const double out = 100.0 + world.rank();
    double in = 0.0;
    Request s = world.isend_bytes(&out, sizeof(double), next, 7);
    Request r = world.irecv_bytes(&in, sizeof(double), prev, 7);
    world.wait(r);
    world.wait(s);
    EXPECT_EQ(in, 100.0 + prev);

    double payload = world.rank() == 0 ? 42.0 : 0.0;
    Request b = world.ibcast_bytes(&payload, sizeof(double), 0);
    world.wait(b);
    EXPECT_EQ(payload, 42.0);
  });
}

TEST(ModeledEngine, SubgroupCollectivesWork) {
  Runtime rt(engine_config(6));
  rt.run([](Comm& world) {
    const bool even = world.rank() % 2 == 0;
    const std::vector<int> members =
        even ? std::vector<int>{0, 2, 4} : std::vector<int>{1, 3, 5};
    Comm sub = world.subgroup(members);
    const double sum = sub.allreduce_sum(static_cast<double>(world.rank()));
    EXPECT_EQ(sum, even ? 6.0 : 9.0);
  });
}

TEST(ModeledEngine, AbortUnwindsAllRanks) {
  Runtime rt(engine_config(4));
  EXPECT_THROW(rt.run([](Comm& world) {
                 if (world.rank() == 2) {
                   throw std::runtime_error("rank 2 exploded");
                 }
                 world.barrier();  // peers park here until the abort lands
                 world.barrier();
               }),
               std::runtime_error);
}

TEST(ModeledEngine, AbortWakesAFiberParkedInAMeeting) {
  // Rank 1 parks in the barrier during the first sweep; rank 0 throws on
  // the second. Only the abort's notify can resume rank 1 — without it the
  // host would report a deadlock instead of rank 0's error.
  Runtime rt(engine_config(2));
  try {
    rt.run([](Comm& world) {
      if (world.rank() == 0) {
        FiberHost::current()->yield();
        throw std::runtime_error("rank 0 exploded");
      }
      world.barrier();
    });
    FAIL() << "run did not throw";
  } catch (const DeadlockError& e) {
    FAIL() << "abort did not wake the parked rank: " << e.what();
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rank 0 exploded");
  }
}

TEST(ModeledEngine, SkippedBroadcastRaisesDeadlockNamingBlockedRanks) {
  // Rank 3 skips a broadcast its three peers wait on: instead of spinning
  // forever the run fails with a typed error naming each blocked rank and
  // its wait site.
  Runtime rt(engine_config(4));
  try {
    rt.run([](Comm& world) {
      double v = world.rank() == 0 ? 1.0 : 0.0;
      if (world.rank() != 3) world.bcast(&v, 1, 0);
    });
    FAIL() << "run did not throw";
  } catch (const DeadlockError& e) {
    EXPECT_STREQ(e.what(),
                 "sgmpi: deadlock: no rank can make progress; blocked: "
                 "rank 0 in bcast slot, rank 1 in bcast slot, "
                 "rank 2 in bcast slot");
  }
}

TEST(ModeledEngine, UnmatchedRecvRaisesDeadlock) {
  Runtime rt(engine_config(2));
  try {
    rt.run([](Comm& world) {
      if (world.rank() == 1) {
        double v = 0.0;
        world.recv_bytes(&v, sizeof(double), 0, 9);
      }
    });
    FAIL() << "run did not throw";
  } catch (const DeadlockError& e) {
    EXPECT_STREQ(e.what(),
                 "sgmpi: deadlock: no rank can make progress; blocked: "
                 "rank 1 in recv");
  }
}

TEST(ModeledEngine, PoisonedAfterAbort) {
  Runtime rt(engine_config(2));
  EXPECT_THROW(
      rt.run([](Comm&) { throw std::runtime_error("boom"); }),
      std::runtime_error);
  EXPECT_THROW(rt.run([](Comm&) {}), std::logic_error);
}

// --- Bit-identity across resume orders ---

struct RunOutcome {
  std::vector<double> clock_now;
  std::vector<double> comm_time;
  std::vector<double> payload;
};

/// Runs `body` on `config` with the fibers resumed in the order `seed`
/// selects (0 = ascending).
template <typename Body>
RunOutcome run_with_order(std::uint64_t seed, const Config& config,
                          const Body& body) {
  const ScopedResumeOrder order(seed);
  const int nranks = config.nranks;
  Runtime rt(config);
  RunOutcome out;
  out.payload.assign(static_cast<std::size_t>(nranks), 0.0);
  out.comm_time.assign(static_cast<std::size_t>(nranks), 0.0);
  rt.run([&](Comm& world) {
    const auto result = body(world);
    out.payload[static_cast<std::size_t>(world.rank())] = result.first;
    out.comm_time[static_cast<std::size_t>(world.rank())] = result.second;
  });
  for (int r = 0; r < nranks; ++r) out.clock_now.push_back(rt.clock(r).now());
  return out;
}

/// The ascending sweep against every seed in kResumeSeeds.
template <typename Body>
void expect_orders_identical(const Config& config, const Body& body) {
  const RunOutcome ascending = run_with_order(0, config, body);
  for (const std::uint64_t seed : kResumeSeeds) {
    const RunOutcome shuffled = run_with_order(seed, config, body);
    for (int r = 0; r < config.nranks; ++r) {
      const auto i = static_cast<std::size_t>(r);
      EXPECT_EQ(ascending.clock_now[i], shuffled.clock_now[i])
          << "seed " << seed << " rank " << r;
      EXPECT_EQ(ascending.comm_time[i], shuffled.comm_time[i])
          << "seed " << seed << " rank " << r;
      EXPECT_EQ(ascending.payload[i], shuffled.payload[i])
          << "seed " << seed << " rank " << r;
    }
  }
}

TEST(EngineEquivalence, MixedCollectiveScheduleIsBitIdentical) {
  expect_orders_identical(engine_config(8), [](Comm& world) {
    double comm = 0.0;
    double value = static_cast<double>(world.rank());
    for (int round = 0; round < 4; ++round) {
      comm += world.bcast(&value, 1, round % world.size());
      value = world.allreduce_sum(value);
      world.barrier();
      value = world.allreduce_max(value - world.rank());
    }
    comm += world.allreduce_sum_buffer(&value, 1);
    // Cancelling 1e16 terms beside small ones: the rounded sum depends on
    // the summation order, so a sum taken in arrival order would differ
    // between resume orders.
    const int r = world.rank();
    const double term = r % 2 == 1 ? 1.0 / r : r % 4 == 0 ? 1.0e16 : -1.0e16;
    double buffer_sum = term;
    comm += world.allreduce_sum_buffer(&buffer_sum, 1);
    value += buffer_sum + 3.0 * world.allreduce_sum(term);
    return std::make_pair(value, comm);
  });
}

TEST(EngineEquivalence, AsyncOverlapScheduleIsBitIdentical) {
  expect_orders_identical(engine_config(6), [](Comm& world) {
    double comm = 0.0;
    std::vector<double> panel(128, world.rank() == 0 ? 1.5 : 0.0);
    Request b =
        world.ibcast_bytes(panel.data(), 128 * sizeof(double), 0);
    // Overlapped "compute": advance the local lane before completing.
    world.clock().advance_compute(0.003 * (world.rank() + 1));
    comm += world.wait(b);
    const int next = (world.rank() + 1) % world.size();
    const int prev = (world.rank() + world.size() - 1) % world.size();
    double out = panel[0] * (world.rank() + 1);
    double in = 0.0;
    Request s = world.isend_bytes(&out, sizeof(double), next, 3);
    Request r = world.irecv_bytes(&in, sizeof(double), prev, 3);
    comm += world.wait(r);
    comm += world.wait(s);
    return std::make_pair(in, comm);
  });
}

TEST(EngineEquivalence, MultiNodeSubgroupScheduleIsBitIdentical) {
  // Two nodes of 8: world collectives cross the inter-node link, row
  // subgroups stay intra-node — the two-level pricing setup at p=16, the
  // acceptance bound for bit-identity checks.
  const auto body = [](Comm& world) {
    double comm = 0.0;
    std::vector<int> node_peers;
    const int base = world.rank() < 8 ? 0 : 8;
    for (int i = 0; i < 8; ++i) node_peers.push_back(base + i);
    Comm sub = world.subgroup(node_peers);
    double v = static_cast<double>(world.rank());
    comm += sub.bcast(&v, 1, 0);
    comm += world.bcast(&v, 1, 0);
    v = world.allreduce_sum(v);
    return std::make_pair(v, comm);
  };
  Config config = engine_config(16);
  config.node_of.assign(16, 0);
  for (int r = 8; r < 16; ++r) config.node_of[static_cast<std::size_t>(r)] = 1;
  expect_orders_identical(config, body);
}

// --- Faults on fibers ---

TEST(ModeledEngine, CrashShrinkRecoveryWorks) {
  Config config = engine_config(4);
  FaultEvent crash;
  crash.kind = FaultKind::kCrash;
  crash.rank = 1;
  crash.at_vtime = 0.0;
  config.faults.events.push_back(crash);
  Runtime rt(config);
  std::vector<int> survivors;
  rt.run([&](Comm& world) {
    try {
      for (int step = 0; step < 50; ++step) {
        world.clock().advance_compute(0.01);
        world.barrier();
      }
      world.ft_commit();
    } catch (const PeerFailedError&) {
      const ShrinkResult result = world.shrink();
      if (world.world_rank() == 0) survivors = result.survivors;
    }
  });
  EXPECT_EQ(survivors, (std::vector<int>{0, 2, 3}));
}

// --- Scale smoke: thousands of fibers on one thread ---

TEST(ModeledEngine, FiveHundredTwelveRanksComplete) {
  Config config = engine_config(512);
  config.fiber_stack_bytes = 128 * 1024;
  Runtime rt(config);
  double sum = -1.0;
  rt.run([&](Comm& world) {
    double v = 1.0;
    v = world.allreduce_sum(v);
    world.barrier();
    if (world.rank() == 0) sum = v;
  });
  EXPECT_EQ(sum, 512.0);
  EXPECT_GT(rt.max_vtime(), 0.0);
}

}  // namespace
}  // namespace summagen::sgmpi
