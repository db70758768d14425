// The rank engine: every rank of a run is a fiber on the calling thread.
//
// Each sgmpi rank body runs unchanged on a stackful coroutine (ucontext),
// and one scheduler loop on the thread that called Runtime::run resumes
// the fibers. A rank that would block on a peer (rendezvous, async-slot
// wait, mailbox recv, shrink/commit gate) parks on its wait object — the
// mutex guarding the state its wait loop tests — so the whole parallel
// region is a deterministic single-threaded event loop over virtual time,
// and p=4096 ranks cost one thread plus lazily committed stacks.
//
// Park/wake rule: a parked fiber is resumed only after a wake on the object
// it parked on (engine_notify_all). Each sweep resumes the runnable fibers
// in ascending rank order; a fiber woken during a sweep runs later in the
// same sweep if its rank is above the one running, else in the next sweep.
// A plain yield() leaves the fiber runnable.
//
// Cooperative scheduling: a fiber runs until it parks, yields or returns.
// A rank that never reaches a blocking sgmpi call (a loop of completed
// isends, a compute loop that polls nothing) starves every other rank for
// as long as it runs; its peers, and their unwind checks, only run once it
// blocks.
//
// Determinism: the rule skips only resumes whose wait predicate cannot have
// changed — every state change a wait loop tests is followed by a wake on
// its object, and a re-check of an unchanged predicate (plus the idempotent
// unwind check) only parks again. All cross-rank arithmetic in the runtime
// is meant to be arrival-order independent as well (max reductions; sums
// in ascending communicator-rank order), so results AND virtual times must
// not depend on the resume order. Tests check that claim with
// ScopedResumeOrder, which replaces the ascending sweep by a seeded
// shuffle of each sweep; production always sweeps in ascending order.
//
// Deadlock: when no fiber is runnable but some are unfinished, every parked
// fiber is resumed with a DeadlockError naming each blocked rank, its wait
// site and the task it noted (sgmpi::note_task), and unwinds like any
// other rank error.
//
// Stacks are mmap'd lazily-committed with a PROT_NONE guard page below, so
// p=4096 fibers reserve address space but only commit the pages each rank
// actually touches — the RSS that matters for the large-p smoke budget.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

namespace summagen::sgmpi::detail {

/// Cooperative scheduler hosting one fiber per rank on the calling thread.
class FiberHost {
 public:
  /// Stack reservation per fiber when Config::fiber_stack_bytes == 0.
  static constexpr std::size_t kDefaultStackBytes = 1u << 20;  // 1 MiB

  /// Prepares `nfibers` fibers with `stack_bytes` of stack each (rounded up
  /// to whole pages; a guard page is added on top of the reservation).
  FiberHost(int nfibers, std::size_t stack_bytes);
  ~FiberHost();
  FiberHost(const FiberHost&) = delete;
  FiberHost& operator=(const FiberHost&) = delete;

  /// Runs `body(i)` for every fiber i to completion on the calling thread.
  /// Fibers are started and resumed in ascending index order (or the
  /// ScopedResumeOrder shuffle) under the park/wake rule above; an
  /// exception escaping a body terminates that fiber and is captured in
  /// errors()[i] (the others keep running — runtime-level unwind is the
  /// caller's job).
  void run(const std::function<void(int)>& body);

  /// Per-fiber captured exceptions after run() (null = clean exit).
  const std::vector<std::exception_ptr>& errors() const { return errors_; }

  /// The host driving the calling thread, or null outside a run (and on
  /// pool workers). Blocking wait sites park on it.
  static FiberHost* current() noexcept;

  /// Index of the fiber currently running on this thread (-1 outside one).
  int current_fiber() const noexcept { return running_; }

  /// Returns control to the scheduler; the calling fiber stays runnable and
  /// is resumed on the next sweep. Must be called from inside a fiber with
  /// no locks held.
  void yield();

  /// Parks the calling fiber on `key` (the address of a wait object) until
  /// wake(key). `site` names the wait in deadlock reports and must outlive
  /// the run. Throws DeadlockError when the host finds no runnable fiber
  /// while this one is parked. Must be called from inside a fiber with no
  /// locks held.
  void park(const void* key, const char* site);

  /// Makes every fiber parked on `key` runnable. No-op for a key nobody is
  /// parked on.
  void wake(const void* key);

  /// Records the task the running fiber is in for deadlock reports (see
  /// sgmpi::note_task). No-op outside a fiber.
  void note_task(int id, const char* kind) noexcept;

 private:
  struct Fiber;
  static void trampoline();
  void switch_to(int index);
  void switch_back(Fiber& fiber, bool dying);
  void set_runnable(int index, bool runnable);
  bool is_runnable(int index) const;
  /// Lowest runnable fiber index >= `from`, or -1.
  int next_runnable(int from) const;
  /// Sweeps in ascending index order until every fiber has returned.
  void run_ascending();
  /// Sweeps in a freshly shuffled order each time (ScopedResumeOrder).
  void run_shuffled(std::uint64_t seed);
  /// Resumes every parked fiber with a DeadlockError.
  void fail_deadlocked();

  std::size_t stack_bytes_ = 0;
  std::vector<std::unique_ptr<Fiber>> fibers_;
  std::vector<std::exception_ptr> errors_;
  const std::function<void(int)>* body_ = nullptr;
  int running_ = -1;   ///< fiber index executing now, -1 = scheduler
  int finished_ = 0;   ///< fibers that have returned/thrown
  std::vector<std::uint64_t> runnable_;  ///< bitmap over fiber indices
  /// Parked fibers per wait object, in parking order.
  std::unordered_map<const void*, std::vector<int>> waiters_;
  std::string deadlock_;  ///< DeadlockError message once deadlocked

  // Sanitizer bookkeeping for the scheduler's own (thread) stack.
  void* host_fake_stack_ = nullptr;
  const void* host_stack_bottom_ = nullptr;
  std::size_t host_stack_size_ = 0;
  void* host_tsan_fiber_ = nullptr;
};

/// Test-only resume-order hook. While an instance is alive on a thread,
/// every FiberHost::run on that thread with a non-zero `seed` visits each
/// sweep's runnable fibers in a seeded shuffled order instead of ascending
/// order. Every fiber runnable at a sweep's start still runs once in that
/// sweep, so the order is fair. Seed 0 is the ascending sweep. Scopes nest;
/// the destructor restores the enclosing seed.
class ScopedResumeOrder {
 public:
  explicit ScopedResumeOrder(std::uint64_t seed);
  ~ScopedResumeOrder();
  ScopedResumeOrder(const ScopedResumeOrder&) = delete;
  ScopedResumeOrder& operator=(const ScopedResumeOrder&) = delete;

 private:
  std::uint64_t prev_;
};

/// One step of a blocking wait loop: releases `lock`, parks the calling
/// fiber on the lock's mutex until a wake on it (engine_notify_all), and
/// re-locks. The caller's loop re-checks its predicate (and unwind state)
/// after every step. `site` names the wait in deadlock reports. Throws
/// std::logic_error when reached outside a rank fiber.
inline void engine_wait_step(std::unique_lock<std::mutex>& lock,
                             const char* site) {
  FiberHost* host = FiberHost::current();
  if (host == nullptr) {
    throw std::logic_error("sgmpi: blocking wait outside a rank fiber");
  }
  lock.unlock();
  try {
    host->park(lock.mutex(), site);
  } catch (...) {
    lock.lock();
    throw;
  }
  lock.lock();
}

/// Wakes every fiber parked on `m`. Every state change that a wait loop
/// guarded by `m` tests must be followed by this call. No-op outside a run.
inline void engine_notify_all(const std::mutex& m) {
  if (FiberHost* host = FiberHost::current()) host->wake(&m);
}

}  // namespace summagen::sgmpi::detail
