// Modeled execution engine: many ranks on one OS thread.
//
// The thread engine (the historical default) backs every sgmpi rank with a
// std::thread, which caps the simulated cluster at a few dozen ranks — a
// p=4096 run would need four thousand OS threads and their stacks. The
// modeled engine replaces them with cooperative fibers: each rank body runs
// unchanged on a stackful coroutine (ucontext), and one scheduler thread
// resumes the fibers in rank order. A rank that would block on a peer
// (rendezvous, async-slot wait, mailbox recv, shrink/commit gate) parks on
// the wait object's condition variable instead of sleeping on it, so the
// whole parallel region is a deterministic single-threaded event loop over
// virtual time.
//
// Park/wake rule: a parked fiber is resumed only after a notify on the
// object it parked on (engine_notify_all). Each sweep resumes the runnable
// fibers in ascending rank order; a fiber woken during a sweep runs later
// in the same sweep if its rank is above the one running, else in the next
// sweep. A plain yield() leaves the fiber runnable.
//
// Determinism: the rule skips only resumes whose wait predicate cannot have
// changed — every state change a wait loop tests is followed by a notify on
// its object, and a re-check of an unchanged predicate (plus the idempotent
// unwind check) only parks again. So the sequence of state-changing steps
// is exactly that of resuming every fiber each sweep. All cross-rank
// arithmetic in the runtime is arrival-order independent too (max
// reductions; buffer sums in ascending communicator-rank order), so results
// AND virtual times are bit-identical to the thread engine.
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

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
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
  /// Fibers are started and resumed in ascending index order under the
  /// park/wake rule above; an exception escaping a body terminates that
  /// fiber and is captured in errors()[i] (the others keep running —
  /// runtime-level unwind is the caller's job, exactly as with detached
  /// rank threads).
  void run(const std::function<void(int)>& body);

  /// Per-fiber captured exceptions after run() (null = clean exit).
  const std::vector<std::exception_ptr>& errors() const { return errors_; }

  /// The host driving the calling thread, or null when the caller is a
  /// plain thread (pool workers, the thread engine's ranks). Blocking wait
  /// sites branch on this: park on the scheduler instead of sleeping.
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
  /// Lowest runnable fiber index >= `from`, or -1.
  int next_runnable(int from) const;
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

/// One step of a blocking wait loop, engine-aware: under a FiberHost the
/// calling fiber releases `lock`, parks on `cv` until a notify on it, and
/// re-locks; on a plain thread it sleeps on `cv` with exponential backoff
/// capped at `poll_interval_s`. The caller's loop re-checks its predicate
/// (and unwind state) after every step, so both paths observe identical
/// wake-up points. `site` names the wait in deadlock reports.
template <typename Lock, typename Cv>
inline void engine_wait_step(Lock& lock, Cv& cv, double& backoff_s,
                             double poll_interval_s, const char* site) {
  if (FiberHost* host = FiberHost::current()) {
    lock.unlock();
    try {
      host->park(&cv, site);
    } catch (...) {
      lock.lock();
      throw;
    }
    lock.lock();
    return;
  }
  cv.wait_for(lock, std::chrono::duration<double>(backoff_s));
  backoff_s = std::min(backoff_s * 2.0, poll_interval_s);
}

/// Notifies every waiter of `cv` on either engine: wakes the fibers parked
/// on it and the threads sleeping on it. Every state change that a wait
/// loop on `cv` tests must be followed by this call.
template <typename Cv>
inline void engine_notify_all(Cv& cv) {
  if (FiberHost* host = FiberHost::current()) host->wake(&cv);
  cv.notify_all();
}

}  // namespace summagen::sgmpi::detail
