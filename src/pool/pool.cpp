#include "src/pool/pool.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

namespace summagen::sgpool {
namespace {

std::atomic<std::int64_t> g_process_spawned{0};
std::atomic<int> g_reserved_threads{0};
std::atomic<bool> g_instance_created{false};
std::mutex g_configure_mu;

std::mutex g_hooks_mu;
std::vector<std::function<void()>>& quiescent_hooks() {
  static std::vector<std::function<void()>>* hooks =
      new std::vector<std::function<void()>>();
  return *hooks;
}

// Which pool (if any) the current thread is a worker of, and its index —
// lets submit() use the cache-warm local deque and try_run_one() prefer it.
thread_local Pool* tl_worker_pool = nullptr;
thread_local std::size_t tl_worker_index = 0;

}  // namespace

// Locking discipline: `workers_` (the vector itself) is only mutated by
// start()/shutdown(), which are quiescent-only (no tasks in flight, no
// concurrent submitters) — hot-path readers touch it lock-free. Each deque
// has its own mutex; nobody holds two deque mutexes at once. submit()
// briefly acquires sleep_mu_ *after* releasing the deque mutex so a parked
// worker's recheck-then-wait (done under sleep_mu_) cannot miss a wakeup.

Pool::Pool(int threads) { start(std::max(0, threads)); }

Pool::~Pool() { shutdown(); }

int Pool::size() const { return static_cast<int>(workers_.size()); }

PoolStats Pool::stats() const {
  PoolStats s;
  s.threads_spawned = spawned_.load(std::memory_order_relaxed);
  s.tasks_executed = executed_.load(std::memory_order_relaxed);
  s.steals = steals_.load(std::memory_order_relaxed);
  return s;
}

Pool& Pool::instance() {
  // Intentionally leaked: worker threads must outlive every static client,
  // and joining at static-destruction order is a losing game.
  static Pool* shared = [] {
    Pool* pool = new Pool(recommended_size(reserved_threads()));
    g_instance_created.store(true, std::memory_order_release);
    return pool;
  }();
  return *shared;
}

void Pool::configure(int threads) {
  std::lock_guard<std::mutex> lk(g_configure_mu);
  // Quiescent point: configure() is documented no-tasks-in-flight, so
  // caches can safely drop storage here (copy the hooks out so a hook may
  // itself register hooks without deadlocking).
  std::vector<std::function<void()>> hooks;
  {
    std::lock_guard<std::mutex> hlk(g_hooks_mu);
    hooks = quiescent_hooks();
  }
  for (const auto& hook : hooks) hook();
  Pool& pool = instance();
  const int want = std::max(0, threads);
  if (pool.size() == want) return;
  pool.shutdown();
  pool.start(want);
}

void Pool::add_quiescent_hook(std::function<void()> hook) {
  std::lock_guard<std::mutex> lk(g_hooks_mu);
  quiescent_hooks().push_back(std::move(hook));
}

int Pool::recommended_size(int reserved_threads) {
  const unsigned hw = std::thread::hardware_concurrency();
  const int avail = static_cast<int>(hw == 0 ? 1 : hw);
  return std::max(1, avail - std::max(0, reserved_threads));
}

void Pool::set_reserved_threads(int reserved) {
  const int clamped = std::max(0, reserved);
  const int previous = g_reserved_threads.exchange(clamped,
                                                   std::memory_order_relaxed);
  // The shared pool sizes itself from the reservation captured at its lazy
  // construction. A reservation arriving after that point used to be a
  // silent no-op; honor it by resizing the already-built pool (quiescent
  // contract identical to configure(), which every caller of this function
  // already satisfies).
  if (previous != clamped &&
      g_instance_created.load(std::memory_order_acquire)) {
    configure(recommended_size(clamped));
  }
}

int Pool::reserved_threads() {
  return g_reserved_threads.load(std::memory_order_relaxed);
}

std::int64_t Pool::process_threads_spawned() {
  return g_process_spawned.load(std::memory_order_relaxed);
}

void Pool::start(int threads) {
  {
    std::lock_guard<std::mutex> lk(sleep_mu_);
    stop_ = false;
  }
  workers_.clear();
  for (int i = 0; i < threads; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  // Spawn only once the vector is final: worker_loop indexes into workers_.
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    workers_[i]->thread = std::thread([this, i] { worker_loop(i); });
    spawned_.fetch_add(1, std::memory_order_relaxed);
    g_process_spawned.fetch_add(1, std::memory_order_relaxed);
  }
}

void Pool::shutdown() {
  {
    std::lock_guard<std::mutex> lk(sleep_mu_);
    stop_ = true;
  }
  sleep_cv_.notify_all();
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
  // configure()/dtor are documented quiescent-only, so a leftover task
  // means a caller bug; still, run stragglers inline rather than wedging
  // their TaskGroup forever.
  for (auto& w : workers_) {
    for (Task& t : w->tasks) run_task(t);
    w->tasks.clear();
  }
}

void Pool::submit(Task task) {
  const std::size_t n = workers_.size();
  if (n == 0) {
    // Worker-less pool (tests): the submitting thread is the executor.
    run_task(task);
    return;
  }
  if (tl_worker_pool == this) {
    Worker* w = workers_[tl_worker_index % n].get();
    std::lock_guard<std::mutex> dlk(w->mu);
    w->tasks.push_back(std::move(task));  // LIFO end for the owner
  } else {
    const std::uint64_t slot =
        rr_.fetch_add(1, std::memory_order_relaxed) % n;
    Worker* w = workers_[slot].get();
    std::lock_guard<std::mutex> dlk(w->mu);
    w->tasks.push_front(std::move(task));  // FIFO injection
  }
  // Pairing with the parked worker's recheck under sleep_mu_ (see
  // worker_loop): acquiring the mutex between enqueue and notify closes
  // the enqueue/park race.
  { std::lock_guard<std::mutex> lk(sleep_mu_); }
  sleep_cv_.notify_one();
}

bool Pool::try_run_one() {
  const std::size_t n = workers_.size();
  if (n == 0) return false;
  Task task;
  bool got = false;
  bool stolen = false;
  const bool is_worker = tl_worker_pool == this;
  const std::size_t home =
      is_worker ? tl_worker_index % n
                : rr_.load(std::memory_order_relaxed) % n;
  if (is_worker) {
    Worker* w = workers_[home].get();
    std::lock_guard<std::mutex> dlk(w->mu);
    if (!w->tasks.empty()) {
      task = std::move(w->tasks.back());
      w->tasks.pop_back();
      got = true;
    }
  }
  for (std::size_t off = 0; !got && off < n; ++off) {
    const std::size_t v = (home + off) % n;
    Worker* w = workers_[v].get();
    std::lock_guard<std::mutex> dlk(w->mu);
    if (!w->tasks.empty()) {
      task = std::move(w->tasks.front());
      w->tasks.pop_front();
      got = true;
      stolen = is_worker && v != home;
    }
  }
  if (!got) return false;
  if (stolen) steals_.fetch_add(1, std::memory_order_relaxed);
  run_task(task);
  return true;
}

void Pool::run_task(Task& task) {
  std::exception_ptr error;
  try {
    task.fn();
  } catch (...) {
    error = std::current_exception();
  }
  executed_.fetch_add(1, std::memory_order_relaxed);
  if (task.group != nullptr) task.group->finish_task(error);
}

void Pool::worker_loop(std::size_t index) {
  tl_worker_pool = this;
  tl_worker_index = index;
  for (;;) {
    if (try_run_one()) continue;
    std::unique_lock<std::mutex> lk(sleep_mu_);
    if (stop_) break;
    // Recheck under sleep_mu_: a submitter enqueues, then takes sleep_mu_,
    // then notifies — so either its task is visible to this scan or its
    // notify lands after our wait starts. The timeout is belt-and-braces.
    bool any = false;
    for (const auto& w : workers_) {
      std::lock_guard<std::mutex> dlk(w->mu);
      if (!w->tasks.empty()) {
        any = true;
        break;
      }
    }
    if (any) continue;
    sleep_cv_.wait_for(lk, std::chrono::milliseconds(50));
    if (stop_) break;
  }
  tl_worker_pool = nullptr;
}

TaskGroup::TaskGroup(Pool& pool) : pool_(pool) {}

TaskGroup::~TaskGroup() { wait_nothrow(); }

void TaskGroup::run(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++pending_;
  }
  pool_.submit(Pool::Task{std::move(fn), this});
}

void TaskGroup::finish_task(std::exception_ptr error) {
  // Notify under the lock: once pending_ hits 0 a waiter returning from
  // wait() may destroy the group, so no member may be touched after the
  // unlock — notifying inside the critical section keeps cv_ alive.
  std::lock_guard<std::mutex> lk(mu_);
  if (error && !error_) error_ = error;
  if (--pending_ == 0) cv_.notify_all();
}

void TaskGroup::wait_nothrow() {
  for (;;) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (pending_ == 0) return;
    }
    // Help: run pool tasks (any group — keeps nested groups live) while
    // ours are pending; park briefly only when the pool is drained but our
    // tasks are still in flight on other threads.
    if (pool_.try_run_one()) continue;
    std::unique_lock<std::mutex> lk(mu_);
    if (cv_.wait_for(lk, std::chrono::microseconds(500),
                     [&] { return pending_ == 0; })) {
      return;
    }
  }
}

void TaskGroup::wait() {
  wait_nothrow();
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lk(mu_);
    error = std::exchange(error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  const std::function<void(std::int64_t, std::int64_t)>& body,
                  Pool& pool) {
  if (begin >= end) return;
  grain = std::max<std::int64_t>(1, grain);
  if (end - begin <= grain) {
    body(begin, end);
    return;
  }
  TaskGroup group(pool);
  for (std::int64_t lo = begin; lo < end; lo += grain) {
    const std::int64_t hi = std::min(end, lo + grain);
    group.run([&body, lo, hi] { body(lo, hi); });
  }
  group.wait();
}

}  // namespace summagen::sgpool
