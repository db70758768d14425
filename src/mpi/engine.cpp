#include "src/mpi/engine.hpp"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdint>
#include <new>
#include <numeric>
#include <random>
#include <stdexcept>
#include <system_error>

#include "src/mpi/mpi.hpp"

// Fiber switches move the stack pointer between unrelated allocations, which
// ASan and TSan must be told about or they report false positives (and ASan's
// fake-stack bookkeeping leaks). Both interfaces ship with GCC >= 10 / Clang.
#if defined(__SANITIZE_ADDRESS__)
#define SUMMAGEN_ASAN_FIBERS 1
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__)
#define SUMMAGEN_TSAN_FIBERS 1
#include <sanitizer/tsan_interface.h>
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) && !defined(SUMMAGEN_ASAN_FIBERS)
#define SUMMAGEN_ASAN_FIBERS 1
#include <sanitizer/common_interface_defs.h>
#endif
#if __has_feature(thread_sanitizer) && !defined(SUMMAGEN_TSAN_FIBERS)
#define SUMMAGEN_TSAN_FIBERS 1
#include <sanitizer/tsan_interface.h>
#endif
#endif

namespace summagen::sgmpi::detail {

namespace {
thread_local FiberHost* g_current_host = nullptr;
thread_local std::uint64_t g_resume_seed = 0;  ///< ScopedResumeOrder

std::size_t page_size() {
  static const std::size_t ps =
      static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return ps;
}

std::size_t round_up_pages(std::size_t bytes) {
  const std::size_t ps = page_size();
  return (bytes + ps - 1) / ps * ps;
}
}  // namespace

struct FiberHost::Fiber {
  ucontext_t ctx{};
  ucontext_t return_ctx{};  ///< where the scheduler resumes when we yield
  void* mapping = nullptr;  ///< guard page + stack
  std::size_t mapping_bytes = 0;
  void* stack = nullptr;  ///< usable stack (above the guard page)
  std::size_t stack_bytes = 0;
  FiberHost* host = nullptr;
  int index = -1;
  bool started = false;
  bool done = false;
  const char* wait_site = nullptr;  ///< non-null while parked
  int task_id = -1;                 ///< noted task (note_task), -1 = none
  const char* task_kind = nullptr;
  void* fake_stack = nullptr;  ///< ASan fake-stack save slot
  void* tsan_fiber = nullptr;

  ~Fiber() {
#if defined(SUMMAGEN_TSAN_FIBERS)
    if (tsan_fiber != nullptr) __tsan_destroy_fiber(tsan_fiber);
#endif
    if (mapping != nullptr) ::munmap(mapping, mapping_bytes);
  }
};

FiberHost::FiberHost(int nfibers, std::size_t stack_bytes) {
  if (nfibers < 0) {
    throw std::invalid_argument("sgmpi: FiberHost with negative fiber count");
  }
  stack_bytes_ =
      round_up_pages(stack_bytes == 0 ? kDefaultStackBytes : stack_bytes);
  if (stack_bytes_ < 4 * page_size()) stack_bytes_ = 4 * page_size();
  fibers_.reserve(static_cast<std::size_t>(nfibers));
  errors_.resize(static_cast<std::size_t>(nfibers));
  for (int i = 0; i < nfibers; ++i) {
    auto f = std::make_unique<Fiber>();
    f->host = this;
    f->index = i;
    // One anonymous mapping per fiber: [guard page][stack]. Pages commit
    // lazily on first touch, so idle fibers cost address space, not RSS.
    f->mapping_bytes = stack_bytes_ + page_size();
    void* m = ::mmap(nullptr, f->mapping_bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
    if (m == MAP_FAILED) throw std::bad_alloc();
    f->mapping = m;
    // Overflow faults instead of corrupting. A failure (ENOMEM once the
    // process hits vm.max_map_count) would leave a stack without a guard.
    if (::mprotect(m, page_size(), PROT_NONE) != 0) {
      throw std::system_error(errno, std::generic_category(),
                              "sgmpi: FiberHost guard page mprotect");
    }
    f->stack = static_cast<std::byte*>(m) + page_size();
    f->stack_bytes = stack_bytes_;
    fibers_.push_back(std::move(f));
  }
}

FiberHost::~FiberHost() = default;

FiberHost* FiberHost::current() noexcept { return g_current_host; }

void FiberHost::trampoline() {
  // The scheduler sets g_current_host and running_ before the first switch
  // into this fiber, so no arguments need to survive makecontext's int-only
  // calling convention.
  FiberHost* host = g_current_host;
  Fiber* f = host->fibers_[static_cast<std::size_t>(host->running_)].get();
#if defined(SUMMAGEN_ASAN_FIBERS)
  // First entry on this stack: tell ASan the switch completed and learn the
  // scheduler stack's bounds for the switches back.
  __sanitizer_finish_switch_fiber(f->fake_stack, &host->host_stack_bottom_,
                                  &host->host_stack_size_);
#endif
  try {
    (*host->body_)(f->index);
  } catch (...) {
    host->errors_[static_cast<std::size_t>(f->index)] =
        std::current_exception();
  }
  f->done = true;
  ++host->finished_;
  host->switch_back(*f, /*dying=*/true);
  // Unreachable: a dead fiber is never resumed.
}

void FiberHost::switch_to(int index) {
  Fiber& f = *fibers_[static_cast<std::size_t>(index)];
  running_ = index;
  if (!f.started) {
    f.started = true;
    ::getcontext(&f.ctx);
    f.ctx.uc_stack.ss_sp = f.stack;
    f.ctx.uc_stack.ss_size = f.stack_bytes;
    f.ctx.uc_link = nullptr;
    ::makecontext(&f.ctx, &FiberHost::trampoline, 0);
  }
#if defined(SUMMAGEN_TSAN_FIBERS)
  if (f.tsan_fiber == nullptr) f.tsan_fiber = __tsan_create_fiber(0);
  __tsan_switch_to_fiber(f.tsan_fiber, 0);
#endif
#if defined(SUMMAGEN_ASAN_FIBERS)
  __sanitizer_start_switch_fiber(&host_fake_stack_, f.stack, f.stack_bytes);
#endif
  ::swapcontext(&f.return_ctx, &f.ctx);
#if defined(SUMMAGEN_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(host_fake_stack_, nullptr, nullptr);
#endif
  running_ = -1;
}

void FiberHost::switch_back(Fiber& fiber, bool dying) {
#if defined(SUMMAGEN_TSAN_FIBERS)
  __tsan_switch_to_fiber(host_tsan_fiber_, 0);
#endif
#if defined(SUMMAGEN_ASAN_FIBERS)
  // A dying fiber passes null so ASan releases its fake stack.
  __sanitizer_start_switch_fiber(dying ? nullptr : &fiber.fake_stack,
                                 host_stack_bottom_, host_stack_size_);
#endif
  ::swapcontext(&fiber.ctx, &fiber.return_ctx);
#if defined(SUMMAGEN_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(fiber.fake_stack, nullptr, nullptr);
#endif
  (void)dying;
}

void FiberHost::set_runnable(int index, bool runnable) {
  const auto i = static_cast<std::size_t>(index);
  const std::uint64_t bit = std::uint64_t{1} << (i % 64);
  if (runnable) {
    runnable_[i / 64] |= bit;
  } else {
    runnable_[i / 64] &= ~bit;
  }
}

bool FiberHost::is_runnable(int index) const {
  const auto i = static_cast<std::size_t>(index);
  return (runnable_[i / 64] >> (i % 64)) & 1u;
}

int FiberHost::next_runnable(int from) const {
  auto w = static_cast<std::size_t>(from) / 64;
  if (w >= runnable_.size()) return -1;
  std::uint64_t bits = runnable_[w] & (~std::uint64_t{0} << (from % 64));
  for (;;) {
    if (bits != 0) {
      return static_cast<int>(w * 64) + std::countr_zero(bits);
    }
    if (++w == runnable_.size()) return -1;
    bits = runnable_[w];
  }
}

void FiberHost::yield() {
  if (running_ < 0) {
    throw std::logic_error("sgmpi: FiberHost::yield outside a fiber");
  }
  set_runnable(running_, true);
  switch_back(*fibers_[static_cast<std::size_t>(running_)], /*dying=*/false);
}

void FiberHost::park(const void* key, const char* site) {
  if (running_ < 0) {
    throw std::logic_error("sgmpi: FiberHost::park outside a fiber");
  }
  if (!deadlock_.empty()) throw DeadlockError(deadlock_);
  Fiber& f = *fibers_[static_cast<std::size_t>(running_)];
  f.wait_site = site;
  waiters_[key].push_back(running_);
  switch_back(f, /*dying=*/false);
  if (!deadlock_.empty()) throw DeadlockError(deadlock_);
}

void FiberHost::wake(const void* key) {
  const auto it = waiters_.find(key);
  if (it == waiters_.end()) return;
  for (int index : it->second) {
    fibers_[static_cast<std::size_t>(index)]->wait_site = nullptr;
    set_runnable(index, true);
  }
  it->second.clear();  // keeps the capacity for the next park
}

void FiberHost::note_task(int id, const char* kind) noexcept {
  if (running_ < 0) return;
  Fiber& f = *fibers_[static_cast<std::size_t>(running_)];
  f.task_id = id;
  f.task_kind = id < 0 ? nullptr : kind;
}

void FiberHost::fail_deadlocked() {
  deadlock_ = "sgmpi: deadlock: no rank can make progress; blocked:";
  const char* sep = " ";
  for (const auto& f : fibers_) {
    if (f->done || f->wait_site == nullptr) continue;
    deadlock_ += sep;
    deadlock_ += "rank " + std::to_string(f->index) + " in " + f->wait_site;
    if (f->task_kind != nullptr) {
      deadlock_ += " (node " + std::to_string(f->task_id) + " " +
                   f->task_kind + ")";
    }
    sep = ", ";
  }
  for (auto& [key, parked] : waiters_) {
    (void)key;
    for (int index : parked) {
      fibers_[static_cast<std::size_t>(index)]->wait_site = nullptr;
      set_runnable(index, true);
    }
    parked.clear();
  }
}

void FiberHost::run(const std::function<void(int)>& body) {
  if (g_current_host != nullptr) {
    throw std::logic_error("sgmpi: nested FiberHost::run on one thread");
  }
  body_ = &body;
  g_current_host = this;
#if defined(SUMMAGEN_TSAN_FIBERS)
  host_tsan_fiber_ = __tsan_get_current_fiber();
#endif
  const int n = static_cast<int>(fibers_.size());
  runnable_.assign((fibers_.size() + 63) / 64, 0);
  for (int i = 0; i < n; ++i) set_runnable(i, true);
  if (g_resume_seed == 0) {
    run_ascending();
  } else {
    run_shuffled(g_resume_seed);
  }
  g_current_host = nullptr;
  body_ = nullptr;
}

void FiberHost::run_ascending() {
  // Each resumed fiber runs until it finishes, yields (stays runnable) or
  // parks (runnable again once woken); the sweep order is the whole
  // scheduling policy, so the interleaving — and therefore every max/sum
  // over rank arrival state — is exactly reproducible.
  const int n = static_cast<int>(fibers_.size());
  int from = 0;  // the current sweep resumes fibers at or above this index
  while (finished_ < n) {
    int i = next_runnable(from);
    if (i < 0) i = next_runnable(0);  // next sweep
    if (i < 0) {
      fail_deadlocked();
      continue;
    }
    set_runnable(i, false);
    switch_to(i);
    from = i + 1;
  }
}

void FiberHost::run_shuffled(std::uint64_t seed) {
  // The ascending sweep with the visiting order drawn afresh per sweep: a
  // fiber woken during a sweep runs in it if its position is still ahead.
  const int n = static_cast<int>(fibers_.size());
  std::vector<int> order(fibers_.size());
  std::iota(order.begin(), order.end(), 0);
  std::mt19937_64 rng(seed);
  while (finished_ < n) {
    std::shuffle(order.begin(), order.end(), rng);
    bool resumed = false;
    for (int i : order) {
      if (!is_runnable(i)) continue;
      set_runnable(i, false);
      switch_to(i);
      resumed = true;
    }
    if (!resumed) fail_deadlocked();
  }
}

ScopedResumeOrder::ScopedResumeOrder(std::uint64_t seed)
    : prev_(g_resume_seed) {
  g_resume_seed = seed;
}

ScopedResumeOrder::~ScopedResumeOrder() { g_resume_seed = prev_; }

}  // namespace summagen::sgmpi::detail

namespace summagen::sgmpi {

void note_task(int id, const char* kind) noexcept {
  if (detail::FiberHost* host = detail::FiberHost::current()) {
    host->note_task(id, kind);
  }
}

}  // namespace summagen::sgmpi
