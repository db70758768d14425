#include "src/util/accounting.hpp"

#include <atomic>

namespace summagen::util {
namespace {

std::atomic<std::int64_t> g_allocs{0};
std::atomic<std::int64_t> g_alloc_bytes{0};
std::atomic<std::int64_t> g_copy_calls{0};
std::atomic<std::int64_t> g_copy_bytes{0};
std::atomic<std::int64_t> g_pool_acquires{0};
std::atomic<std::int64_t> g_pool_hits{0};
std::atomic<std::int64_t> g_pool_resident{0};
std::atomic<std::int64_t> g_pool_peak_resident{0};
std::atomic<std::int64_t> g_pack_lookups{0};
std::atomic<std::int64_t> g_pack_hits{0};
std::atomic<std::int64_t> g_sched_lookups{0};
std::atomic<std::int64_t> g_sched_hits{0};
std::atomic<std::int64_t> g_fastmm_leases{0};
std::atomic<std::int64_t> g_fastmm_bytes{0};

constexpr auto kRelaxed = std::memory_order_relaxed;

}  // namespace

DataPlaneStats DataPlaneStats::since(const DataPlaneStats& base) const {
  DataPlaneStats d = *this;
  d.allocs -= base.allocs;
  d.alloc_bytes -= base.alloc_bytes;
  d.copy_calls -= base.copy_calls;
  d.copy_bytes -= base.copy_bytes;
  d.pool_acquires -= base.pool_acquires;
  d.pool_hits -= base.pool_hits;
  d.pack_lookups -= base.pack_lookups;
  d.pack_hits -= base.pack_hits;
  d.sched_lookups -= base.sched_lookups;
  d.sched_hits -= base.sched_hits;
  d.fastmm_leases -= base.fastmm_leases;
  d.fastmm_bytes -= base.fastmm_bytes;
  return d;
}

DataPlaneStats data_plane_stats() {
  DataPlaneStats s;
  s.allocs = g_allocs.load(kRelaxed);
  s.alloc_bytes = g_alloc_bytes.load(kRelaxed);
  s.copy_calls = g_copy_calls.load(kRelaxed);
  s.copy_bytes = g_copy_bytes.load(kRelaxed);
  s.pool_acquires = g_pool_acquires.load(kRelaxed);
  s.pool_hits = g_pool_hits.load(kRelaxed);
  s.pool_resident_bytes = g_pool_resident.load(kRelaxed);
  s.pool_peak_resident_bytes = g_pool_peak_resident.load(kRelaxed);
  s.pack_lookups = g_pack_lookups.load(kRelaxed);
  s.pack_hits = g_pack_hits.load(kRelaxed);
  s.sched_lookups = g_sched_lookups.load(kRelaxed);
  s.sched_hits = g_sched_hits.load(kRelaxed);
  s.fastmm_leases = g_fastmm_leases.load(kRelaxed);
  s.fastmm_bytes = g_fastmm_bytes.load(kRelaxed);
  return s;
}

void record_alloc(std::int64_t bytes) {
  if (bytes <= 0) return;
  g_allocs.fetch_add(1, kRelaxed);
  g_alloc_bytes.fetch_add(bytes, kRelaxed);
}

void record_copy(std::int64_t bytes) {
  g_copy_calls.fetch_add(1, kRelaxed);
  g_copy_bytes.fetch_add(bytes, kRelaxed);
}

void record_pool_acquire(bool hit) {
  g_pool_acquires.fetch_add(1, kRelaxed);
  if (hit) g_pool_hits.fetch_add(1, kRelaxed);
}

void record_pack_lookup(bool hit) {
  g_pack_lookups.fetch_add(1, kRelaxed);
  if (hit) g_pack_hits.fetch_add(1, kRelaxed);
}

void record_sched_lookup(bool hit) {
  g_sched_lookups.fetch_add(1, kRelaxed);
  if (hit) g_sched_hits.fetch_add(1, kRelaxed);
}

void record_fastmm_lease(std::int64_t bytes) {
  if (bytes <= 0) return;
  g_fastmm_leases.fetch_add(1, kRelaxed);
  g_fastmm_bytes.fetch_add(bytes, kRelaxed);
}

void record_pool_resident_delta(std::int64_t delta) {
  const std::int64_t now = g_pool_resident.fetch_add(delta, kRelaxed) + delta;
  // Racy max update is fine for a statistic: a lost update can only
  // under-report the peak by one in-flight allocation.
  std::int64_t peak = g_pool_peak_resident.load(kRelaxed);
  while (now > peak &&
         !g_pool_peak_resident.compare_exchange_weak(peak, now, kRelaxed)) {
  }
}

}  // namespace summagen::util
