#include "common/alloc_counter.h"

// Every thread that allocates bumps the counters, ParallelEngine workers
// included; relaxed atomics keep the totals exact and carry no
// event-ordering role, so this is outside the src/sim/parallel threading
// confinement by design.
#include <atomic>  // fvcheck:allow=banned-api

namespace farview::alloc_counter {

namespace {
// Host-side allocation accounting, read only between runs; never read by
// event-domain code.
// fvcheck:allow=banned-api,domain-confinement
std::atomic<uint64_t> g_allocations{0};
// fvcheck:allow=banned-api,domain-confinement
std::atomic<uint64_t> g_bytes{0};
}  // namespace

namespace internal {
bool g_hook_active = false;  // fvcheck:allow=domain-confinement

void Count(uint64_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
}
}  // namespace internal

uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}
uint64_t bytes() { return g_bytes.load(std::memory_order_relaxed); }
bool hook_active() { return internal::g_hook_active; }

}  // namespace farview::alloc_counter
