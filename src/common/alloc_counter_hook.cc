// Replacement global operator new/delete that counts every allocation.
//
// Linked ONLY into binaries that measure allocation behavior (see
// fv_alloc_hook in src/common/CMakeLists.txt): replacing the global
// allocator is binary-wide, so it must stay out of fv_common. Under ASan the
// sanitizer runtime owns operator new; the hook compiles to nothing and
// `alloc_counter::hook_active()` stays false so measurements skip cleanly.

#include <cstdlib>
#include <new>

#include "common/alloc_counter.h"

#if defined(__SANITIZE_ADDRESS__)
#define FV_ALLOC_HOOK_DISABLED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define FV_ALLOC_HOOK_DISABLED 1
#endif
#endif

#ifndef FV_ALLOC_HOOK_DISABLED

namespace {

// Marks the hook active before main() runs.
struct HookActivator {
  HookActivator() { farview::alloc_counter::internal::g_hook_active = true; }
} g_activator;

void* CountedAlloc(std::size_t size) {
  // Safe from any thread: the counters are relaxed atomics.
  farview::alloc_counter::internal::Count(size);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  // operator new's contract requires bad_alloc; the hook must honor it.
  throw std::bad_alloc();  // fvcheck:allow=banned-api
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  farview::alloc_counter::internal::Count(size);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return operator new(size, std::nothrow);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

#endif  // FV_ALLOC_HOOK_DISABLED
