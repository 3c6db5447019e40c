#ifndef FARVIEW_COMMON_ALLOC_COUNTER_H_
#define FARVIEW_COMMON_ALLOC_COUNTER_H_

#include <cstdint>

namespace farview {

/// Process-wide heap-allocation counters, fed by the replacement global
/// `operator new` in alloc_counter_hook.cc. The hook is linked only into
/// binaries that opt in (the allocation-gated tests and fvbench);
/// everywhere else the counters read zero and `hook_active()` is false.
///
/// This is how tests/simcore_counts_test.cc gates allocations per workload
/// and how the zero-allocation contract of the event core is pinned
/// (DESIGN.md §8):
/// counting at the allocator boundary catches every hidden allocation —
/// std::function fallbacks, container growth, shared_ptr control blocks —
/// not just the ones we remember to instrument.
namespace alloc_counter {

/// Total successful `operator new` calls since process start.
uint64_t allocations();

/// Total bytes requested from `operator new` since process start.
uint64_t bytes();

/// True when the counting hook is linked into this binary (false under
/// sanitizers, whose own allocator replacement takes precedence).
bool hook_active();

namespace internal {
/// Counts one `operator new` of `size` bytes. Called by the hook from
/// whichever thread allocates; defined in alloc_counter.cc so that binaries
/// without the hook still link.
void Count(uint64_t size);
/// Set by the hook before main() runs.
extern bool g_hook_active;
}  // namespace internal

}  // namespace alloc_counter
}  // namespace farview

#endif  // FARVIEW_COMMON_ALLOC_COUNTER_H_
