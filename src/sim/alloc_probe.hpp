// Process-wide heap-allocation counters for no-allocation contracts.
//
// Several hot paths promise "zero per-flow heap allocations at steady state"
// (EventQueue slot pool, Router forwarding, client::FlowEngine ticking). The
// probe makes that promise testable: linking this translation unit replaces
// the global operator new/delete with counting wrappers, and alloc_count()
// reads the number of allocations performed so far. A test snapshots the
// counter around a warmed-up work window and asserts the delta is zero.
//
// The replacements live in the same TU as alloc_count(), in the
// son_alloc_probe archive, so only binaries that link that archive and
// reference the probe pull in the counting allocator; every other target
// keeps the toolchain default. Counting is one relaxed atomic
// increment per allocation and composes with ASan/TSan (the wrappers defer
// to malloc/free, which the sanitizers intercept as usual).
#pragma once

#include <cstdint>

namespace son::sim {

/// Heap allocations (operator new, scalar/array/nothrow/aligned) observed
/// process-wide since startup. Monotonic; only meaningful as a delta.
[[nodiscard]] std::uint64_t alloc_count();

/// Matching deallocation count (operator delete variants).
[[nodiscard]] std::uint64_t dealloc_count();

}  // namespace son::sim
