// Peak live heap of the process, from the counting allocator that hsrbench
// installs (heap_probe.cpp).
//
// Peak RSS follows how the allocator happens to fragment: in `campaign` it
// moved by ±7 % with the length of the work-directory path alone. The peak
// of live bytes — the sum of malloc_usable_size over everything operator
// new handed out and operator delete has not taken back — depends only on
// what the program allocates, so it is the gated memory metric.
#pragma once

#include <cstdint>

namespace perfbench {

// The most bytes ever live at once. Counted on the allocating thread; the
// workloads allocate and free on one thread.
std::uint64_t peak_heap_bytes();

}  // namespace perfbench
