// Replacement global operator new/delete for hsrbench. Like the ones
// HSRTCP_ALLOC_PROBE_DEFINE_GLOBALS installs, they bump util::AllocProbe's
// counters, so AllocProbe::Scope works unchanged; they also keep the live
// and peak heap bytes that heap_probe.h reports.
#include "heap_probe.h"

#include <malloc.h>

#include <cstdlib>
#include <new>

#include "util/alloc_probe.h"

namespace perfbench {
namespace {

thread_local std::uint64_t live_bytes = 0;
thread_local std::uint64_t peak_bytes = 0;

void* counted(void* p, std::size_t size) {
  if (p == nullptr) throw std::bad_alloc();
  ++hsr::util::AllocProbe::news;
  hsr::util::AllocProbe::bytes_requested += size;
  live_bytes += malloc_usable_size(p);
  if (live_bytes > peak_bytes) peak_bytes = live_bytes;
  return p;
}

void* alloc(std::size_t size) { return counted(std::malloc(size == 0 ? 1 : size), size); }

void* aligned(std::size_t size, std::size_t alignment) {
  // aligned_alloc requires size to be a multiple of the alignment.
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  return counted(std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded), size);
}

void release(void* p) noexcept {
  if (p == nullptr) return;
  ++hsr::util::AllocProbe::deletes;
  live_bytes -= malloc_usable_size(p);
  std::free(p);
}

}  // namespace

std::uint64_t peak_heap_bytes() { return peak_bytes; }

}  // namespace perfbench

void* operator new(std::size_t size) { return perfbench::alloc(size); }
void* operator new[](std::size_t size) { return perfbench::alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return perfbench::aligned(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return perfbench::aligned(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { perfbench::release(p); }
void operator delete[](void* p) noexcept { perfbench::release(p); }
void operator delete(void* p, std::size_t) noexcept { perfbench::release(p); }
void operator delete[](void* p, std::size_t) noexcept { perfbench::release(p); }
void operator delete(void* p, std::align_val_t) noexcept { perfbench::release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { perfbench::release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  perfbench::release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  perfbench::release(p);
}
