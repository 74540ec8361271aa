// Counting replacement of the global operator new/delete.
//
// Each thread bumps its own cache-line-sized slot with relaxed atomics, so
// the suite's worker threads (jobs=4) neither race nor contend on one
// counter. Readers sum the slots; a snapshot taken after the workers have
// joined is exact.

#include "scalebench/alloc_counter.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace scalebench {
namespace {

constexpr size_t kSlots = 64;

struct alignas(64) Slot {
  std::atomic<uint64_t> count{0};
  std::atomic<uint64_t> bytes{0};
};

Slot g_slots[kSlots];
std::atomic<size_t> g_next_slot{0};

void Count(size_t size) {
  thread_local Slot* slot =
      &g_slots[g_next_slot.fetch_add(1, std::memory_order_relaxed) % kSlots];
  slot->count.fetch_add(1, std::memory_order_relaxed);
  slot->bytes.fetch_add(size, std::memory_order_relaxed);
}

void* Allocate(size_t size) {
  Count(size);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* AllocateAligned(size_t size, std::align_val_t align) {
  Count(size);
  size_t a = static_cast<size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  size_t rounded = (size + a - 1) / a * a;
  void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

AllocTotals AllocSnapshot() {
  AllocTotals totals;
  for (const Slot& slot : g_slots) {
    totals.count += slot.count.load(std::memory_order_relaxed);
    totals.bytes += slot.bytes.load(std::memory_order_relaxed);
  }
  return totals;
}

}  // namespace scalebench

void* operator new(size_t size) { return scalebench::Allocate(size); }
void* operator new[](size_t size) { return scalebench::Allocate(size); }
void* operator new(size_t size, std::align_val_t align) {
  return scalebench::AllocateAligned(size, align);
}
void* operator new[](size_t size, std::align_val_t align) {
  return scalebench::AllocateAligned(size, align);
}
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  try {
    return scalebench::Allocate(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  try {
    return scalebench::Allocate(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t, std::align_val_t) noexcept { std::free(p); }
