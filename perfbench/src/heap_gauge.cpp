#include "heap_gauge.hpp"

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench::heap {
namespace {

std::atomic<bool> gOn{false};
std::atomic<std::int64_t> gLive{0};
std::atomic<std::int64_t> gPeak{0};

void onAlloc(std::int64_t n) {
  const std::int64_t now = gLive.fetch_add(n, std::memory_order_relaxed) + n;
  std::int64_t peak = gPeak.load(std::memory_order_relaxed);
  while (now > peak &&
         !gPeak.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
  }
}

}  // namespace

void start() {
  gLive.store(0, std::memory_order_relaxed);
  gPeak.store(0, std::memory_order_relaxed);
  gOn.store(true, std::memory_order_seq_cst);
}

std::int64_t stop() {
  gOn.store(false, std::memory_order_seq_cst);
  return gPeak.load(std::memory_order_relaxed);
}

}  // namespace perfbench::heap

namespace {

void* meteredAlloc(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  if (perfbench::heap::gOn.load(std::memory_order_relaxed)) {
    perfbench::heap::onAlloc(static_cast<std::int64_t>(malloc_usable_size(p)));
  }
  return p;
}

void meteredFree(void* p) noexcept {
  if (p == nullptr) return;
  if (perfbench::heap::gOn.load(std::memory_order_relaxed)) {
    perfbench::heap::gLive.fetch_sub(
        static_cast<std::int64_t>(malloc_usable_size(p)),
        std::memory_order_relaxed);
  }
  std::free(p);
}

}  // namespace

// Over-aligned allocations keep the default implementation: the simulator
// declares no over-aligned types, so nothing it allocates bypasses the gauge.
void* operator new(std::size_t n) { return meteredAlloc(n); }
void* operator new[](std::size_t n) { return meteredAlloc(n); }
void operator delete(void* p) noexcept { meteredFree(p); }
void operator delete[](void* p) noexcept { meteredFree(p); }
void operator delete(void* p, std::size_t) noexcept { meteredFree(p); }
void operator delete[](void* p, std::size_t) noexcept { meteredFree(p); }
// The nothrow forms must pair with the same allocator (std::stable_sort's
// temporary buffer allocates through them and frees with plain delete).
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return meteredAlloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t& tag) noexcept {
  return operator new(n, tag);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { meteredFree(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { meteredFree(p); }
