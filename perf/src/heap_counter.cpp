#include "heap_counter.hpp"

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::ptrdiff_t> g_live{0};
std::atomic<std::ptrdiff_t> g_peak{0};

void* counted(void* p) noexcept {
  if (p == nullptr) return p;
  const auto n = static_cast<std::ptrdiff_t>(malloc_usable_size(p));
  const std::ptrdiff_t now = g_live.fetch_add(n, std::memory_order_relaxed) + n;
  std::ptrdiff_t peak = g_peak.load(std::memory_order_relaxed);
  while (now > peak && !g_peak.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
  return p;
}

void release(void* p) noexcept {
  if (p == nullptr) return;
  g_live.fetch_sub(static_cast<std::ptrdiff_t>(malloc_usable_size(p)),
                   std::memory_order_relaxed);
  std::free(p);
}

void* try_allocate(std::size_t n) noexcept {
  return counted(std::malloc(n == 0 ? 1 : n));
}

void* try_allocate(std::size_t n, std::align_val_t align) noexcept {
  std::size_t a = static_cast<std::size_t>(align);
  if (a < sizeof(void*)) a = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, a, n == 0 ? 1 : n) != 0) return nullptr;
  return counted(p);
}

template <class... Align>
void* allocate(std::size_t n, Align... align) {
  void* p = try_allocate(n, align...);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

namespace perf::heap {

std::size_t live_bytes() {
  return static_cast<std::size_t>(g_live.load(std::memory_order_relaxed));
}

std::size_t peak_bytes() {
  return static_cast<std::size_t>(g_peak.load(std::memory_order_relaxed));
}

void reset_peak() {
  g_peak.store(g_live.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
}

}  // namespace perf::heap

void* operator new(std::size_t n) { return allocate(n); }
void* operator new[](std::size_t n) { return allocate(n); }
void* operator new(std::size_t n, std::align_val_t a) { return allocate(n, a); }
void* operator new[](std::size_t n, std::align_val_t a) {
  return allocate(n, a);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return try_allocate(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return try_allocate(n);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return try_allocate(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return try_allocate(n, a);
}

void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  release(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  release(p);
}
