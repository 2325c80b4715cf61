// Reusable per-frame buffer arena.
//
// Streaming frames need short-lived tensors whose shapes repeat every frame
// (one ToF cube plane per steering angle, scratch IQ planes). Allocating
// them per frame churns the allocator and fragments under multi-session
// load; the arena recycles released buffers by shape instead. Contents of a
// reacquired buffer are stale — every acquirer must fully overwrite it.
//
// The free list is capped: pooled bytes beyond the budget are evicted
// least-recently-released first, so a transient shape burst (a stream
// briefly switching to a larger angle count) cannot pin its peak working
// set for the rest of the process.
#pragma once

#include <cstddef>
#include <mutex>
#include <vector>

#include "tensor/tensor.hpp"

namespace tvbf::graph {

/// Thread-safe shape-keyed tensor recycler with an LRU-evicted byte budget.
class BufferArena {
 public:
  /// Default free-list budget: generous against paper-scale cubes (a
  /// 512x256x64-float plane is 32 MiB) while bounding multi-session growth.
  static constexpr std::size_t kDefaultBudgetBytes =
      static_cast<std::size_t>(256) << 20;

  struct Stats {
    std::size_t allocations = 0;  // acquires that had to allocate
    std::size_t reuses = 0;       // acquires served from the free list
    std::size_t outstanding = 0;  // acquired and not yet released
    std::size_t free_buffers = 0; // released and awaiting reuse
    std::size_t free_bytes = 0;   // bytes held by the free list
    std::size_t evictions = 0;    // buffers dropped to honor the budget
    std::size_t budget_bytes = 0; // current free-list cap
  };

  /// Returns a tensor of exactly `shape`: a recycled buffer when one of the
  /// same shape is free (contents stale!), otherwise a fresh allocation.
  Tensor acquire(const Shape& shape);

  /// Returns a buffer to the free list for reuse; the least-recently
  /// released buffers are evicted while the list exceeds the byte budget.
  /// Empty tensors are dropped (nothing to recycle).
  void release(Tensor&& t);

  /// Caps the free list (outstanding buffers are never evicted — only
  /// released ones count). Takes effect on the next release.
  void set_budget_bytes(std::size_t budget);

  Stats stats() const;

  /// Frees every pooled buffer (outstanding count is kept).
  void clear();

 private:
  mutable std::mutex mu_;
  std::vector<Tensor> free_;  ///< release order: front = least recent
  std::size_t free_bytes_ = 0;
  std::size_t budget_bytes_ = kDefaultBudgetBytes;
  std::size_t allocations_ = 0;
  std::size_t reuses_ = 0;
  std::size_t outstanding_ = 0;
  std::size_t evictions_ = 0;
};

}  // namespace tvbf::graph
