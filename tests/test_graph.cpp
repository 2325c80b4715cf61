// Tests for the per-frame buffer arena (graph::BufferArena): reuse by
// shape, the free-list budget and its eviction order. Carries the `graph`
// ctest label and runs under the tsan CI preset.
#include <gtest/gtest.h>

#include <utility>

#include "graph/arena.hpp"

namespace tvbf::graph {
namespace {

// ---- BufferArena -----------------------------------------------------------

TEST(ArenaTest, ReusesReleasedBufferOfSameShape) {
  BufferArena arena;
  Tensor a = arena.acquire({4, 8});
  EXPECT_EQ(a.shape(), (Shape{4, 8}));
  arena.release(std::move(a));
  EXPECT_EQ(arena.stats().free_buffers, 1u);

  const Tensor b = arena.acquire({4, 8});
  EXPECT_EQ(b.shape(), (Shape{4, 8}));
  const auto stats = arena.stats();
  EXPECT_EQ(stats.allocations, 1u);
  EXPECT_EQ(stats.reuses, 1u);
  EXPECT_EQ(stats.outstanding, 1u);
  EXPECT_EQ(stats.free_buffers, 0u);
}

TEST(ArenaTest, DifferentShapeAllocatesFresh) {
  BufferArena arena;
  arena.release(arena.acquire({4, 8}));
  const Tensor b = arena.acquire({8, 4});  // same numel, different shape
  EXPECT_EQ(b.shape(), (Shape{8, 4}));
  EXPECT_EQ(arena.stats().allocations, 2u);
  EXPECT_EQ(arena.stats().reuses, 0u);
}

TEST(ArenaTest, ClearDropsFreeListKeepsOutstanding) {
  BufferArena arena;
  const Tensor held = arena.acquire({2, 2});
  arena.release(arena.acquire({2, 2}));
  ASSERT_EQ(arena.stats().free_buffers, 1u);
  arena.clear();
  EXPECT_EQ(arena.stats().free_buffers, 0u);
  EXPECT_EQ(arena.stats().outstanding, 1u);
}

TEST(ArenaTest, BudgetEvictsLeastRecentlyReleased) {
  BufferArena arena;
  // Room for exactly two 64-float buffers.
  arena.set_budget_bytes(2 * 64 * sizeof(float));
  Tensor a = arena.acquire({64});
  Tensor b = arena.acquire({64});
  Tensor c = arena.acquire({64});
  arena.release(std::move(a));
  arena.release(std::move(b));
  EXPECT_EQ(arena.stats().free_bytes, 2 * 64 * sizeof(float));
  EXPECT_EQ(arena.stats().evictions, 0u);

  // The third release pushes over budget: the oldest buffer (a) goes.
  arena.release(std::move(c));
  const auto stats = arena.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.free_buffers, 2u);
  EXPECT_EQ(stats.free_bytes, 2 * 64 * sizeof(float));
  EXPECT_EQ(stats.budget_bytes, 2 * 64 * sizeof(float));
  // The survivors still serve acquires.
  const Tensor again = arena.acquire({64});
  EXPECT_EQ(arena.stats().reuses, 1u);
}

TEST(ArenaTest, OversizedBufferIsDroppedNotPooled) {
  BufferArena arena;
  arena.set_budget_bytes(16);  // smaller than any real buffer
  arena.release(arena.acquire({1024}));
  const auto stats = arena.stats();
  EXPECT_EQ(stats.free_buffers, 0u);
  EXPECT_EQ(stats.free_bytes, 0u);
  EXPECT_EQ(stats.evictions, 1u);
}

TEST(ArenaTest, DefaultBudgetLeavesSteadyStateReuseUntouched) {
  // The regression guard for the streaming hot path: at the default budget
  // a frame-sized working set recycles forever without a single eviction.
  BufferArena arena;
  for (int frame = 0; frame < 16; ++frame) {
    Tensor slot_a = arena.acquire({96, 32, 16});
    Tensor slot_b = arena.acquire({96, 32, 16});
    arena.release(std::move(slot_a));
    arena.release(std::move(slot_b));
  }
  const auto stats = arena.stats();
  EXPECT_EQ(stats.allocations, 2u);
  EXPECT_EQ(stats.reuses, 30u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.budget_bytes, BufferArena::kDefaultBudgetBytes);
}

}  // namespace
}  // namespace tvbf::graph
