#include "graph/arena.hpp"

#include <utility>

#include "telemetry/telemetry.hpp"

namespace tvbf::graph {

namespace {

std::size_t bytes_of(const Tensor& t) {
  return static_cast<std::size_t>(t.size()) * sizeof(float);
}

// Process-wide mirrors of the per-arena Stats, aggregated across every
// BufferArena instance (each stream's frame processor has its own arena).
struct ArenaInstruments {
  telemetry::Counter& reuses =
      telemetry::Registry::instance().counter("arena.reuses");
  telemetry::Counter& allocations =
      telemetry::Registry::instance().counter("arena.allocations");
  telemetry::Counter& evictions =
      telemetry::Registry::instance().counter("arena.evictions");
};

ArenaInstruments& arena_instruments() {
  static ArenaInstruments instruments;
  return instruments;
}

}  // namespace

Tensor BufferArena::acquire(const Shape& shape) {
  {
    std::lock_guard lock(mu_);
    for (auto it = free_.begin(); it != free_.end(); ++it) {
      if (same_shape(it->shape(), shape)) {
        Tensor t = std::move(*it);
        free_.erase(it);
        free_bytes_ -= bytes_of(t);
        ++reuses_;
        ++outstanding_;
        arena_instruments().reuses.add();
        return t;
      }
    }
    ++allocations_;
    ++outstanding_;
    arena_instruments().allocations.add();
  }
  // Allocate outside the lock; zero-init cost is paid only on first use of
  // a shape (steady-state acquires hit the free list above).
  return Tensor(shape);
}

void BufferArena::release(Tensor&& t) {
  if (t.size() == 0) return;
  std::lock_guard lock(mu_);
  if (outstanding_ > 0) --outstanding_;
  free_bytes_ += bytes_of(t);
  free_.push_back(std::move(t));
  // Evict least-recently-released first. A buffer larger than the whole
  // budget flushes the list and is then dropped itself — nothing is pooled
  // beyond the cap.
  while (free_bytes_ > budget_bytes_ && !free_.empty()) {
    free_bytes_ -= bytes_of(free_.front());
    free_.erase(free_.begin());
    ++evictions_;
    arena_instruments().evictions.add();
  }
}

void BufferArena::set_budget_bytes(std::size_t budget) {
  std::lock_guard lock(mu_);
  budget_bytes_ = budget;
}

BufferArena::Stats BufferArena::stats() const {
  std::lock_guard lock(mu_);
  Stats s;
  s.allocations = allocations_;
  s.reuses = reuses_;
  s.outstanding = outstanding_;
  s.free_buffers = free_.size();
  s.free_bytes = free_bytes_;
  s.evictions = evictions_;
  s.budget_bytes = budget_bytes_;
  return s;
}

void BufferArena::clear() {
  std::lock_guard lock(mu_);
  free_.clear();
  free_bytes_ = 0;
}

}  // namespace tvbf::graph
