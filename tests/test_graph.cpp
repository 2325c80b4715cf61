// Tests for the frame-graph execution layer: FrameGraph structure and
// topological ordering, Executor readiness scheduling (diamond fan-in,
// deferred gate nodes, failure drain, stop/cancel), BufferArena reuse, and
// bit-identity of the server's graph-scheduled sessions against solo
// pipelines for mixed DAS, float Tiny-VBF and quantized sessions with
// compounded frames. Carries the `graph` ctest label and runs under the
// tsan CI preset.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "beamform/compounding.hpp"
#include "beamform/das.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "graph/arena.hpp"
#include "graph/executor.hpp"
#include "graph/frame_graph.hpp"
#include "models/neural_beamformer.hpp"
#include "models/tiny_vbf.hpp"
#include "quant/quantized_tiny_vbf.hpp"
#include "runtime/frame_source.hpp"
#include "runtime/pipeline.hpp"
#include "us/plan_cache.hpp"
#include "serve/server.hpp"
#include "tensor/tensor_ops.hpp"
#include "us/phantom.hpp"

namespace tvbf::graph {
namespace {

Status done_fn() { return Status::kDone; }

// ---- FrameGraph structure --------------------------------------------------

TEST(FrameGraphTest, InsertionOrderIsTopological) {
  FrameGraph g;
  const NodeId a = g.add("a", {}, done_fn);
  const NodeId b = g.add("b", {a}, done_fn);
  const NodeId c = g.add("c", {a}, done_fn);
  const NodeId d = g.add("d", {b, c}, done_fn);
  EXPECT_EQ(g.size(), 4u);
  EXPECT_EQ((std::vector<NodeId>{a, b, c, d}),
            (std::vector<NodeId>{0, 1, 2, 3}));
  for (NodeId id = 0; id < g.size(); ++id)
    for (const NodeId dep : g.dependencies(id)) EXPECT_LT(dep, id);
}

TEST(FrameGraphTest, SuccessorsMirrorDependencies) {
  FrameGraph g;
  const NodeId a = g.add("a", {}, done_fn);
  const NodeId b = g.add("b", {a}, done_fn);
  const NodeId c = g.add("c", {a, b}, done_fn);
  EXPECT_EQ(g.successors(a), (std::vector<NodeId>{b, c}));
  EXPECT_EQ(g.successors(b), (std::vector<NodeId>{c}));
  EXPECT_TRUE(g.successors(c).empty());
  EXPECT_EQ(g.name(b), "b");
}

TEST(FrameGraphTest, UnknownDependencyThrows) {
  FrameGraph g;
  // A node may only depend on already-added nodes; self/forward references
  // (the only way to form a cycle) are rejected at add() time.
  EXPECT_THROW(g.add("a", {0}, done_fn), InvalidArgument);
  g.add("a", {}, done_fn);
  EXPECT_THROW(g.add("b", {7}, done_fn), InvalidArgument);
}

TEST(FrameGraphTest, ClearAllowsRebuildInPlace) {
  FrameGraph g;
  g.add("a", {}, done_fn);
  g.add("b", {0}, done_fn);
  g.clear();
  EXPECT_TRUE(g.empty());
  const NodeId a = g.add("a2", {}, done_fn);
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(g.size(), 1u);
}

// ---- Executor readiness scheduling -----------------------------------------

/// Launches `g` and blocks until its completion fires.
std::exception_ptr run_to_completion(Executor& ex, const FrameGraph& g) {
  std::mutex mu;
  std::condition_variable cv;
  bool fired = false;
  std::exception_ptr error;
  ex.launch(g, [&](std::exception_ptr e) {
    std::lock_guard lock(mu);
    error = e;
    fired = true;
    cv.notify_all();
  });
  std::unique_lock lock(mu);
  cv.wait(lock, [&] { return fired; });
  return error;
}

Executor::Options two_workers() {
  Executor::Options opts;
  opts.num_workers = 2;
  opts.serialize_nodes = false;
  return opts;
}

TEST(ExecutorTest, DiamondFanInWaitsForAllDependencies) {
  Executor ex(two_workers());
  std::mutex order_mu;
  std::vector<std::string> order;
  const auto record = [&](const char* name) {
    std::lock_guard lock(order_mu);
    order.emplace_back(name);
    return Status::kDone;
  };
  FrameGraph g;
  const NodeId top = g.add("top", {}, [&] { return record("top"); });
  const NodeId left = g.add("left", {top}, [&] { return record("left"); });
  const NodeId right = g.add("right", {top}, [&] { return record("right"); });
  g.add("join", {left, right}, [&] { return record("join"); });

  ASSERT_EQ(run_to_completion(ex, g), nullptr);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order.front(), "top");
  EXPECT_EQ(order.back(), "join");  // join ran after BOTH mid nodes
}

TEST(ExecutorTest, DeferredGateCompletesOnResolve) {
  Executor ex(two_workers());
  std::mutex mu;
  std::condition_variable cv;
  bool parked = false;
  std::atomic<int> after_gate{0};

  FrameGraph g;
  const NodeId gate = g.add("gate", {}, [&] {
    {
      std::lock_guard lock(mu);
      parked = true;
    }
    cv.notify_all();
    return Status::kDeferred;
  });
  g.add("after", {gate}, [&] {
    after_gate.fetch_add(1);
    return Status::kDone;
  });

  std::mutex done_mu;
  std::condition_variable done_cv;
  bool fired = false;
  std::exception_ptr error;
  ex.launch(g, [&](std::exception_ptr e) {
    std::lock_guard lock(done_mu);
    error = e;
    fired = true;
    done_cv.notify_all();
  });

  {
    // The launch must NOT complete while the gate is parked.
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return parked; });
  }
  EXPECT_EQ(after_gate.load(), 0);
  ex.resolve(g, gate);

  std::unique_lock lock(done_mu);
  done_cv.wait(lock, [&] { return fired; });
  EXPECT_EQ(error, nullptr);
  EXPECT_EQ(after_gate.load(), 1);
}

TEST(ExecutorTest, NodeFailureDrainsWithoutRunningSuccessors) {
  Executor ex(two_workers());
  std::atomic<int> downstream{0};
  FrameGraph g;
  const NodeId bad = g.add("bad", {}, []() -> Status {
    throw std::runtime_error("stage exploded");
  });
  g.add("after", {bad}, [&] {
    downstream.fetch_add(1);
    return Status::kDone;
  });

  const std::exception_ptr error = run_to_completion(ex, g);
  ASSERT_NE(error, nullptr);
  EXPECT_THROW(std::rethrow_exception(error), std::runtime_error);
  EXPECT_EQ(downstream.load(), 0);
}

TEST(ExecutorTest, StopCancelsParkedLaunch) {
  // Session-retire path: a graph parked on an unresolved gate must drain
  // with an error when the executor shuts down, not hang or leak.
  Executor ex(two_workers());
  std::mutex mu;
  std::condition_variable cv;
  bool parked = false;
  std::atomic<int> downstream{0};

  FrameGraph g;
  const NodeId gate = g.add("gate", {}, [&] {
    {
      std::lock_guard lock(mu);
      parked = true;
    }
    cv.notify_all();
    return Status::kDeferred;
  });
  g.add("after", {gate}, [&] {
    downstream.fetch_add(1);
    return Status::kDone;
  });

  std::atomic<bool> fired{false};
  std::exception_ptr error;
  ex.launch(g, [&](std::exception_ptr e) {
    error = e;
    fired.store(true);
  });
  {
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return parked; });
  }
  ex.stop();
  EXPECT_TRUE(fired.load());
  ASSERT_NE(error, nullptr);
  EXPECT_THROW(std::rethrow_exception(error), LogicError);
  EXPECT_EQ(downstream.load(), 0);
}

TEST(ExecutorTest, InterleavedGraphsAllComplete) {
  Executor ex(two_workers());
  constexpr int kGraphs = 6;
  std::atomic<int> total{0};
  std::vector<FrameGraph> graphs(kGraphs);
  for (auto& g : graphs) {
    const NodeId a = g.add("a", {}, [&] {
      total.fetch_add(1);
      return Status::kDone;
    });
    const NodeId b = g.add("b", {a}, [&] {
      total.fetch_add(1);
      return Status::kDone;
    });
    g.add("c", {a, b}, [&] {
      total.fetch_add(1);
      return Status::kDone;
    });
  }

  std::mutex mu;
  std::condition_variable cv;
  int fired = 0;
  for (auto& g : graphs) {
    ex.launch(g, [&](std::exception_ptr e) {
      EXPECT_EQ(e, nullptr);
      std::lock_guard lock(mu);
      ++fired;
      cv.notify_all();
    });
  }
  std::unique_lock lock(mu);
  cv.wait(lock, [&] { return fired == kGraphs; });
  EXPECT_EQ(total.load(), kGraphs * 3);
}

TEST(ExecutorTest, SameGraphRelaunchesFrameAfterFrame) {
  Executor ex(two_workers());
  std::atomic<int> runs{0};
  FrameGraph g;
  const NodeId a = g.add("a", {}, [&] {
    runs.fetch_add(1);
    return Status::kDone;
  });
  g.add("b", {a}, done_fn);
  for (int frame = 0; frame < 5; ++frame)
    ASSERT_EQ(run_to_completion(ex, g), nullptr);
  EXPECT_EQ(runs.load(), 5);
}

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

// ---- server frame graphs vs solo pipelines ---------------------------------

class GraphIdentityTest : public ::testing::Test {
 protected:
  void SetUp() override { us::PlanCache::instance().clear(); }
  void TearDown() override { us::PlanCache::instance().clear(); }

  /// Cine source; `angles > 1` yields compounded multi-angle frames.
  std::shared_ptr<rt::CineSource> cine(std::int64_t frames,
                                       std::int64_t angles) const {
    us::Region region{-4e-3, 4e-3, 12e-3, 24e-3};
    rt::CineParams p;
    p.num_frames = frames;
    p.frame_rate_hz = 10.0;
    p.lateral_speed_m_s = 5e-3;
    p.axial_amplitude_m = 0.4e-3;
    p.sim = clean_;
    if (angles > 1) {
      bf::CompoundingParams compounding;
      compounding.num_angles = angles;
      p.compound_angles_rad = compounding.angles();
    }
    return std::make_shared<rt::CineSource>(
        probe_, us::make_single_point(18e-3, 0.0, region), p);
  }

  /// B-mode frames of a solo Pipeline::run over cine(frames, angles).
  std::vector<Tensor> solo(std::shared_ptr<const bf::Beamformer> beamformer,
                           std::int64_t frames, std::int64_t angles) const {
    rt::PipelineConfig cfg;
    cfg.grid = grid_;
    std::vector<Tensor> out;
    rt::Pipeline pipeline(cine(frames, angles), std::move(beamformer), cfg);
    pipeline.run([&](const rt::FrameOutput& f) { out.push_back(f.db); });
    return out;
  }

  std::shared_ptr<models::TinyVbf> model() const {
    Rng rng(7);
    return std::make_shared<models::TinyVbf>(
        models::TinyVbfConfig::test(16, 32), rng);
  }

  us::Probe probe_ = us::Probe::test_probe(16);
  us::SimParams clean_ = [] {
    us::SimParams p = us::SimParams::in_silico();
    p.add_noise = false;
    p.max_depth = 26e-3;
    return p;
  }();
  us::ImagingGrid grid_ =
      us::ImagingGrid::reduced(probe_, 40, 32, 12e-3, 24e-3);
};

TEST_F(GraphIdentityTest, ServerGraphMatchesSoloPipelinesMixedSessions) {
  // Mixed DAS + float VBF + quantized sessions, compounded frames: the
  // readiness-scheduled frame graphs must reproduce each session's solo
  // pipeline exactly.
  const auto shared_model = model();
  const auto das = std::make_shared<bf::DasBeamformer>(probe_);
  const auto vbf = std::make_shared<models::TinyVbfBeamformer>(shared_model);
  const auto quantized = std::make_shared<quant::QuantizedVbfBeamformer>(
      std::make_shared<quant::QuantizedTinyVbf>(*shared_model,
                                                quant::QuantScheme::uniform(16)));
  const std::vector<std::shared_ptr<const bf::Beamformer>> beamformers = {
      das, vbf, vbf, quantized};

  serve::Server server;
  std::vector<std::vector<Tensor>> graph(beamformers.size());
  for (std::size_t s = 0; s < beamformers.size(); ++s) {
    rt::PipelineConfig pipeline;
    pipeline.grid = grid_;
    auto& into = graph[s];
    server.add_session(
        {cine(3, 2), beamformers[s], pipeline,
         [&into](const rt::FrameOutput& f) { into.push_back(f.db); }});
  }
  server.run();

  for (std::size_t s = 0; s < graph.size(); ++s) {
    const std::vector<Tensor> expected = solo(beamformers[s], 3, 2);
    ASSERT_EQ(expected.size(), 3u) << "session " << s;
    ASSERT_EQ(graph[s].size(), 3u) << "session " << s;
    for (std::size_t i = 0; i < 3; ++i)
      EXPECT_EQ(max_abs_diff(expected[i], graph[s][i]), 0.0f)
          << "session " << s << " frame " << i;
  }
}

TEST_F(GraphIdentityTest, BatchedSessionsWithUnequalFramesDrainAfterRetire) {
  // Two sessions share one batch-capable model but run UNEQUAL frame
  // counts: once the short session retires, the survivor's gate can never
  // reach the old quorum — retirement must shrink the quorum (and the idle
  // hook must flush partial groups) so the remaining frames still drain.
  const auto vbf = std::make_shared<models::TinyVbfBeamformer>(model());
  const std::vector<std::int64_t> frame_counts = {2, 5};

  std::vector<std::vector<Tensor>> expected;
  for (const std::int64_t n : frame_counts) expected.push_back(solo(vbf, n, 1));

  serve::ServerConfig cfg;
  cfg.batch_inference = true;
  serve::Server server(cfg);
  std::vector<std::vector<Tensor>> got(frame_counts.size());
  for (std::size_t s = 0; s < frame_counts.size(); ++s) {
    rt::PipelineConfig pipeline;
    pipeline.grid = grid_;
    auto& into = got[s];
    server.add_session(
        {cine(frame_counts[s], 1), vbf, pipeline,
         [&into](const rt::FrameOutput& f) { into.push_back(f.db); }});
  }
  const serve::ServerReport report = server.run();

  EXPECT_EQ(report.frames, 7);
  for (std::size_t s = 0; s < frame_counts.size(); ++s) {
    ASSERT_EQ(got[s].size(), expected[s].size()) << "session " << s;
    for (std::size_t i = 0; i < got[s].size(); ++i)
      EXPECT_EQ(max_abs_diff(got[s][i], expected[s][i]), 0.0f)
          << "session " << s << " frame " << i;
  }
}

}  // namespace
}  // namespace tvbf::graph
