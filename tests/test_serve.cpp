// Tests for the multi-session imaging server: session scheduling with
// backpressure, served output against solo pipelines (DAS, float and
// quantized Tiny-VBF, compounded frames), fault propagation, the async
// sink, fair-share pool tagging, and PlanCache single-flight / contention
// behavior. This suite carries the `serve` ctest label and runs under the
// tsan CI preset — it is the concurrency-soundness gate for the serving
// layer.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <latch>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "beamform/compounding.hpp"
#include "beamform/das.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "models/neural_beamformer.hpp"
#include "models/tiny_vbf.hpp"
#include "quant/quantized_tiny_vbf.hpp"
#include "runtime/frame_source.hpp"
#include "runtime/pipeline.hpp"
#include "us/plan_cache.hpp"
#include "serve/async_sink.hpp"
#include "serve/server.hpp"
#include "telemetry/telemetry.hpp"
#include "tensor/tensor_ops.hpp"
#include "us/phantom.hpp"
#include "us/tof.hpp"
#include "us/tof_plan.hpp"

#include "fault_injection.hpp"

namespace tvbf::serve {
namespace {

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    us::PlanCache::instance().clear();
    default_capacity_ = us::PlanCache::instance().stats().capacity_bytes;
  }
  void TearDown() override {
    us::PlanCache::instance().set_capacity(default_capacity_);
    us::PlanCache::instance().clear();
  }

  std::shared_ptr<rt::CineSource> cine(std::int64_t frames,
                                       double z = 18e-3) const {
    us::Region region{-4e-3, 4e-3, 12e-3, 24e-3};
    rt::CineParams p;
    p.num_frames = frames;
    p.frame_rate_hz = 10.0;
    p.lateral_speed_m_s = 5e-3;
    p.axial_amplitude_m = 0.4e-3;
    p.axial_period_s = 0.8;
    p.sim = clean_;
    return std::make_shared<rt::CineSource>(
        probe_, us::make_single_point(z, 0.0, region), p);
  }

  std::shared_ptr<rt::ReplaySource> replay(std::int64_t frames) const {
    return std::make_shared<rt::ReplaySource>(
        std::vector<us::Acquisition>{acq_}, frames);
  }

  std::shared_ptr<bf::DasBeamformer> das() const {
    return std::make_shared<bf::DasBeamformer>(probe_);
  }

  rt::PipelineConfig pipeline_config() const {
    rt::PipelineConfig cfg;
    cfg.grid = grid_;
    return cfg;
  }

  /// Reference frames from a solo Pipeline::run of an identical source.
  std::vector<Tensor> solo_frames(std::shared_ptr<rt::FrameSource> source,
                                  std::shared_ptr<const bf::Beamformer> bf,
                                  rt::PipelineConfig cfg) const {
    std::vector<Tensor> out;
    rt::Pipeline pipeline(std::move(source), std::move(bf), cfg);
    pipeline.run([&](const rt::FrameOutput& f) { out.push_back(f.db); });
    return out;
  }

  /// Sink capturing per-frame dB images (frames of one session arrive in
  /// order, one at a time — no locking needed per the Session contract).
  static rt::Pipeline::Sink capture(std::vector<Tensor>& into) {
    return [&into](const rt::FrameOutput& f) { into.push_back(f.db); };
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
  us::Acquisition acq_ = us::simulate_plane_wave(
      probe_, us::make_single_point(18e-3), 0.0, clean_);
  std::size_t default_capacity_ = 0;
};

// ---- server: DAS sessions --------------------------------------------------

TEST_F(ServeTest, SingleSessionMatchesSoloPipeline) {
  const std::vector<Tensor> expected =
      solo_frames(cine(3), das(), pipeline_config());

  Server server;
  std::vector<Tensor> got;
  server.add_session({cine(3), das(), pipeline_config(), capture(got)});
  const ServerReport report = server.run();

  EXPECT_EQ(report.frames, 3);
  EXPECT_EQ(report.dropped, 0);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t k = 0; k < got.size(); ++k)
    EXPECT_EQ(max_abs_diff(got[k], expected[k]), 0.0f) << "frame " << k;
}

TEST_F(ServeTest, ConcurrentSessionsBitIdenticalToSoloRuns) {
  constexpr int kSessions = 4;
  constexpr std::int64_t kFrames = 3;
  std::vector<std::vector<Tensor>> expected(kSessions);
  for (int s = 0; s < kSessions; ++s)
    expected[s] = solo_frames(cine(kFrames, 15e-3 + 2e-3 * s), das(),
                              pipeline_config());

  // Four sessions on a 3-thread pool: three workers in throughput mode
  // (sessions >= pool threads), so the ScopedSerial path runs concurrently
  // whatever the host's core count.
  set_thread_count(3);
  Server server;
  std::vector<std::vector<Tensor>> got(kSessions);
  for (int s = 0; s < kSessions; ++s)
    server.add_session({cine(kFrames, 15e-3 + 2e-3 * s), das(),
                        pipeline_config(), capture(got[s])});
  const ServerReport report = server.run();
  set_thread_count(0);

  EXPECT_EQ(report.frames, kSessions * kFrames);
  ASSERT_EQ(report.sessions.size(), static_cast<std::size_t>(kSessions));
  for (int s = 0; s < kSessions; ++s) {
    EXPECT_EQ(report.sessions[s].frames, kFrames);
    ASSERT_EQ(got[s].size(), expected[s].size()) << "session " << s;
    for (std::size_t k = 0; k < got[s].size(); ++k)
      EXPECT_EQ(max_abs_diff(got[s][k], expected[s][k]), 0.0f)
          << "session " << s << " frame " << k;
  }
}

TEST_F(ServeTest, MixedGridsAndCubeFlavors) {
  // Two sessions with different grids, one of them analytic: per-session
  // state must not bleed across sessions.
  rt::PipelineConfig rf_cfg = pipeline_config();
  rt::PipelineConfig an_cfg = pipeline_config();
  an_cfg.grid = us::ImagingGrid::reduced(probe_, 32, 24, 13e-3, 23e-3);
  an_cfg.tof.analytic = true;

  const std::vector<Tensor> expected_rf = solo_frames(replay(2), das(), rf_cfg);
  const std::vector<Tensor> expected_an = solo_frames(replay(2), das(), an_cfg);

  set_thread_count(4);  // two workers, whatever the host
  Server server;
  std::vector<Tensor> got_rf, got_an;
  server.add_session({replay(2), das(), rf_cfg, capture(got_rf)});
  server.add_session({replay(2), das(), an_cfg, capture(got_an)});
  server.run();
  set_thread_count(0);

  ASSERT_EQ(got_rf.size(), 2u);
  ASSERT_EQ(got_an.size(), 2u);
  for (int k = 0; k < 2; ++k) {
    EXPECT_EQ(max_abs_diff(got_rf[k], expected_rf[k]), 0.0f);
    EXPECT_EQ(max_abs_diff(got_an[k], expected_an[k]), 0.0f);
  }
}

TEST_F(ServeTest, BlockPolicyIsLossless) {
  ServerConfig cfg;
  cfg.max_in_flight = 1;
  cfg.backpressure = Backpressure::kBlock;
  Server server(cfg);
  std::vector<Tensor> got;
  server.add_session({replay(8), das(), pipeline_config(), capture(got)});
  const ServerReport report = server.run();
  EXPECT_EQ(report.frames, 8);
  EXPECT_EQ(report.dropped, 0);
  EXPECT_EQ(got.size(), 8u);
}

TEST_F(ServeTest, DropOldestPolicyDropsUnderSlowSink) {
  ServerConfig cfg;
  cfg.max_in_flight = 1;
  cfg.backpressure = Backpressure::kDropOldest;
  Server server(cfg);
  std::vector<std::int64_t> indices;
  server.add_session(
      {replay(24), das(), pipeline_config(), [&](const rt::FrameOutput& f) {
         std::this_thread::sleep_for(std::chrono::milliseconds(5));
         indices.push_back(f.index);
       }});
  const ServerReport report = server.run();

  // Replay is far faster than the throttled consumer, so the bounded queue
  // must overflow and drop; what does get processed stays in order.
  EXPECT_GT(report.dropped, 0);
  EXPECT_EQ(report.frames + report.dropped, 24);
  EXPECT_EQ(indices.size(), static_cast<std::size_t>(report.frames));
  for (std::size_t k = 1; k < indices.size(); ++k)
    EXPECT_LT(indices[k - 1], indices[k]);
}

TEST_F(ServeTest, SinkExceptionStopsAllSessionsAndPropagates) {
  set_thread_count(4);  // two workers, whatever the host
  Server server;
  server.add_session({replay(50), das(), pipeline_config(),
                      [](const rt::FrameOutput& f) {
                        if (f.index == 1)
                          throw std::runtime_error("sink failed");
                      }});
  server.add_session({replay(50), das(), pipeline_config(), {}});
  EXPECT_THROW(server.run(), std::runtime_error);
  set_thread_count(0);
}

TEST_F(ServeTest, SourceExceptionStopsAllSessionsUnderEitherBackpressure) {
  // One session's source throws at frame 3 while a 50-frame session runs
  // beside it: the run stops every producer and rethrows, whether the
  // other producer is blocked on a full queue or dropping frames.
  for (const Backpressure policy :
       {Backpressure::kBlock, Backpressure::kDropOldest}) {
    ServerConfig cfg;
    cfg.max_in_flight = 1;
    cfg.backpressure = policy;
    Server server(cfg);
    server.add_session({std::make_shared<test::FailingSource>(replay(8), 3),
                        das(), pipeline_config(), {}});
    server.add_session({replay(50), das(), pipeline_config(), {}});
    EXPECT_THROW(server.run(), std::runtime_error)
        << "backpressure " << static_cast<int>(policy);
  }
}

TEST_F(ServeTest, BeamformerExceptionMidCompoundedStreamPropagates) {
  // Three steered transmits per frame; the session's beamformer throws on
  // frame 2. Frames 0 and 1 are delivered, then the run stops and
  // rethrows.
  std::vector<us::Acquisition> angles;
  for (const double angle : {-0.1, 0.0, 0.1})
    angles.push_back(us::simulate_plane_wave(
        probe_, us::make_single_point(18e-3), angle, clean_));
  Server server;
  std::vector<std::int64_t> delivered;
  server.add_session(
      {std::make_shared<rt::ReplaySource>(angles, 8, 30.0, 3),
       std::make_shared<test::FailingBeamformer>(das(), 2), pipeline_config(),
       [&](const rt::FrameOutput& f) { delivered.push_back(f.index); }});
  server.add_session({replay(50), das(), pipeline_config(), {}});
  EXPECT_THROW(server.run(), std::runtime_error);
  EXPECT_EQ(delivered, (std::vector<std::int64_t>{0, 1}));
}

TEST_F(ServeTest, FailedRunLeavesNoFrameInFlight) {
  // The beamformer throws on the first frame while up to four more wait in
  // the queue: once run() rethrows, serve.in_flight is back where it was,
  // so a later run's watchdog sees no pending work that is not there.
  telemetry::Gauge& in_flight =
      telemetry::Registry::instance().gauge("serve.in_flight");
  const std::int64_t before = in_flight.value();
  ServerConfig cfg;
  cfg.max_in_flight = 4;
  Server server(cfg);
  server.add_session({replay(20),
                      std::make_shared<test::FailingBeamformer>(das(), 0),
                      pipeline_config(), {}});
  EXPECT_THROW(server.run(), std::runtime_error);
  EXPECT_EQ(in_flight.value(), before);
}

TEST_F(ServeTest, NanT0AngleMidCompoundedStreamPropagates) {
  // Three steered transmits per frame; frame 2 arrives with its middle
  // angle's t0 set to NaN, which the plan cache rejects while the frame is
  // processed. A 50-frame DAS session runs beside it. Frames 0 and 1 are
  // delivered in order, then run() stops both producers, whether the other
  // one is blocked on a full queue or dropping frames, and rethrows.
  std::vector<us::Acquisition> angles;
  for (const double angle : {-0.1, 0.0, 0.1})
    angles.push_back(us::simulate_plane_wave(
        probe_, us::make_single_point(18e-3), angle, clean_));
  for (const Backpressure policy :
       {Backpressure::kBlock, Backpressure::kDropOldest}) {
    ServerConfig cfg;
    cfg.max_in_flight = 8;  // the compounded session never drops a frame
    cfg.backpressure = policy;
    Server server(cfg);
    std::vector<std::int64_t> delivered;
    server.add_session(
        {std::make_shared<test::NanT0Source>(
             std::make_shared<rt::ReplaySource>(angles, 6, 30.0, 3), 2, 1),
         das(), pipeline_config(),
         [&](const rt::FrameOutput& f) { delivered.push_back(f.index); }});
    // Never fails: counts the producer's calls.
    const auto other = std::make_shared<test::FailingSource>(replay(50), -1);
    server.add_session({other, das(), pipeline_config(), {}});
    EXPECT_THROW(server.run(), InvalidArgument)
        << "backpressure " << static_cast<int>(policy);
    EXPECT_EQ(delivered, (std::vector<std::int64_t>{0, 1}))
        << "backpressure " << static_cast<int>(policy);
    // Both producers are joined: the other source is idle once run() is
    // out (under TSan a live producer would race this read).
    const std::int64_t calls = other->calls();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(other->calls(), calls);
  }
}

TEST_F(ServeTest, RejectsBadConfigurationAndReuse) {
  ServerConfig no_slots;
  no_slots.max_in_flight = 0;
  EXPECT_THROW(Server{no_slots}, InvalidArgument);
  Server empty;
  EXPECT_THROW(empty.run(), InvalidArgument);

  Server server;
  server.add_session({replay(1), das(), pipeline_config(), {}});
  EXPECT_THROW(
      server.add_session({nullptr, das(), pipeline_config(), {}}),
      InvalidArgument);
  server.run();
  EXPECT_THROW(server.run(), InvalidArgument);
  EXPECT_THROW(server.add_session({replay(1), das(), pipeline_config(), {}}),
               InvalidArgument);
}

TEST_F(ServeTest, IntraFrameParallelismModeMatchesSolo) {
  const std::vector<Tensor> expected =
      solo_frames(cine(2), das(), pipeline_config());
  // Two sessions on a 4-thread pool: fewer sessions than pool threads
  // picks latency mode (pool fan-out + session tags) on two workers.
  set_thread_count(4);
  Server server;
  std::vector<Tensor> got;
  server.add_session({cine(2), das(), pipeline_config(), capture(got)});
  server.add_session({cine(2, 16e-3), das(), pipeline_config(), {}});
  server.run();
  set_thread_count(0);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t k = 0; k < got.size(); ++k)
    EXPECT_EQ(max_abs_diff(got[k], expected[k]), 0.0f);
}

// ---- Tiny-VBF sessions -----------------------------------------------------

class ServeModelTest : public ServeTest {
 protected:
  ServeModelTest() {
    Rng rng(11);
    model_ = std::make_shared<models::TinyVbf>(
        models::TinyVbfConfig::test(16, 32), rng);
    beamformer_ = std::make_shared<models::TinyVbfBeamformer>(model_);
  }

  std::shared_ptr<models::TinyVbf> model_;
  std::shared_ptr<models::TinyVbfBeamformer> beamformer_;
};

TEST_F(ServeModelTest, DefaultBeamformBatchMatchesPerCubeBeamform) {
  // bf::BatchedBeamformer's default beamform_batch is beamform() once per
  // cube, bit for bit, for both Tiny-VBF adapters.
  std::vector<us::TofCube> cubes;
  for (const double z : {15e-3, 18e-3, 21e-3}) {
    const us::Acquisition a = us::simulate_plane_wave(
        probe_, us::make_single_point(z), 0.0, clean_);
    cubes.push_back(us::tof_correct(a, grid_, {}));
  }
  std::vector<const us::TofCube*> ptrs;
  for (const us::TofCube& c : cubes) ptrs.push_back(&c);

  const quant::QuantizedVbfBeamformer quantized(
      std::make_shared<quant::QuantizedTinyVbf>(*model_,
                                                quant::QuantScheme::hybrid2()));
  for (const bf::BatchedBeamformer* adapter :
       {static_cast<const bf::BatchedBeamformer*>(beamformer_.get()),
        static_cast<const bf::BatchedBeamformer*>(&quantized)}) {
    const std::vector<Tensor> batched = adapter->beamform_batch(ptrs);
    ASSERT_EQ(batched.size(), cubes.size()) << adapter->name();
    for (std::size_t i = 0; i < cubes.size(); ++i) {
      const Tensor solo = adapter->beamform(cubes[i]);
      ASSERT_EQ(batched[i].shape(), solo.shape()) << adapter->name();
      EXPECT_EQ(std::memcmp(batched[i].raw(), solo.raw(),
                            static_cast<std::size_t>(solo.size()) *
                                sizeof(float)),
                0)
          << adapter->name() << ", cube " << i;
    }
  }
}

TEST_F(ServeModelTest, BatchedSessionsBitIdenticalToSoloPipeline) {
  // Three sessions sharing one batch-capable model: each session's frames
  // equal its solo pipeline's.
  constexpr int kSessions = 3;
  constexpr std::int64_t kFrames = 3;
  std::vector<std::vector<Tensor>> expected(kSessions);
  for (int s = 0; s < kSessions; ++s)
    expected[s] = solo_frames(cine(kFrames, 15e-3 + 2e-3 * s), beamformer_,
                              pipeline_config());

  Server server;
  std::vector<std::vector<Tensor>> got(kSessions);
  for (int s = 0; s < kSessions; ++s)
    server.add_session({cine(kFrames, 15e-3 + 2e-3 * s), beamformer_,
                        pipeline_config(), capture(got[s])});
  const ServerReport report = server.run();

  EXPECT_EQ(report.frames, kSessions * kFrames);
  for (int s = 0; s < kSessions; ++s) {
    ASSERT_EQ(got[s].size(), expected[s].size()) << "session " << s;
    for (std::size_t k = 0; k < got[s].size(); ++k)
      EXPECT_EQ(max_abs_diff(got[s][k], expected[s][k]), 0.0f)
          << "session " << s << " frame " << k;
  }
}

TEST_F(ServeModelTest, CompactGridFusesEverySession) {
  // Columns on the elements: the plan reads RF directly, so every session
  // forms its frames without the cube (its tof stage reads 0), bit for bit
  // the solo pipeline.
  rt::PipelineConfig cfg = pipeline_config();
  cfg.grid = us::ImagingGrid::reduced(probe_, 40, probe_.num_elements, 12e-3,
                                      24e-3);
  ASSERT_TRUE(us::TofPlan::build_for(acq_, cfg.grid).reads_rf());
  Rng rng(12);
  const auto beamformer = std::make_shared<models::TinyVbfBeamformer>(
      std::make_shared<models::TinyVbf>(models::TinyVbfConfig::test(16, 16),
                                        rng));
  constexpr int kSessions = 2;
  std::vector<std::vector<Tensor>> expected(kSessions);
  for (int s = 0; s < kSessions; ++s)
    expected[s] = solo_frames(cine(3, 15e-3 + 3e-3 * s), beamformer, cfg);
  Server server;
  std::vector<std::vector<Tensor>> got(kSessions);
  for (int s = 0; s < kSessions; ++s)
    server.add_session(
        {cine(3, 15e-3 + 3e-3 * s), beamformer, cfg, capture(got[s])});
  const ServerReport report = server.run();
  for (int s = 0; s < kSessions; ++s) {
    ASSERT_EQ(got[s].size(), expected[s].size()) << "session " << s;
    for (std::size_t k = 0; k < got[s].size(); ++k)
      EXPECT_EQ(max_abs_diff(got[s][k], expected[s][k]), 0.0f)
          << "session " << s << ", frame " << k;
    EXPECT_EQ(report.sessions[s].stage("tof").total_s, 0.0) << "session " << s;
    EXPECT_GT(report.sessions[s].stage("beamform").total_s, 0.0)
        << "session " << s;
  }
}

TEST_F(ServeModelTest, MixedDasAndBatchedModelSessions) {
  const std::vector<Tensor> expected_das =
      solo_frames(cine(3), das(), pipeline_config());
  const std::vector<Tensor> expected_vbf =
      solo_frames(cine(3, 16e-3), beamformer_, pipeline_config());

  set_thread_count(4);  // two workers, whatever the host
  Server server;
  std::vector<Tensor> got_das, got_vbf;
  server.add_session({cine(3), das(), pipeline_config(), capture(got_das)});
  server.add_session(
      {cine(3, 16e-3), beamformer_, pipeline_config(), capture(got_vbf)});
  server.run();
  set_thread_count(0);

  ASSERT_EQ(got_das.size(), 3u);
  ASSERT_EQ(got_vbf.size(), 3u);
  for (int k = 0; k < 3; ++k) {
    EXPECT_EQ(max_abs_diff(got_das[k], expected_das[k]), 0.0f);
    EXPECT_EQ(max_abs_diff(got_vbf[k], expected_vbf[k]), 0.0f);
  }
}

// ---- telemetry sampler -----------------------------------------------------

TEST_F(ServeTest, TelemetrySamplerDeliversPeriodicAndFinalSnapshots) {
  telemetry::Registry::instance().reset();
  std::mutex mu;
  std::vector<std::int64_t> frame_counts;  // serve.frames per snapshot
  ServerConfig cfg;
  cfg.telemetry_period_s = 1e-3;
  cfg.telemetry_sink = [&](const telemetry::Snapshot& snap) {
    const auto* frames = snap.counter("serve.frames");
    std::lock_guard<std::mutex> lock(mu);
    frame_counts.push_back(frames != nullptr ? frames->value : 0);
  };
  Server server(cfg);
  const std::int64_t frames = 6;
  server.add_session({replay(frames), das(), pipeline_config(), {}});
  const ServerReport report = server.run();

  EXPECT_EQ(report.frames, frames);
  // At minimum the guaranteed final snapshot arrived, it reflects every
  // delivered frame, and the per-snapshot counts are monotone.
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_FALSE(frame_counts.empty());
  EXPECT_EQ(frame_counts.back(), frames);
  for (std::size_t i = 1; i < frame_counts.size(); ++i)
    EXPECT_LE(frame_counts[i - 1], frame_counts[i]);
}

// ---- async sink ------------------------------------------------------------

TEST_F(ServeTest, AsyncSinkWritesEveryFrameInOrder) {
  std::vector<SinkFrame> written;  // writer thread only; read after close()
  AsyncSink sink([&](const SinkFrame& f) { written.push_back(f); });

  Tensor iq({4, 3, 2}), env({4, 3});
  for (std::int64_t k = 0; k < 5; ++k) {
    Tensor db({4, 3}, static_cast<float>(-k));
    const rt::FrameOutput out{k, 0.1 * static_cast<double>(k), iq, env, db};
    sink.push(out);
  }
  sink.close();

  const AsyncSink::Stats stats = sink.stats();
  EXPECT_EQ(stats.pushed, 5);
  EXPECT_EQ(stats.written, 5);
  EXPECT_EQ(stats.dropped, 0);
  ASSERT_EQ(written.size(), 5u);
  for (std::int64_t k = 0; k < 5; ++k) {
    EXPECT_EQ(written[k].index, k);
    EXPECT_EQ(written[k].db.at(0, 0), static_cast<float>(-k));
  }
}

TEST_F(ServeTest, AsyncSinkDropsOldestWhenConfigured) {
  std::atomic<int> written{0};
  AsyncSink::Options options;
  options.queue_depth = 1;
  options.drop_when_full = true;
  AsyncSink sink(
      [&](const SinkFrame&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        ++written;
      },
      options);

  Tensor iq({2, 2, 2}), env({2, 2}), db({2, 2});
  for (std::int64_t k = 0; k < 20; ++k)
    sink.push(rt::FrameOutput{k, 0.0, iq, env, db});
  sink.close();

  const AsyncSink::Stats stats = sink.stats();
  EXPECT_EQ(stats.pushed, 20);
  EXPECT_GT(stats.dropped, 0);
  EXPECT_EQ(stats.written, written.load());
  EXPECT_EQ(stats.written + stats.dropped, stats.pushed);
}

TEST_F(ServeTest, AsyncSinkWriterErrorPropagatesOnClose) {
  AsyncSink sink([](const SinkFrame&) {
    throw std::runtime_error("writer failed");
  });
  Tensor iq({2, 2, 2}), env({2, 2}), db({2, 2});
  sink.push(rt::FrameOutput{0, 0.0, iq, env, db});
  EXPECT_THROW(sink.close(), std::runtime_error);
  sink.close();  // idempotent: the error is reported once
  EXPECT_THROW(sink.push(rt::FrameOutput{1, 0.0, iq, env, db}),
               InvalidArgument);
}

TEST_F(ServeTest, AsyncSinkFeedsFromPipeline) {
  std::vector<Tensor> written;
  const std::vector<Tensor> expected =
      solo_frames(replay(3), das(), pipeline_config());
  {
    AsyncSink sink([&](const SinkFrame& f) { written.push_back(f.db); });
    rt::Pipeline pipeline(replay(3), das(), pipeline_config());
    pipeline.run(sink.sink());
    sink.close();
  }
  ASSERT_EQ(written.size(), 3u);
  for (std::size_t k = 0; k < written.size(); ++k)
    EXPECT_EQ(max_abs_diff(written[k], expected[k]), 0.0f);
}

// ---- PlanCache under contention --------------------------------------------

TEST_F(ServeTest, PlanCacheSingleFlightCoalescesRacingMisses) {
  auto& cache = us::PlanCache::instance();
  constexpr int kThreads = 8;
  std::latch start(kThreads);
  std::vector<std::shared_ptr<const us::TofPlan>> plans(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      plans[t] = cache.get_for(acq_, grid_);
    });
  for (auto& t : threads) t.join();

  // Single-flight: every caller gets the one plan instance — the build ran
  // at most once, and every coalesced waiter is counted.
  for (int t = 1; t < kThreads; ++t)
    EXPECT_EQ(plans[t].get(), plans[0].get());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.hits + stats.misses, static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(stats.duplicate_builds, stats.misses - 1);
}

TEST_F(ServeTest, PlanCacheEvictionUnderContention) {
  auto& cache = us::PlanCache::instance();
  // Six keys, capacity for about two plans: constant eviction pressure.
  std::vector<us::ImagingGrid> grids;
  for (int k = 0; k < 6; ++k)
    grids.push_back(
        us::ImagingGrid::reduced(probe_, 36 + 2 * k, 32, 12e-3, 24e-3));
  const auto probe_plan = cache.get_for(acq_, grids[0]);
  cache.clear();
  cache.set_capacity(probe_plan->bytes() * 2 + probe_plan->bytes() / 2);

  constexpr int kThreads = 6;
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (int i = 0; i < 30; ++i) {
        const auto& grid = grids[(t * 7 + i * 3) % grids.size()];
        const auto plan = cache.get_for(acq_, grid);
        ASSERT_NE(plan, nullptr);
        ASSERT_EQ(plan->key().grid.nz, grid.nz);
      }
    });
  for (auto& t : threads) t.join();

  const auto stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes, stats.capacity_bytes);
  EXPECT_EQ(stats.hits + stats.misses, 6u * 30u + 0u);
  // Every surviving entry still gathers correctly.
  const auto plan = cache.get_for(acq_, grids[0]);
  EXPECT_GT(max_abs(plan->apply(acq_, false).real), 0.0f);
}

// ---- fair-share pool tagging & serial scope --------------------------------

TEST_F(ServeTest, ScopedSerialKeepsWorkInline) {
  const std::thread::id self = std::this_thread::get_id();
  std::atomic<bool> stayed_inline{true};
  {
    const ScopedSerial serial;
    parallel_for_each(0, 4096, [&](std::size_t) {
      if (std::this_thread::get_id() != self) stayed_inline = false;
    }, 1);
  }
  EXPECT_TRUE(stayed_inline.load());
}

TEST_F(ServeTest, TaggedConcurrentParallelForsComputeCorrectly) {
  set_thread_count(3);
  constexpr int kClients = 4;
  constexpr std::size_t kN = 20000;
  std::vector<std::int64_t> sums(kClients, 0);
  std::latch start(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      set_job_tag(static_cast<std::uint64_t>(c) + 1);
      EXPECT_EQ(job_tag(), static_cast<std::uint64_t>(c) + 1);
      start.arrive_and_wait();
      for (int round = 0; round < 5; ++round) {
        std::vector<std::int64_t> partial(kN, 0);
        parallel_for_each(0, kN, [&](std::size_t i) {
          partial[i] = static_cast<std::int64_t>(i) + c;
        }, 64);
        std::int64_t total = 0;
        for (const std::int64_t v : partial) total += v;
        sums[c] = total;
      }
    });
  for (auto& t : clients) t.join();
  set_thread_count(0);

  const auto n = static_cast<std::int64_t>(kN);
  for (int c = 0; c < kClients; ++c)
    EXPECT_EQ(sums[c], n * (n - 1) / 2 + n * c);
}

// ---- served sessions vs solo pipelines, compounded frames ------------------

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
  // server's workers must reproduce each session's solo pipeline exactly.
  const auto shared_model = model();
  const auto das = std::make_shared<bf::DasBeamformer>(probe_);
  const auto vbf = std::make_shared<models::TinyVbfBeamformer>(shared_model);
  const auto quantized = std::make_shared<quant::QuantizedVbfBeamformer>(
      std::make_shared<quant::QuantizedTinyVbf>(*shared_model,
                                                quant::QuantScheme::uniform(16)));
  const std::vector<std::shared_ptr<const bf::Beamformer>> beamformers = {
      das, vbf, vbf, quantized};

  Server server;
  std::vector<std::vector<Tensor>> served(beamformers.size());
  for (std::size_t s = 0; s < beamformers.size(); ++s) {
    rt::PipelineConfig pipeline;
    pipeline.grid = grid_;
    auto& into = served[s];
    server.add_session(
        {cine(3, 2), beamformers[s], pipeline,
         [&into](const rt::FrameOutput& f) { into.push_back(f.db); }});
  }
  server.run();

  for (std::size_t s = 0; s < served.size(); ++s) {
    const std::vector<Tensor> expected = solo(beamformers[s], 3, 2);
    ASSERT_EQ(expected.size(), 3u) << "session " << s;
    ASSERT_EQ(served[s].size(), 3u) << "session " << s;
    for (std::size_t i = 0; i < 3; ++i)
      EXPECT_EQ(max_abs_diff(expected[i], served[s][i]), 0.0f)
          << "session " << s << " frame " << i;
  }
}

TEST_F(GraphIdentityTest, SessionAngleCountChangesWithinStream) {
  // One session whose frames carry 3, then 1, then 3 acquisitions: each
  // served frame must be its one-shot image, bit for bit.
  rt::PipelineConfig cfg;
  cfg.grid = grid_;
  const std::vector<std::shared_ptr<const bf::Beamformer>> beamformers = {
      std::make_shared<bf::DasBeamformer>(probe_),
      std::make_shared<models::TinyVbfBeamformer>(model())};
  for (const auto& beamformer : beamformers) {
    std::vector<Tensor> got;
    Server server;
    server.add_session(
        {std::make_shared<test::SingleAngleFrameSource>(cine(3, 3), 1),
         beamformer, cfg,
         [&got](const rt::FrameOutput& f) { got.push_back(f.db); }});
    server.run();
    ASSERT_EQ(got.size(), 3u) << beamformer->name();

    test::SingleAngleFrameSource source(cine(3, 3), 1);
    rt::Frame frame;
    for (std::size_t k = 0; source.next(frame); ++k) {
      const Tensor want = test::one_shot_db(frame, cfg, *beamformer);
      ASSERT_EQ(got[k].shape(), want.shape());
      EXPECT_EQ(std::memcmp(got[k].raw(), want.raw(),
                            static_cast<std::size_t>(want.size()) *
                                sizeof(float)),
                0)
          << beamformer->name() << ", frame " << k << ", "
          << frame.num_acquisitions() << " angle(s)";
    }
  }
}

TEST_F(GraphIdentityTest, BatchedSessionsWithUnequalFramesDrainAfterRetire) {
  // Two sessions share one batch-capable model but run UNEQUAL frame
  // counts: once the short session retires, the survivor's remaining
  // frames must still drain.
  const auto vbf = std::make_shared<models::TinyVbfBeamformer>(model());
  const std::vector<std::int64_t> frame_counts = {2, 5};

  std::vector<std::vector<Tensor>> expected;
  for (const std::int64_t n : frame_counts) expected.push_back(solo(vbf, n, 1));

  Server server;
  std::vector<std::vector<Tensor>> got(frame_counts.size());
  for (std::size_t s = 0; s < frame_counts.size(); ++s) {
    rt::PipelineConfig pipeline;
    pipeline.grid = grid_;
    auto& into = got[s];
    server.add_session(
        {cine(frame_counts[s], 1), vbf, pipeline,
         [&into](const rt::FrameOutput& f) { into.push_back(f.db); }});
  }
  const ServerReport report = server.run();

  EXPECT_EQ(report.frames, 7);
  for (std::size_t s = 0; s < frame_counts.size(); ++s) {
    ASSERT_EQ(got[s].size(), expected[s].size()) << "session " << s;
    for (std::size_t i = 0; i < got[s].size(); ++i)
      EXPECT_EQ(max_abs_diff(got[s][i], expected[s][i]), 0.0f)
          << "session " << s << " frame " << i;
  }
}

}  // namespace
}  // namespace tvbf::serve
