// Tests for the streaming imaging runtime: cached ToF plans, the plan
// cache, frame sources and the source -> ToF -> beamform -> log pipeline.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <numbers>
#include <stdexcept>
#include <vector>

#include "beamform/das.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "dsp/hilbert.hpp"
#include "runtime/frame_source.hpp"
#include "runtime/pipeline.hpp"
#include "tensor/tensor_ops.hpp"
#include "us/phantom.hpp"
#include "us/plan_cache.hpp"
#include "us/tof.hpp"
#include "us/tof_plan.hpp"

namespace tvbf::rt {
namespace {

using us::ChannelWorkspace;
using us::PlanCache;
using us::TofPlan;

class TofPlanTest : public ::testing::Test {
 protected:
  us::Probe probe_ = us::Probe::test_probe(16);
  us::SimParams clean_ = [] {
    us::SimParams p = us::SimParams::in_silico();
    p.add_noise = false;
    p.max_depth = 30e-3;
    return p;
  }();
  us::ImagingGrid grid_ = us::ImagingGrid::reduced(probe_, 96, 32, 10e-3,
                                                   28e-3);
  us::Acquisition acq_ = us::simulate_plane_wave(
      probe_, us::make_single_point(20e-3), 0.0, clean_);
};

TEST_F(TofPlanTest, ApplyIdenticalToTofCorrectRf) {
  const TofPlan plan = TofPlan::build_for(acq_, grid_);
  const us::TofCube via_plan = plan.apply(acq_, /*analytic=*/false);
  const us::TofCube one_shot = us::tof_correct(acq_, grid_, {});
  ASSERT_EQ(via_plan.real.shape(), one_shot.real.shape());
  EXPECT_EQ(max_abs_diff(via_plan.real, one_shot.real), 0.0f);
  EXPECT_FALSE(via_plan.is_analytic());
  EXPECT_GT(max_abs(via_plan.real), 0.0f);
}

TEST_F(TofPlanTest, ApplyIdenticalToTofCorrectAnalytic) {
  const TofPlan plan = TofPlan::build_for(acq_, grid_);
  const us::TofCube via_plan = plan.apply(acq_, /*analytic=*/true);
  const us::TofCube one_shot =
      us::tof_correct(acq_, grid_, {.analytic = true});
  ASSERT_TRUE(via_plan.is_analytic());
  EXPECT_EQ(max_abs_diff(via_plan.real, one_shot.real), 0.0f);
  EXPECT_EQ(max_abs_diff(via_plan.imag, one_shot.imag), 0.0f);
}

TEST_F(TofPlanTest, ApplyIdenticalToTofCorrectCubic) {
  const TofPlan plan = TofPlan::build_for(acq_, grid_, dsp::Interp::kCubic);
  const us::TofCube via_plan = plan.apply(acq_, /*analytic=*/true);
  const us::TofCube one_shot = us::tof_correct(
      acq_, grid_, {.interp = dsp::Interp::kCubic, .analytic = true});
  EXPECT_EQ(max_abs_diff(via_plan.real, one_shot.real), 0.0f);
  EXPECT_EQ(max_abs_diff(via_plan.imag, one_shot.imag), 0.0f);
}

TEST_F(TofPlanTest, SteeredPlanIdenticalToTofCorrect) {
  const us::Acquisition steered = us::simulate_plane_wave(
      probe_, us::make_single_point(20e-3, 3e-3), 0.1, clean_);
  const TofPlan plan = TofPlan::build_for(steered, grid_);
  EXPECT_EQ(max_abs_diff(plan.apply(steered, false).real,
                         us::tof_correct(steered, grid_, {}).real),
            0.0f);
}

TEST_F(TofPlanTest, ApplyReusesBuffersAcrossFrames) {
  const TofPlan plan = TofPlan::build_for(acq_, grid_);
  ChannelWorkspace ws;
  us::TofCube cube;
  plan.apply(acq_, false, cube, &ws);
  const float* data_before = cube.real.raw();
  const Tensor first = cube.real;
  plan.apply(acq_, false, cube, &ws);
  EXPECT_EQ(cube.real.raw(), data_before);  // steady state: no reallocation
  EXPECT_EQ(max_abs_diff(cube.real, first), 0.0f);
}

TEST_F(TofPlanTest, ApplyClearsImagWhenSwitchingToRf) {
  const TofPlan plan = TofPlan::build_for(acq_, grid_);
  us::TofCube cube;
  plan.apply(acq_, true, cube);
  ASSERT_TRUE(cube.is_analytic());
  plan.apply(acq_, false, cube);
  EXPECT_FALSE(cube.is_analytic());
}

TEST_F(TofPlanTest, ApplyRejectsMismatchedAcquisitions) {
  const TofPlan plan = TofPlan::build_for(acq_, grid_);
  us::TofCube cube;
  // Wrong steering angle.
  us::Acquisition steered = acq_;
  steered.steering_angle_rad = 0.05;
  EXPECT_THROW(plan.apply(steered, false, cube), InvalidArgument);
  // Wrong start time.
  us::Acquisition shifted = acq_;
  shifted.t0 = 1e-6;
  EXPECT_THROW(plan.apply(shifted, false, cube), InvalidArgument);
  // Wrong RF length.
  us::SimParams deep = clean_;
  deep.max_depth = 40e-3;
  const us::Acquisition longer = us::simulate_plane_wave(
      probe_, us::make_single_point(20e-3), 0.0, deep);
  EXPECT_THROW(plan.apply(longer, false, cube), InvalidArgument);
  // Wrong probe geometry.
  us::Acquisition other_probe = acq_;
  other_probe.probe.pitch *= 2.0;
  EXPECT_THROW(plan.apply(other_probe, false, cube), InvalidArgument);
}

TEST_F(TofPlanTest, BuildRejectsDegenerateInputs) {
  EXPECT_THROW(TofPlan::build(probe_, grid_, 0.0, 0.0, 1), InvalidArgument);
  us::Acquisition empty;
  empty.probe = probe_;
  EXPECT_THROW(TofPlan::build_for(empty, grid_), InvalidArgument);
}

TEST_F(TofPlanTest, OnePixelGridIsSupported) {
  us::ImagingGrid tiny;
  tiny.nx = 1;
  tiny.nz = 1;
  tiny.x0 = 0.0;
  tiny.z0 = 20e-3;
  tiny.dx = 0.3e-3;
  tiny.dz = 0.1e-3;
  const TofPlan plan = TofPlan::build_for(acq_, tiny);
  const us::TofCube cube = plan.apply(acq_, false);
  ASSERT_EQ(cube.real.shape(), (Shape{1, 1, probe_.num_elements}));
  EXPECT_EQ(max_abs_diff(cube.real, us::tof_correct(acq_, tiny, {}).real),
            0.0f);
}

TEST_F(TofPlanTest, BuildRejectsLinesPast32BitOffsets) {
  // The gather addresses all lines with 32-bit offsets: nch * n < 2^31.
  us::ImagingGrid one = grid_;
  one.nx = 1;
  one.nz = 1;
  const std::int64_t limit = (std::int64_t{1} << 31) / probe_.num_elements;
  EXPECT_THROW(TofPlan::build(probe_, one, 0.0, 0.0, limit), InvalidArgument);
  EXPECT_NO_THROW(TofPlan::build(probe_, one, 0.0, 0.0, limit - 1));
}

/// Fixed-seed Gaussian RF for `probe`, `n` samples per channel.
us::Acquisition random_rf(const us::Probe& probe, std::int64_t n,
                          double angle) {
  us::Acquisition acq;
  acq.probe = probe;
  acq.steering_angle_rad = angle;
  acq.rf = Tensor({n, probe.num_elements});
  Rng rng(29);
  for (auto& v : acq.rf.data()) v = static_cast<float>(rng.normal());
  return acq;
}

/// The RF cube entry by entry: us::two_way_delay, the plan's entry encoding
/// (tof_plan.hpp; a linear plan), then the lerp.
Tensor reference_cube(const us::Acquisition& acq, const us::ImagingGrid& grid) {
  const us::Probe& probe = acq.probe;
  const std::int64_t n = acq.num_samples(), nch = probe.num_elements;
  const auto xs = probe.element_positions();
  const double sin_th = std::sin(acq.steering_angle_rad);
  const double cos_th = std::cos(acq.steering_angle_rad);
  const double tx_offset =
      sin_th >= 0.0 ? xs.front() * sin_th : xs.back() * sin_th;
  Tensor cube({grid.nz, grid.nx, nch});
  float* out = cube.raw();
  for (std::int64_t iz = 0; iz < grid.nz; ++iz)
    for (std::int64_t ix = 0; ix < grid.nx; ++ix)
      for (std::int64_t e = 0; e < nch; ++e, ++out) {
        const double t =
            (us::two_way_delay(grid.x_at(ix), grid.z_at(iz),
                               xs[static_cast<std::size_t>(e)], sin_th, cos_th,
                               tx_offset, probe.sound_speed) -
             acq.t0) *
            probe.sampling_frequency;
        *out = 0.0f;  // outside [0, n - 1]
        if (!(t >= 0.0) || t > static_cast<double>(n - 1)) continue;
        const auto i0 = static_cast<std::int64_t>(t);
        const bool last = i0 + 1 >= n;  // t == n - 1: the last pair, f = 1
        const std::int64_t base = last ? n - 2 : i0;
        const double f =
            last ? 1.0f : static_cast<float>(t - static_cast<double>(i0));
        const float* rf = acq.rf.raw() + base * nch + e;
        *out = static_cast<float>((1.0 - f) * rf[0] + f * rf[nch]);
      }
  return cube;
}

constexpr std::size_t kEntryBytes = sizeof(std::int32_t) + sizeof(float);

TEST_F(TofPlanTest, PaperGridAtZeroDegreesKeepsTheCompactTable) {
  const us::Probe l11 = us::Probe::l11_5v();
  const us::ImagingGrid paper = us::ImagingGrid::paper(l11);
  const us::Acquisition acq = random_rf(l11, 1828, 0.0);
  const TofPlan plan = TofPlan::build_for(acq, paper);
  // One entry per (depth row, ix - e): 368 x 255.
  EXPECT_EQ(plan.bytes(), 368u * 255u * kEntryBytes);
  const us::TofCube cube = plan.apply(acq, false);
  EXPECT_EQ(max_abs_diff(cube.real, reference_cube(acq, paper)), 0.0f);
  EXPECT_GT(max_abs(cube.real), 0.0f);
}

TEST_F(TofPlanTest, OffElementGridKeepsTheFullTable) {
  // 64 columns over 32 elements: columns do not sit on the elements.
  const us::Probe p32 = us::Probe::test_probe(32);
  const us::ImagingGrid grid = us::ImagingGrid::reduced(p32, 96, 64);
  const us::Acquisition acq = random_rf(p32, 700, 0.0);
  const TofPlan plan = TofPlan::build_for(acq, grid);
  EXPECT_EQ(plan.bytes(), 96u * 64u * 32u * kEntryBytes);
  EXPECT_EQ(
      max_abs_diff(plan.apply(acq, false).real, reference_cube(acq, grid)),
      0.0f);
}

TEST_F(TofPlanTest, SteeredPlanKeepsTheFullTable) {
  // The paper grid's first 16 rows, steered by 1.6 degrees: the transmit
  // delay varies with ix, so no row depends on ix - e alone.
  const us::Probe l11 = us::Probe::l11_5v();
  us::ImagingGrid grid = us::ImagingGrid::paper(l11);
  grid.nz = 16;
  const us::Acquisition acq =
      random_rf(l11, 1828, 1.6 * std::numbers::pi / 180.0);
  const TofPlan plan = TofPlan::build_for(acq, grid);
  EXPECT_EQ(plan.bytes(), 16u * 128u * 128u * kEntryBytes);
  EXPECT_EQ(
      max_abs_diff(plan.apply(acq, false).real, reference_cube(acq, grid)),
      0.0f);
}

class PlanCacheTest : public TofPlanTest {
 protected:
  void SetUp() override {
    PlanCache::instance().clear();
    default_capacity_ = PlanCache::instance().stats().capacity_bytes;
  }
  void TearDown() override {
    PlanCache::instance().set_capacity(default_capacity_);
    PlanCache::instance().clear();
  }
  std::size_t default_capacity_ = 0;
};

TEST_F(PlanCacheTest, HitsShareOnePlan) {
  auto& cache = PlanCache::instance();
  const auto a = cache.get_for(acq_, grid_);
  const auto b = cache.get_for(acq_, grid_);
  EXPECT_EQ(a.get(), b.get());
  const auto s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.bytes, a->bytes());
}

TEST_F(PlanCacheTest, DistinctKeysGetDistinctPlans) {
  auto& cache = PlanCache::instance();
  const auto a = cache.get_for(acq_, grid_);
  const auto b = cache.get_for(acq_, grid_, dsp::Interp::kCubic);
  const auto c = cache.get(probe_, grid_, 0.1, acq_.t0, acq_.num_samples());
  EXPECT_NE(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.stats().entries, 3u);
}

TEST_F(PlanCacheTest, EvictsLeastRecentlyUsedByBytes) {
  auto& cache = PlanCache::instance();
  const auto a = cache.get_for(acq_, grid_);
  cache.set_capacity(a->bytes());  // room for exactly one plan
  const auto b = cache.get(probe_, grid_, 0.1, acq_.t0, acq_.num_samples());
  auto s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 1u);
  // The evicted key misses again; the handed-out shared_ptr stayed valid.
  cache.get_for(acq_, grid_);
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_GT(max_abs(a->apply(acq_, false).real), 0.0f);
}

TEST_F(PlanCacheTest, OversizedPlansAreNotRetained) {
  auto& cache = PlanCache::instance();
  cache.set_capacity(16);
  const auto plan = cache.get_for(acq_, grid_);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
}

class SourceTest : public TofPlanTest {};

TEST_F(SourceTest, ReplayCyclesAndResets) {
  const us::Acquisition second = us::simulate_plane_wave(
      probe_, us::make_single_point(15e-3), 0.0, clean_);
  ReplaySource source({acq_, second}, /*total_frames=*/5);
  EXPECT_EQ(source.num_frames(), 5);
  std::vector<Frame> frames(6);
  for (int k = 0; k < 5; ++k) ASSERT_TRUE(source.next(frames[k]));
  EXPECT_FALSE(source.next(frames[5]));
  EXPECT_EQ(frames[4].index, 4);
  // Round-robin: frames 0, 2, 4 replay the first acquisition.
  EXPECT_EQ(max_abs_diff(frames[0].acq.rf, frames[2].acq.rf), 0.0f);
  EXPECT_EQ(max_abs_diff(frames[0].acq.rf, acq_.rf), 0.0f);
  EXPECT_GT(max_abs_diff(frames[0].acq.rf, frames[1].acq.rf), 0.0f);
  source.reset();
  Frame again;
  ASSERT_TRUE(source.next(again));
  EXPECT_EQ(again.index, 0);
  EXPECT_EQ(max_abs_diff(again.acq.rf, acq_.rf), 0.0f);
}

TEST_F(SourceTest, ReplayRejectsBadInput) {
  EXPECT_THROW(ReplaySource({}), InvalidArgument);
  us::Acquisition other = us::simulate_plane_wave(
      us::Probe::test_probe(32), us::make_single_point(20e-3), 0.0, clean_);
  EXPECT_THROW(ReplaySource({acq_, other}), InvalidArgument);
}

CineParams test_cine(std::int64_t frames) {
  CineParams p;
  p.num_frames = frames;
  p.frame_rate_hz = 10.0;
  p.lateral_speed_m_s = 5e-3;
  p.axial_amplitude_m = 0.5e-3;
  p.axial_period_s = 0.8;
  p.sim.add_noise = false;
  p.sim.max_depth = 30e-3;
  return p;
}

TEST_F(SourceTest, CineIsDeterministicAndMoves) {
  us::Region region{-5e-3, 5e-3, 12e-3, 26e-3};
  const us::Phantom ph = us::make_single_point(20e-3, 0.0, region);
  CineSource a(probe_, ph, test_cine(3));
  CineSource b(probe_, ph, test_cine(3));
  Frame fa, fb, fa2;
  ASSERT_TRUE(a.next(fa));
  ASSERT_TRUE(b.next(fb));
  EXPECT_EQ(max_abs_diff(fa.acq.rf, fb.acq.rf), 0.0f);
  ASSERT_TRUE(a.next(fa2));
  EXPECT_GT(max_abs_diff(fa.acq.rf, fa2.acq.rf), 0.0f);  // the target moved
  // reset() replays frame 0 bit-identically.
  a.reset();
  Frame replay;
  ASSERT_TRUE(a.next(replay));
  EXPECT_EQ(max_abs_diff(replay.acq.rf, fa.acq.rf), 0.0f);
}

TEST_F(SourceTest, CineMotionModelShiftsAndWraps) {
  us::Region region{-5e-3, 5e-3, 12e-3, 26e-3};
  us::Phantom ph = us::make_single_point(20e-3, 4e-3, region);
  ph.cysts.push_back({0.0, 18e-3, 2e-3});
  CineParams p = test_cine(4);
  CineSource source(probe_, ph, p);
  // After 1 s: lateral shift 5 mm wraps 4 mm -> -1 mm inside the 10 mm
  // region; axial oscillation at t = T returns to 0 within round-off.
  const us::Phantom moved = source.phantom_at(0.8);
  EXPECT_NEAR(moved.scatterers[0].x,
              4e-3 + 0.8 * 5e-3 - region.width(), 1e-9);
  EXPECT_NEAR(moved.scatterers[0].z, 20e-3, 1e-9);
  EXPECT_NEAR(moved.cysts[0].z, 18e-3, 1e-9);
  // Quarter period: full axial amplitude.
  const us::Phantom up = source.phantom_at(0.2);
  EXPECT_NEAR(up.scatterers[0].z, 20e-3 + 0.5e-3, 1e-9);
}

class PipelineTest : public TofPlanTest {
 protected:
  void SetUp() override { PlanCache::instance().clear(); }

  std::shared_ptr<ReplaySource> replay(std::int64_t frames) {
    return std::make_shared<ReplaySource>(
        std::vector<us::Acquisition>{acq_}, frames);
  }
  std::shared_ptr<bf::DasBeamformer> das() {
    return std::make_shared<bf::DasBeamformer>(probe_);
  }
  PipelineConfig config(bool cached, bool overlap) {
    PipelineConfig cfg;
    cfg.grid = grid_;
    cfg.use_plan_cache = cached;
    cfg.overlap = overlap;
    return cfg;
  }
};

TEST_F(PipelineTest, StreamedFramesIdenticalToOneShotDas) {
  const Tensor reference_db = dsp::log_compress(
      dsp::envelope_iq(das()->beamform(us::tof_correct(acq_, grid_, {}))),
      60.0);
  std::vector<Tensor> frames;
  Pipeline pipeline(replay(3), das(), config(true, true));
  const auto report = pipeline.run(
      [&](const FrameOutput& out) { frames.push_back(out.db); });
  ASSERT_EQ(report.frames, 3);
  ASSERT_EQ(frames.size(), 3u);
  for (const auto& db : frames)
    EXPECT_EQ(max_abs_diff(db, reference_db), 0.0f);
}

TEST_F(PipelineTest, CachedAndUncachedPathsAgree) {
  Tensor cached_db, uncached_db;
  Pipeline cached(replay(2), das(), config(true, false));
  cached.run([&](const FrameOutput& out) { cached_db = out.db; });
  Pipeline uncached(replay(2), das(), config(false, false));
  uncached.run([&](const FrameOutput& out) { uncached_db = out.db; });
  EXPECT_EQ(max_abs_diff(cached_db, uncached_db), 0.0f);
}

TEST_F(PipelineTest, OverlapDoesNotChangeResults) {
  Tensor serial_db, overlapped_db;
  Pipeline serial(replay(4), das(), config(true, false));
  serial.run([&](const FrameOutput& out) { serial_db = out.db; });
  Pipeline overlapped(replay(4), das(), config(true, true));
  overlapped.run([&](const FrameOutput& out) { overlapped_db = out.db; });
  EXPECT_EQ(max_abs_diff(serial_db, overlapped_db), 0.0f);
}

TEST_F(PipelineTest, ReportCountsStagesAndCache) {
  Pipeline pipeline(replay(4), das(), config(true, true));
  const auto report = pipeline.run();
  EXPECT_EQ(report.frames, 4);
  EXPECT_GT(report.fps(), 0.0);
  for (const char* stage : {"source", "tof", "beamform", "postprocess"})
    EXPECT_EQ(report.stage(stage).frames, 4) << stage;
  EXPECT_EQ(report.plan_cache_misses, 1u);
  EXPECT_EQ(report.plan_cache_hits, 3u);
  EXPECT_GE(report.stage("tof").max_s, report.stage("tof").min_s);
  EXPECT_THROW(report.stage("nope"), InvalidArgument);
}

TEST_F(PipelineTest, AnalyticFlavorFeedsAnalyticBeamformer) {
  PipelineConfig cfg = config(true, false);
  cfg.tof.analytic = true;
  Tensor db;
  Pipeline pipeline(replay(2), das(), cfg);
  pipeline.run([&](const FrameOutput& out) { db = out.db; });
  const Tensor reference = dsp::log_compress(
      dsp::envelope_iq(
          das()->beamform(us::tof_correct(acq_, grid_, {.analytic = true}))),
      60.0);
  EXPECT_EQ(max_abs_diff(db, reference), 0.0f);
}

TEST_F(PipelineTest, SinkExceptionsPropagateAndStopTheStream) {
  Pipeline pipeline(replay(8), das(), config(true, true));
  EXPECT_THROW(pipeline.run([](const FrameOutput& out) {
                 if (out.index == 1) throw std::runtime_error("sink failed");
               }),
               std::runtime_error);
}

TEST_F(PipelineTest, RejectsBadConstruction) {
  EXPECT_THROW(Pipeline(nullptr, das(), config(true, true)), InvalidArgument);
  EXPECT_THROW(Pipeline(replay(1), nullptr, config(true, true)),
               InvalidArgument);
  PipelineConfig cfg = config(true, true);
  cfg.dynamic_range_db = 0.0;
  EXPECT_THROW(Pipeline(replay(1), das(), cfg), InvalidArgument);
}

TEST_F(PipelineTest, CinePipelineEndToEnd) {
  us::Region region{grid_.x0, grid_.x_end(), grid_.z0, grid_.z_end()};
  Rng rng(5);
  us::SpeckleOptions opt;
  opt.density_per_mm2 = 0.5;
  const us::Phantom ph = us::make_contrast_phantom(
      rng, {19e-3}, 2.5e-3, region, opt);
  auto source = std::make_shared<CineSource>(probe_, ph, test_cine(3));
  Pipeline pipeline(source, das(), config(true, true));
  std::vector<Tensor> frames;
  const auto report = pipeline.run(
      [&](const FrameOutput& out) { frames.push_back(out.db); });
  ASSERT_EQ(report.frames, 3);
  // One plan serves the whole cine despite the moving phantom.
  EXPECT_EQ(report.plan_cache_misses, 1u);
  EXPECT_EQ(report.plan_cache_hits, 2u);
  // Frames are real images and actually differ (the phantom moved).
  EXPECT_GT(max_abs_diff(frames[0], frames[2]), 0.0f);
}

}  // namespace
}  // namespace tvbf::rt
