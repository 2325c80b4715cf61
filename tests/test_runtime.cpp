// Tests for the streaming imaging runtime: cached ToF plans, the plan
// cache, frame sources and the source -> ToF -> beamform -> log pipeline,
// whose frames are checked bit for bit against one-shot references for
// DAS, float Tiny-VBF and quantized Tiny-VBF, single-angle and compounded.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <numbers>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "beamform/compounding.hpp"
#include "beamform/das.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "dsp/hilbert.hpp"
#include "models/neural_beamformer.hpp"
#include "quant/quantized_tiny_vbf.hpp"
#include "runtime/frame_source.hpp"
#include "runtime/pipeline.hpp"
#include "serve/async_sink.hpp"
#include "telemetry/trace.hpp"
#include "tensor/tensor_ops.hpp"
#include "us/phantom.hpp"
#include "us/plan_cache.hpp"
#include "us/tof.hpp"
#include "us/tof_plan.hpp"

#include "fault_injection.hpp"

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

/// Fixed-seed Gaussian RF for `probe`, `n` samples per channel.
us::Acquisition random_rf(const us::Probe& probe, std::int64_t n,
                          double angle, std::uint64_t seed = 29) {
  us::Acquisition acq;
  acq.probe = probe;
  acq.steering_angle_rad = angle;
  acq.rf = Tensor({n, probe.num_elements});
  Rng rng(seed);
  for (auto& v : acq.rf.data()) v = static_cast<float>(rng.normal());
  return acq;
}

/// What a reference cube samples in each channel: the RF, or the real or
/// imaginary part of the channel's analytic signal.
enum class Plane { kRf, kAnalyticRe, kAnalyticIm };

/// One plane of the ToF cube, entry by entry: us::two_way_delay, the plan's
/// entry encoding (tof_plan.hpp), then the lerp or, at the interior entries
/// of a cubic plan, the Catmull-Rom weights.
Tensor reference_cube(const us::Acquisition& acq, const us::ImagingGrid& grid,
                      dsp::Interp interp = dsp::Interp::kLinear,
                      Plane plane = Plane::kRf) {
  const us::Probe& probe = acq.probe;
  const std::int64_t n = acq.num_samples(), nch = probe.num_elements;
  std::vector<std::vector<float>> lines(static_cast<std::size_t>(nch));
  for (std::int64_t e = 0; e < nch; ++e) {
    std::vector<float>& line = lines[static_cast<std::size_t>(e)];
    for (std::int64_t i = 0; i < n; ++i)
      line.push_back(acq.rf.raw()[i * nch + e]);
    if (plane == Plane::kRf) continue;
    const auto a = dsp::analytic_signal(line);
    for (std::size_t i = 0; i < line.size(); ++i)
      line[i] = static_cast<float>(plane == Plane::kAnalyticRe ? a[i].real()
                                                               : a[i].imag());
  }
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
        const float* x = lines[static_cast<std::size_t>(e)].data();
        if (interp == dsp::Interp::kCubic && !last && i0 != 0 && i0 + 2 < n) {
          const double p0 = x[i0 - 1], p1 = x[i0], p2 = x[i0 + 1],
                       p3 = x[i0 + 2];
          const double a = -0.5 * p0 + 1.5 * p1 - 1.5 * p2 + 0.5 * p3;
          const double b = p0 - 2.5 * p1 + 2.0 * p2 - 0.5 * p3;
          const double c = -0.5 * p0 + 0.5 * p2;
          *out = static_cast<float>(((a * f + b) * f + c) * f + p1);
        } else {
          *out = static_cast<float>((1.0 - f) * x[base] + f * x[base + 1]);
        }
      }
  return cube;
}

/// True when a and b hold the same bytes.
bool same_bits(const float* a, const float* b, std::int64_t n) {
  return std::memcmp(a, b, static_cast<std::size_t>(n) * sizeof(float)) == 0;
}
bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() && same_bits(a.raw(), b.raw(), a.size());
}

/// The (nz, nx, nch) cube read from nz slot tables through slot_offset.
Tensor cube_from_slot_rows(const std::vector<float>& tables, std::int64_t nz,
                           std::int64_t nx, std::int64_t nch) {
  Tensor cube({nz, nx, nch});
  const std::int64_t row = kernels::slot_row_floats(nx, nch);
  for (std::int64_t iz = 0; iz < nz; ++iz)
    for (std::int64_t ix = 0; ix < nx; ++ix)
      for (std::int64_t c = 0; c < nch; ++c)
        cube.raw()[(iz * nx + ix) * nch + c] = tables[static_cast<std::size_t>(
            iz * row + kernels::slot_offset(nx, ix, c))];
  return cube;
}

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
  EXPECT_TRUE(same_bits(via_plan.real,
                        reference_cube(acq_, grid_, dsp::Interp::kLinear,
                                       Plane::kAnalyticRe)));
  EXPECT_TRUE(same_bits(via_plan.imag,
                        reference_cube(acq_, grid_, dsp::Interp::kLinear,
                                       Plane::kAnalyticIm)));
}

TEST_F(TofPlanTest, ApplyIdenticalToTofCorrectCubic) {
  const TofPlan plan = TofPlan::build_for(acq_, grid_, dsp::Interp::kCubic);
  const us::TofCube via_plan = plan.apply(acq_, /*analytic=*/true);
  const us::TofCube one_shot = us::tof_correct(
      acq_, grid_, {.interp = dsp::Interp::kCubic, .analytic = true});
  EXPECT_EQ(max_abs_diff(via_plan.real, one_shot.real), 0.0f);
  EXPECT_EQ(max_abs_diff(via_plan.imag, one_shot.imag), 0.0f);
  EXPECT_TRUE(same_bits(via_plan.real,
                        reference_cube(acq_, grid_, dsp::Interp::kCubic,
                                       Plane::kAnalyticRe)));
  EXPECT_TRUE(same_bits(via_plan.imag,
                        reference_cube(acq_, grid_, dsp::Interp::kCubic,
                                       Plane::kAnalyticIm)));
  // The RF flavor of the same cubic plan.
  EXPECT_TRUE(same_bits(plan.apply(acq_, false).real,
                        reference_cube(acq_, grid_, dsp::Interp::kCubic)));
}

TEST_F(TofPlanTest, SteeredPlanIdenticalToTofCorrect) {
  const us::Acquisition steered = us::simulate_plane_wave(
      probe_, us::make_single_point(20e-3, 3e-3), 0.1, clean_);
  const TofPlan plan = TofPlan::build_for(steered, grid_);
  const Tensor cube = plan.apply(steered, false).real;
  EXPECT_EQ(max_abs_diff(cube, us::tof_correct(steered, grid_, {}).real),
            0.0f);
  EXPECT_TRUE(same_bits(cube, reference_cube(steered, grid_)));
  EXPECT_GT(max_abs(cube), 0.0f);
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
  // A plan that reads RF directly shares the checks in peak() and
  // slot_rows().
  const us::ImagingGrid on_elements = us::ImagingGrid::reduced(
      probe_, 96, probe_.num_elements, 10e-3, 28e-3);
  const TofPlan direct = TofPlan::build_for(acq_, on_elements);
  ASSERT_TRUE(direct.reads_rf());
  std::vector<float> rows(static_cast<std::size_t>(
      2 * kernels::slot_row_floats(on_elements.nx, probe_.num_elements)));
  EXPECT_NO_THROW(direct.peak(acq_));
  EXPECT_NO_THROW(direct.slot_rows(acq_, 94, 2, 1.0f, rows.data()));
  const auto rejects = [&](const us::Acquisition& bad, const char* what) {
    EXPECT_THROW(plan.apply(bad, false, cube), InvalidArgument) << what;
    EXPECT_THROW(direct.peak(bad), InvalidArgument) << what;
    EXPECT_THROW(direct.slot_rows(bad, 0, 2, 1.0f, rows.data()),
                 InvalidArgument)
        << what;
  };
  us::Acquisition steered = acq_;
  steered.steering_angle_rad = 0.05;
  rejects(steered, "steering angle");
  us::Acquisition shifted = acq_;
  shifted.t0 = 1e-6;
  rejects(shifted, "start time");
  us::SimParams deep = clean_;
  deep.max_depth = 40e-3;
  rejects(us::simulate_plane_wave(probe_, us::make_single_point(20e-3), 0.0,
                                  deep),
          "RF length");
  us::Acquisition other_probe = acq_;
  other_probe.probe.pitch *= 2.0;
  rejects(other_probe, "probe geometry");
  // Rows outside the grid.
  EXPECT_THROW(direct.slot_rows(acq_, 95, 2, 1.0f, rows.data()),
               InvalidArgument);
  EXPECT_THROW(direct.slot_rows(acq_, -1, 1, 1.0f, rows.data()),
               InvalidArgument);
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

TEST_F(TofPlanTest, BuildRejectsNonFiniteGeometry) {
  // Each non-finite geometry field throws before an entry is encoded, in
  // build() and so in tof_correct(). Unchecked, a NaN t0 or angle built a
  // whole plan that apply() then refused as not matching the acquisition,
  // and a t0 of +inf gave an all-zero cube.
  const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()};
  for (const double v : bad) {
    for (int field = 0; field < 9; ++field) {
      us::Acquisition acq = acq_;
      us::ImagingGrid grid = grid_;
      double* const target[] = {&acq.probe.pitch,
                                &acq.probe.sampling_frequency,
                                &acq.probe.sound_speed,
                                &acq.steering_angle_rad,
                                &acq.t0,
                                &grid.x0,
                                &grid.z0,
                                &grid.dx,
                                &grid.dz};
      *target[field] = v;
      EXPECT_THROW(TofPlan::build(acq.probe, grid, acq.steering_angle_rad,
                                  acq.t0, acq.num_samples()),
                   InvalidArgument)
          << "field " << field << ", value " << v;
      EXPECT_THROW(us::tof_correct(acq, grid, {}), InvalidArgument)
          << "field " << field << ", value " << v;
    }
  }
}

constexpr std::size_t kEntryBytes = sizeof(std::int32_t) + sizeof(float);

TEST_F(TofPlanTest, PaperGridAtZeroDegreesKeepsTheCompactTable) {
  const us::Probe l11 = us::Probe::l11_5v();
  const us::ImagingGrid paper = us::ImagingGrid::paper(l11);
  const us::Acquisition acq = random_rf(l11, 1828, 0.0);
  const TofPlan plan = TofPlan::build_for(acq, paper);
  // One entry per (depth row, ix - e): 368 x 255.
  EXPECT_TRUE(plan.reads_rf());
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

TEST_F(TofPlanTest, NearlyAlignedGridKeepsTheFullTable) {
  // Columns a hair off the elements: nearly every entry's idx equals its
  // slot's, but some fracs do not, so the table stays full.
  const us::ImagingGrid aligned = us::ImagingGrid::reduced(
      probe_, 48, probe_.num_elements, 10e-3, 28e-3);
  us::ImagingGrid grid = aligned;
  grid.dx *= 1.0 + 1e-8;
  const us::Acquisition acq = random_rf(probe_, 700, 0.0);
  EXPECT_TRUE(TofPlan::build_for(acq, aligned).reads_rf());
  const TofPlan plan = TofPlan::build_for(acq, grid);
  EXPECT_EQ(plan.bytes(), 48u * 16u * 16u * kEntryBytes);
  EXPECT_TRUE(
      same_bits(plan.apply(acq, false).real, reference_cube(acq, grid)));
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

TEST_F(TofPlanTest, RowsAndPeakEqualTheAppliedCube) {
  // Columns on the elements at 0 degrees keep the compact table. Channel
  // counts below, at and off the 8-lane step; rows in uneven ranges.
  for (const std::int64_t nch : {3, 12, 16}) {
    const us::Probe probe = us::Probe::test_probe(nch);
    const us::ImagingGrid grid =
        us::ImagingGrid::reduced(probe, 23, nch, 10e-3, 28e-3);
    const us::Acquisition acq = random_rf(probe, 900, 0.0);
    const TofPlan plan = TofPlan::build_for(acq, grid);
    ASSERT_TRUE(plan.reads_rf()) << "nch " << nch;
    const Tensor cube = plan.apply(acq, false).real;
    ASSERT_TRUE(same_bits(cube, reference_cube(acq, grid))) << "nch " << nch;
    const float peak = plan.peak(acq);
    const float want = max_abs(cube);
    EXPECT_TRUE(same_bits(&peak, &want, 1)) << "nch " << nch;
    const std::int64_t row = kernels::slot_row_floats(grid.nx, nch);
    for (const float scale : {1.0f, 1.0f / peak}) {
      Tensor want_rows = cube;
      for (float& v : want_rows.data()) v *= scale;
      std::vector<float> tables(static_cast<std::size_t>(grid.nz * row));
      for (std::int64_t z0 = 0, step = 5; z0 < grid.nz; z0 += step, step ^= 6)
        plan.slot_rows(acq, z0, std::min(step, grid.nz - z0), scale,
                       tables.data() + z0 * row);
      const Tensor rows = cube_from_slot_rows(tables, grid.nz, grid.nx, nch);
      EXPECT_TRUE(same_bits(rows, want_rows))
          << "nch " << nch << ", scale " << scale;
    }
  }
}

TEST_F(TofPlanTest, OnlyCompactLinearPlansReadRf) {
  const us::ImagingGrid on_elements = us::ImagingGrid::reduced(
      probe_, 12, probe_.num_elements, 10e-3, 28e-3);
  us::Acquisition steered = acq_;
  steered.steering_angle_rad = 0.1;
  std::vector<float> rows(static_cast<std::size_t>(
      kernels::slot_row_floats(on_elements.nx, probe_.num_elements)));
  for (const TofPlan& plan :
       {TofPlan::build_for(acq_, grid_),  // off the elements: full table
        TofPlan::build_for(acq_, on_elements, dsp::Interp::kCubic),
        TofPlan::build_for(steered, on_elements)}) {
    const us::Acquisition& acq =
        plan.key().steering_angle_rad != 0.0 ? steered : acq_;
    EXPECT_FALSE(plan.reads_rf());
    EXPECT_THROW(plan.peak(acq), InvalidArgument);
    EXPECT_THROW(plan.slot_rows(acq, 0, 1, 1.0f, rows.data()),
                 InvalidArgument);
  }
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

TEST_F(PlanCacheTest, RejectsNonFiniteKeysBeforeTheLookup) {
  // A NaN key would never equal itself: each lookup would miss and leave
  // a plan and its in-flight latch behind. Every non-finite geometry field
  // is rejected before the cache counts or stores anything.
  auto& cache = PlanCache::instance();
  const auto resident = cache.get_for(acq_, grid_);
  const PlanCache::Stats before = cache.stats();
  const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()};
  for (const double v : bad) {
    for (int field = 0; field < 9; ++field) {
      us::Probe probe = probe_;
      us::ImagingGrid grid = grid_;
      double angle = 0.0, t0 = acq_.t0;
      double* const target[] = {&probe.pitch, &probe.sampling_frequency,
                                &probe.sound_speed, &angle, &t0,
                                &grid.x0, &grid.z0, &grid.dx, &grid.dz};
      *target[field] = v;
      EXPECT_THROW(cache.get(probe, grid, angle, t0, acq_.num_samples()),
                   InvalidArgument)
          << "field " << field << ", value " << v;
    }
  }
  const PlanCache::Stats after = cache.stats();
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.entries, before.entries);
  EXPECT_EQ(after.bytes, before.bytes);
  EXPECT_EQ(cache.get_for(acq_, grid_).get(), resident.get());
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
  PipelineConfig config() const {
    PipelineConfig cfg;
    cfg.grid = grid_;
    return cfg;
  }
};

TEST_F(PipelineTest, StreamedFramesIdenticalToOneShotDas) {
  const Tensor reference_db = dsp::log_compress(
      dsp::envelope_iq(das()->beamform(us::tof_correct(acq_, grid_, {}))),
      60.0);
  std::vector<Tensor> frames;
  Pipeline pipeline(replay(3), das(), config());
  const auto report = pipeline.run(
      [&](const FrameOutput& out) { frames.push_back(out.db); });
  ASSERT_EQ(report.frames, 3);
  ASSERT_EQ(frames.size(), 3u);
  for (const auto& db : frames)
    EXPECT_EQ(max_abs_diff(db, reference_db), 0.0f);
}

TEST_F(PipelineTest, ReportCountsStagesAndCache) {
  Pipeline pipeline(replay(4), das(), config());
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
  PipelineConfig cfg = config();
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
  Pipeline pipeline(replay(8), das(), config());
  EXPECT_THROW(pipeline.run([](const FrameOutput& out) {
                 if (out.index == 1) throw std::runtime_error("sink failed");
               }),
               std::runtime_error);
}

TEST_F(PipelineTest, RejectsBadConstruction) {
  EXPECT_THROW(Pipeline(nullptr, das(), config()), InvalidArgument);
  EXPECT_THROW(Pipeline(replay(1), nullptr, config()),
               InvalidArgument);
  PipelineConfig cfg = config();
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
  Pipeline pipeline(source, das(), config());
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

TEST_F(PipelineTest, EachFrameTracesOneSpanOnItsLineage) {
  // One "pipeline.frame" span per frame, recorded on the frame's lineage:
  // the async sink's write span on its writer thread shares the id, so the
  // export chains each frame (flow start) to its write (flow finish).
  telemetry::trace_start(1 << 10);
  std::vector<std::uint64_t> ids;
  {
    serve::AsyncSink writer([](const serve::SinkFrame&) {});
    Pipeline pipeline(replay(3), das(), config());
    pipeline.run([&](const FrameOutput& out) {
      EXPECT_EQ(telemetry::current_flow(), out.trace_id);
      ids.push_back(out.trace_id);
      writer.push(out);
    });
    writer.close();
  }
  telemetry::trace_stop();
  EXPECT_EQ(telemetry::current_flow(), 0u);

  const std::string json = telemetry::trace_export_json();
  std::size_t spans = 0;
  for (std::size_t at = json.find("\"pipeline.frame\""); at != std::string::npos;
       at = json.find("\"pipeline.frame\"", at + 1))
    ++spans;
  EXPECT_EQ(spans, 3u);
  ASSERT_EQ(ids.size(), 3u);
  for (const std::uint64_t id : ids) {
    EXPECT_NE(id, 0u);
    const std::string tag = "\"id\": " + std::to_string(id);
    EXPECT_NE(json.find("\"ph\": \"s\", " + tag), std::string::npos) << id;
    EXPECT_NE(json.find("\"ph\": \"f\", " + tag), std::string::npos) << id;
  }
}

TEST_F(PipelineTest, SourceExceptionPropagatesAfterEarlierFrames) {
  // The source throws instead of producing frame 3: frames 0-2 still reach
  // the sink in order, then run() rethrows once the producer has stopped.
  const auto source = std::make_shared<test::FailingSource>(replay(8), 3);
  Pipeline pipeline(source, das(), config());
  std::vector<std::int64_t> delivered;
  EXPECT_THROW(pipeline.run([&](const FrameOutput& out) {
                 delivered.push_back(out.index);
               }),
               std::runtime_error);
  EXPECT_EQ(delivered, (std::vector<std::int64_t>{0, 1, 2}));
  EXPECT_EQ(source->calls(), 4);
}

TEST_F(PipelineTest, BeamformerExceptionMidCompoundedStreamPropagates) {
  // Three steered transmits per frame; the beamformer throws on frame 2.
  std::vector<us::Acquisition> angles;
  for (int a = 0; a < 3; ++a)
    angles.push_back(random_rf(probe_, 900, 0.1 * (a - 1),
                               static_cast<std::uint64_t>(40 + a)));
  Pipeline pipeline(std::make_shared<ReplaySource>(angles, 8, 30.0, 3),
                    std::make_shared<test::FailingBeamformer>(das(), 2),
                    config());
  std::vector<std::int64_t> delivered;
  EXPECT_THROW(pipeline.run([&](const FrameOutput& out) {
                 delivered.push_back(out.index);
               }),
               std::runtime_error);
  EXPECT_EQ(delivered, (std::vector<std::int64_t>{0, 1}));
}

// ---- Pipeline vs one-shot reference ----------------------------------------

class PipelineIdentityTest : public ::testing::Test {
 protected:
  void SetUp() override { PlanCache::instance().clear(); }
  void TearDown() override { PlanCache::instance().clear(); }

  /// Cine source; `angles > 1` yields compounded multi-angle frames.
  std::shared_ptr<CineSource> cine(std::int64_t frames,
                                   std::int64_t angles) const {
    us::Region region{-4e-3, 4e-3, 12e-3, 24e-3};
    CineParams p;
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
    return std::make_shared<CineSource>(
        probe_, us::make_single_point(18e-3, 0.0, region), p);
  }

  /// Asserts the Pipeline reproduces, bit for bit, the one-shot reference
  /// (test::one_shot_db) of each frame of cine(3, angles). Frame
  /// `single_at`, if not negative, carries only its first acquisition, so
  /// the stream's angle count changes twice and the processor's per-angle
  /// slots shrink to none and grow back.
  void expect_identical(const std::shared_ptr<const bf::Beamformer>& beamformer,
                        std::int64_t angles, std::int64_t single_at = -1) {
    PipelineConfig cfg;
    cfg.grid = grid_;
    std::vector<Tensor> got;
    Pipeline pipeline(std::make_shared<test::SingleAngleFrameSource>(
                          cine(3, angles), single_at),
                      beamformer, cfg);
    pipeline.run([&](const FrameOutput& f) { got.push_back(f.db); });
    ASSERT_EQ(got.size(), 3u);

    test::SingleAngleFrameSource source(cine(3, angles), single_at);
    Frame frame;
    for (std::size_t k = 0; source.next(frame); ++k) {
      ASSERT_LT(k, got.size());
      EXPECT_TRUE(same_bits(got[k], test::one_shot_db(frame, cfg, *beamformer)))
          << beamformer->name() << ", frame " << k << ", "
          << frame.num_acquisitions() << " angle(s)";
    }
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

TEST_F(PipelineIdentityTest, DasMatchesOneShotSingleAndCompounded) {
  const auto das = std::make_shared<bf::DasBeamformer>(probe_);
  expect_identical(das, 1);
  expect_identical(das, 3);
  expect_identical(das, 3, /*single_at=*/1);
}

TEST_F(PipelineIdentityTest, TinyVbfMatchesOneShotSingleAndCompounded) {
  const auto vbf = std::make_shared<models::TinyVbfBeamformer>(model());
  expect_identical(vbf, 1);
  expect_identical(vbf, 3);
  expect_identical(vbf, 3, /*single_at=*/1);
}

TEST_F(PipelineIdentityTest, QuantizedMatchesOneShotSingleAndCompounded) {
  for (const quant::QuantScheme& scheme :
       {quant::QuantScheme::uniform(16), quant::QuantScheme::hybrid2()}) {
    const auto quantized = std::make_shared<quant::QuantizedVbfBeamformer>(
        std::make_shared<quant::QuantizedTinyVbf>(*model(), scheme));
    expect_identical(quantized, 1);
    expect_identical(quantized, 3);
  }
}

/// Forwards to a beamformer and counts how the pipeline asked it to form
/// frames: through the plan (and how often it accepted) or from the cube.
/// Frames are formed one at a time, so plain counters suffice.
class PathCounter : public bf::Beamformer {
 public:
  explicit PathCounter(std::shared_ptr<const bf::Beamformer> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  Tensor beamform(const us::TofCube& cube) const override {
    ++cube_calls;
    return inner_->beamform(cube);
  }
  std::optional<Tensor> beamform_through(
      const us::TofPlan& plan, const us::Acquisition& acq) const override {
    ++offers;
    std::optional<Tensor> iq = inner_->beamform_through(plan, acq);
    if (iq) ++accepted;
    return iq;
  }

  mutable int cube_calls = 0, offers = 0, accepted = 0;

 private:
  std::shared_ptr<const bf::Beamformer> inner_;
};

class FusedFrameTest : public ::testing::Test {
 protected:
  void SetUp() override { PlanCache::instance().clear(); }

  static std::shared_ptr<const bf::Beamformer> float_vbf(
      const std::shared_ptr<const models::TinyVbf>& model) {
    return std::make_shared<models::TinyVbfBeamformer>(model);
  }
  static std::shared_ptr<const bf::Beamformer> hybrid2(
      const std::shared_ptr<const models::TinyVbf>& model) {
    return std::make_shared<quant::QuantizedVbfBeamformer>(
        std::make_shared<quant::QuantizedTinyVbf>(
            *model, quant::QuantScheme::hybrid2()));
  }
  static Tensor bmode(const Tensor& iq) {
    return dsp::log_compress(dsp::envelope_iq(iq), 60.0);
  }

  /// Runs `frames` frames of `source` through `beamformer` wrapped in a
  /// PathCounter; returns each frame's B-mode.
  std::vector<Tensor> run(std::shared_ptr<FrameSource> source,
                          std::shared_ptr<const bf::Beamformer> beamformer,
                          const PipelineConfig& config) {
    counter_ = std::make_shared<PathCounter>(std::move(beamformer));
    Pipeline pipeline(std::move(source), counter_, config);
    std::vector<Tensor> out;
    report_ = pipeline.run([&](const FrameOutput& f) { out.push_back(f.db); });
    return out;
  }

  std::shared_ptr<PathCounter> counter_;
  PipelineReport report_;
};

TEST_F(FusedFrameTest, TinyVbfFramesEqualTheCubePath) {
  // Columns on the elements at 0 degrees: the plan reads RF directly and
  // each frame is formed without its cube, bit for bit the cube path.
  // 12 channels: a 4-channel tail, one slice per tile. 52 channels: a
  // 4-channel tail, 10.6 KB rows in 48-row slices, 71 rows (64 + 7). 128
  // channels: paper-width 8-row slices over 9 rows. Two noise frames and a
  // silent one, whose scale is 1 under input_scale's rule.
  struct Case {
    std::int64_t nch, nz;
  };
  for (const Case c : {Case{12, 21}, Case{52, 71}, Case{128, 9}}) {
    const us::Probe probe = us::Probe::test_probe(c.nch);
    PipelineConfig config;
    config.grid = us::ImagingGrid::reduced(probe, c.nz, c.nch, 10e-3, 28e-3);
    us::Acquisition silent = random_rf(probe, 900, 0.0, 3);
    for (float& v : silent.rf.data()) v = 0.0f;
    const std::vector<us::Acquisition> acqs = {
        random_rf(probe, 900, 0.0, 1), random_rf(probe, 900, 0.0, 2), silent};
    Rng rng(static_cast<std::uint64_t>(c.nch));
    const auto model = std::make_shared<const models::TinyVbf>(
        models::TinyVbfConfig::test(c.nch, c.nch), rng);
    for (const auto& beamformer : {float_vbf(model), hybrid2(model)}) {
      std::vector<Tensor> want;
      for (const us::Acquisition& acq : acqs)
        want.push_back(
            bmode(beamformer->beamform(us::tof_correct(acq, config.grid, {}))));
      const std::vector<Tensor> got = run(
          std::make_shared<ReplaySource>(acqs, 6), beamformer, config);
      const std::string where =
          beamformer->name() + ", nch " + std::to_string(c.nch);
      ASSERT_EQ(got.size(), 6u) << where;
      for (std::size_t k = 0; k < got.size(); ++k)
        EXPECT_TRUE(same_bits(got[k], want[k % 3]))
            << where << ", frame " << k;
      EXPECT_EQ(counter_->accepted, 6) << where;
      EXPECT_EQ(counter_->cube_calls, 0) << where;
      // The tof stage reads 0; the gather counts in beamform.
      EXPECT_EQ(report_.stage("tof").total_s, 0.0) << where;
      EXPECT_GT(report_.stage("beamform").total_s, 0.0) << where;
    }
  }
}

TEST_F(FusedFrameTest, OtherFramesTakeTheCubePath) {
  const us::Probe probe = us::Probe::test_probe(12);
  const us::ImagingGrid on =
      us::ImagingGrid::reduced(probe, 21, 12, 10e-3, 28e-3);
  const us::ImagingGrid off =
      us::ImagingGrid::reduced(probe, 21, 24, 10e-3, 28e-3);
  Rng rng(3);
  const auto model12 = std::make_shared<const models::TinyVbf>(
      models::TinyVbfConfig::test(12, 12), rng);
  const auto model24 = std::make_shared<const models::TinyVbf>(
      models::TinyVbfConfig::test(12, 24), rng);
  const us::Acquisition zero = random_rf(probe, 900, 0.0, 4);
  const us::Acquisition steered = random_rf(probe, 900, 0.1, 5);
  const us::Acquisition zero2 = random_rf(probe, 900, 0.0, 6);
  struct Case {
    const char* what;
    us::ImagingGrid grid;
    us::TofParams tof;
    std::vector<us::Acquisition> angles;  // one frame's acquisitions
    std::shared_ptr<const models::TinyVbf> model;
  };
  const std::vector<Case> cases = {
      {"steered", on, {}, {steered}, model12},
      {"off-element", off, {}, {zero}, model24},
      {"analytic", on, {.analytic = true}, {zero}, model12},
      {"cubic", on, {.interp = dsp::Interp::kCubic}, {zero}, model12},
      {"multi-angle", on, {}, {zero, zero2}, model12},
  };
  for (const Case& c : cases) {
    std::vector<us::TofCube> cubes;
    std::vector<const us::TofCube*> views;
    for (const us::Acquisition& acq : c.angles)
      cubes.push_back(us::tof_correct(acq, c.grid, c.tof));
    for (const us::TofCube& cube : cubes) views.push_back(&cube);
    us::TofCube compounded;
    bf::compound_cubes(views, compounded);
    const auto beamformer = float_vbf(c.model);
    const Tensor want = bmode(beamformer->beamform(compounded));
    PipelineConfig config;
    config.grid = c.grid;
    config.tof = c.tof;
    const std::vector<Tensor> got = run(
        std::make_shared<ReplaySource>(c.angles, 2, 30.0, c.angles.size()),
        beamformer, config);
    ASSERT_EQ(got.size(), 2u) << c.what;
    for (const Tensor& db : got) EXPECT_TRUE(same_bits(db, want)) << c.what;
    EXPECT_EQ(counter_->offers, 0) << c.what;
    EXPECT_EQ(counter_->cube_calls, 2) << c.what;
    EXPECT_GT(report_.stage("tof").total_s, 0.0) << c.what;
  }
  // DAS declines the plan: beamform() applies it first, timed as tof.
  PipelineConfig config;
  config.grid = on;
  const auto das = std::make_shared<bf::DasBeamformer>(probe);
  const Tensor want = bmode(das->beamform(us::tof_correct(zero, on, {})));
  const std::vector<Tensor> got = run(
      std::make_shared<ReplaySource>(std::vector<us::Acquisition>{zero}, 2),
      das, config);
  ASSERT_EQ(got.size(), 2u);
  for (const Tensor& db : got) EXPECT_TRUE(same_bits(db, want));
  EXPECT_EQ(counter_->offers, 2);
  EXPECT_EQ(counter_->accepted, 0);
  EXPECT_EQ(counter_->cube_calls, 2);
  EXPECT_GT(report_.stage("tof").total_s, 0.0);
}

TEST_F(FusedFrameTest, MismatchedT0ThrowsOutOfRun) {
  // A replayed acquisition with a NaN t0 (a corrupt recording): the plan
  // cache rejects its non-finite key in prepare(), before any plan is
  // offered to the beamformer. run() must rethrow it after joining the
  // producer, which is still feeding frames.
  const us::Probe probe = us::Probe::test_probe(12);
  PipelineConfig config;
  config.grid = us::ImagingGrid::reduced(probe, 21, 12, 10e-3, 28e-3);
  us::Acquisition acq = random_rf(probe, 900, 0.0, 7);
  acq.t0 = std::numeric_limits<double>::quiet_NaN();
  Rng rng(8);
  const auto model = std::make_shared<const models::TinyVbf>(
      models::TinyVbfConfig::test(12, 12), rng);
  EXPECT_THROW(
      run(std::make_shared<ReplaySource>(std::vector<us::Acquisition>{acq},
                                         16),
          float_vbf(model), config),
      InvalidArgument);
  EXPECT_EQ(counter_->offers, 0);
  EXPECT_EQ(counter_->accepted, 0);
}

}  // namespace
}  // namespace tvbf::rt
