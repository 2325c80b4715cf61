// Golden outputs: the IQ images of DAS, float Tiny-VBF and Hybrid-2
// Tiny-VBF on one small fixed-seed scene, compared with float32 values
// stored in tests/golden/, and a digest of one paper-scale ToF cube. The
// other output tests compare one code path with another (engine vs
// autograd, served vs solo), so a change that moves both sides passes them;
// these do not.
//
// Each golden carries a max |diff| and an RMS bound. A bound is nonzero
// where the arithmetic may legitimately differ: builds with and without the
// AVX2/FMA kernels (-DTVBF_KERNEL_SIMD=OFF, and -O0 builds, round GEMM
// products separately), and output changes a commit declared. CHANGES.md
// records every bound and what it was measured against.
//
// A paper-scale cube (24 MB) is too large to store, so it is pinned by a
// 64-bit FNV-1a digest of its bytes instead; its bound is exact. So are
// its DAS channel sum, the scene's DAS IQ from an analytic cube, ToF cubes
// of steered and cubic plans, and one Hilbert transform.
//
// Regenerate with `test_golden --regenerate=<file>[,<file>]`, naming each
// file under tests/golden/ to rewrite; every other golden is still checked.
// It prints each rewritten file's diff statistics against the values it
// replaces (for a digest, whether it changed); report them in CHANGES.md.
// A bare `--regenerate`, or a name that no test of the run writes, fails.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "beamform/das.hpp"
#include "common/rng.hpp"
#include "dsp/hilbert.hpp"
#include "kernels/reduce.hpp"
#include "us/probe.hpp"
#include "models/neural_beamformer.hpp"
#include "quant/quantized_tiny_vbf.hpp"
#include "quant/scheme.hpp"
#include "us/phantom.hpp"
#include "us/simulator.hpp"
#include "us/tof.hpp"
#include "us/tof_plan.hpp"

namespace tvbf {
namespace {

/// The files --regenerate names, and those the run rewrote.
std::set<std::string> g_regenerate;
std::set<std::string> g_rewritten;

/// True when `file` is to be rewritten rather than checked.
bool regenerating(const std::string& file) {
  if (g_regenerate.count(file) == 0) return false;
  g_rewritten.insert(file);
  return true;
}

/// One stored output and the largest differences it accepts.
struct Golden {
  const char* file;
  double max_abs;  ///< bound on max |out - golden|
  double rms;      ///< bound on sqrt(mean((out - golden)^2))
};

struct DiffStats {
  double max_abs = 0.0;
  double rms = 0.0;
  std::int64_t changed = 0;
};

/// The stored values, or an empty vector when the file is missing.
std::vector<float> read_f32(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return {};
  const auto bytes = static_cast<std::size_t>(in.tellg());
  std::vector<float> v(bytes / sizeof(float));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(v.size() * sizeof(float)));
  return v;
}

DiffStats diff(const Tensor& out, const std::vector<float>& golden) {
  DiffStats s;
  double sq = 0.0;
  for (std::int64_t i = 0; i < out.size(); ++i) {
    const float a = out.raw()[i];
    const float b = golden[static_cast<std::size_t>(i)];
    if (std::memcmp(&a, &b, sizeof(float)) != 0) ++s.changed;
    const double d = std::fabs(static_cast<double>(a) - b);
    s.max_abs = std::max(s.max_abs, std::isnan(d) ? INFINITY : d);
    sq += d * d;
  }
  s.rms = std::sqrt(sq / static_cast<double>(std::max<std::int64_t>(out.size(), 1)));
  return s;
}

std::string describe(const DiffStats& s, std::int64_t n) {
  std::ostringstream os;
  os << std::setprecision(3) << s.changed << " of " << n
     << " values differ, max |diff| " << s.max_abs << ", RMS " << s.rms;
  return os.str();
}

void check_golden(const Golden& g, const Tensor& out) {
  const std::string path = std::string(TVBF_GOLDEN_DIR) + "/" + g.file;
  const std::vector<float> golden = read_f32(path);
  if (regenerating(g.file)) {
    if (static_cast<std::int64_t>(golden.size()) == out.size())
      std::cout << g.file << ": " << describe(diff(out, golden), out.size())
                << " against the replaced values\n";
    std::ofstream f(path, std::ios::binary);
    ASSERT_TRUE(f) << "cannot write " << path;
    f.write(reinterpret_cast<const char*>(out.raw()),
            static_cast<std::streamsize>(out.size() * sizeof(float)));
    return;
  }
  ASSERT_EQ(static_cast<std::int64_t>(golden.size()), out.size())
      << path << " is missing or has the wrong size; run "
      << "test_golden --regenerate=" << g.file;
  const DiffStats s = diff(out, golden);
  std::cout << g.file << ": " << describe(s, out.size()) << "\n";
  EXPECT_LE(s.max_abs, g.max_abs) << g.file;
  EXPECT_LE(s.rms, g.rms) << g.file;
}

/// FNV-1a (64-bit) over the bytes of t's values, in order, continuing
/// from `h` (so fnv1a(b, fnv1a(a)) digests a then b).
std::uint64_t fnv1a(const Tensor& t, std::uint64_t h = 0xcbf29ce484222325ull) {
  const auto* p = reinterpret_cast<const unsigned char*>(t.raw());
  const std::size_t bytes = static_cast<std::size_t>(t.size()) * sizeof(float);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Compares `digest` with the hex digest stored in `file`, or rewrites it.
void check_digest(const char* file, std::uint64_t digest) {
  const std::string path = std::string(TVBF_GOLDEN_DIR) + "/" + file;
  std::ostringstream got;
  got << std::hex << std::setw(16) << std::setfill('0') << digest;
  std::string stored;
  std::ifstream(path) >> stored;
  if (regenerating(file)) {
    if (!stored.empty())
      std::cout << file << ": digest "
                << (stored == got.str() ? "unchanged"
                                        : "changed from " + stored)
                << "\n";
    std::ofstream f(path);
    ASSERT_TRUE(f) << "cannot write " << path;
    f << got.str() << "\n";
    return;
  }
  ASSERT_FALSE(stored.empty())
      << path << " is missing; run test_golden --regenerate=" << file;
  EXPECT_EQ(got.str(), stored) << file;
}

/// The fixture scene: the 32-element test probe over a 96 x 64 grid, two
/// anechoic cysts in sparse speckle, one 0-degree plane wave.
class Golden96x64 : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    probe_ = std::make_unique<us::Probe>(us::Probe::test_probe(32));
    const us::ImagingGrid grid = us::ImagingGrid::reduced(*probe_, 96, 64);
    Rng rng(17);
    us::SpeckleOptions speckle;
    speckle.density_per_mm2 = 1.0;
    const us::Region region{grid.x0, grid.x_end(), grid.z0, grid.z_end()};
    const us::Phantom phantom = us::make_contrast_phantom(
        rng, {15e-3, 30e-3}, 2.5e-3, region, speckle);
    us::SimParams sim = us::SimParams::in_silico();
    sim.max_depth = grid.z_end() + 3e-3;
    sim.seed = 18;
    const us::Acquisition acq =
        us::simulate_plane_wave(*probe_, phantom, 0.0, sim);
    cube_ = std::make_unique<us::TofCube>(us::tof_correct(acq, grid, {}));
    analytic_cube_ = std::make_unique<us::TofCube>(
        us::tof_correct(acq, grid, {.analytic = true}));
    Rng weights(19);
    model_ = std::make_shared<models::TinyVbf>(
        models::TinyVbfConfig::test(32, 64), weights);
  }

  static void TearDownTestSuite() {
    probe_.reset();
    cube_.reset();
    analytic_cube_.reset();
    model_.reset();
  }

  static std::unique_ptr<us::Probe> probe_;
  static std::unique_ptr<us::TofCube> cube_;           ///< RF
  static std::unique_ptr<us::TofCube> analytic_cube_;  ///< same RF, analytic
  static std::shared_ptr<const models::TinyVbf> model_;
};

std::unique_ptr<us::Probe> Golden96x64::probe_;
std::unique_ptr<us::TofCube> Golden96x64::cube_;
std::unique_ptr<us::TofCube> Golden96x64::analytic_cube_;
std::shared_ptr<const models::TinyVbf> Golden96x64::model_;

TEST_F(Golden96x64, DasIq) {
  const Tensor iq = bf::DasBeamformer(*probe_).beamform(*cube_);
  ASSERT_EQ(iq.shape(), (Shape{96, 64, 2}));
  // DAS accumulates in double outside the FMA kernels: gcc Release, -O0
  // and SIMD-off builds all reproduce the stored bits. The bound (about 7
  // float ulps at the image's peak of 169.5) stays nonzero because clang
  // builds are not checked against it here.
  check_golden({"das_iq.f32", 1e-4, 1e-5}, iq);
}

TEST_F(Golden96x64, DasAnalyticIq) {
  // The analytic cube's channel sum is the IQ image itself (no Hilbert
  // stage after it), pinned exactly: the DAS sum accumulates in double in
  // channel order, outside the FMA kernels, in every build.
  const Tensor iq = bf::DasBeamformer(*probe_).beamform(*analytic_cube_);
  ASSERT_EQ(iq.shape(), (Shape{96, 64, 2}));
  check_digest("das_analytic_iq.fnv1a", fnv1a(iq));
}

TEST_F(Golden96x64, TinyVbfFloatIq) {
  const Tensor iq = models::TinyVbfBeamformer(model_).beamform(*cube_);
  ASSERT_EQ(iq.shape(), (Shape{96, 64, 2}));
  // Peak |x| 4.2. Measured against the stored values, written while the
  // softmax still called std::exp:
  //  - the polynomial softmax exp (kernels::exp_nonpositive), gcc Release:
  //    9,894 of 12,288 values, max |diff| 1.01e-6, RMS 2.1e-7;
  //  - builds without fused GEMM products (SIMD off, -O0): max |diff|
  //    3.04e-6, RMS 3.73e-7 before the softmax change; 2.74e-6 and
  //    3.68e-7 with it.
  check_golden({"tiny_vbf_float_iq.f32", 1e-5, 1e-6}, iq);
}

TEST_F(Golden96x64, TinyVbfHybrid2Iq) {
  const quant::QuantizedVbfBeamformer hybrid2(
      std::make_shared<quant::QuantizedTinyVbf>(
          *model_, quant::QuantScheme::hybrid2()));
  const Tensor iq = hybrid2.beamform(*cube_);
  ASSERT_EQ(iq.shape(), (Shape{96, 64, 2}));
  // The output grid step is 2^-7. The polynomial softmax exp, SIMD-off
  // and -O0 builds all reproduce the stored bits; the bound allows
  // one-step flips in up to 1/64 of values.
  check_golden({"tiny_vbf_hybrid2_iq.f32", 0x1p-7, 0x1p-10}, iq);
  // That bound cannot show bit-identity, so the same IQ is also pinned
  // exactly by its digest: a rounding change that flips one value fails.
  check_digest("tiny_vbf_hybrid2_iq.fnv1a", fnv1a(iq));
}

/// The RF ToF cube of one paper-scale frame: ImagingGrid::paper under the
/// L11-5v probe at 0 degrees, a linear plan, over fixed-seed Gaussian RF
/// (no simulation needed). 1,828 samples is the simulator's window for
/// 45 mm, so the deepest outer pixels fall outside it and read 0. The same
/// cube assembled through slot_offset from the plan's cube-free slot rows
/// (the compact-RF kernel), in uneven row ranges at scale 1, must give the
/// same digest, and the plan's peak must be max_abs of the cube. The DAS
/// channel sum of the cube (beamform_rf, before the Hilbert stage) is
/// pinned too.
TEST(GoldenDigest, PaperScaleTofCube) {
  us::Acquisition acq;
  acq.probe = us::Probe::l11_5v();
  acq.rf = Tensor({1828, acq.probe.num_elements});
  Rng rng(23);
  for (auto& v : acq.rf.data()) v = static_cast<float>(rng.normal());
  const us::ImagingGrid grid = us::ImagingGrid::paper(acq.probe);
  const us::TofCube cube = us::tof_correct(acq, grid, {});
  ASSERT_EQ(cube.real.shape(), (Shape{368, 128, 128}));
  check_digest("tof_paper_rf.fnv1a", fnv1a(cube.real));

  const us::TofPlan plan = us::TofPlan::build_for(acq, grid);
  ASSERT_TRUE(plan.reads_rf());
  const std::int64_t nx = grid.nx, nch = acq.probe.num_elements;
  const std::int64_t row = kernels::slot_row_floats(nx, nch);
  std::vector<float> tables(static_cast<std::size_t>(grid.nz * row));
  for (std::int64_t z0 = 0, step = 8; z0 < grid.nz; z0 += step, step ^= 13)
    plan.slot_rows(acq, z0, std::min(step, grid.nz - z0), 1.0f,
                   tables.data() + z0 * row);  // 8 rows, then 5, then 8, ...
  Tensor rows(cube.real.shape());
  for (std::int64_t iz = 0; iz < grid.nz; ++iz)
    for (std::int64_t ix = 0; ix < nx; ++ix)
      for (std::int64_t c = 0; c < nch; ++c)
        rows.raw()[(iz * nx + ix) * nch + c] = tables[static_cast<std::size_t>(
            iz * row + kernels::slot_offset(nx, ix, c))];
  EXPECT_EQ(fnv1a(rows), fnv1a(cube.real));
  if (!regenerating("tof_paper_rf.fnv1a"))
    check_digest("tof_paper_rf.fnv1a", fnv1a(rows));
  const float peak = plan.peak(acq);
  const float max_abs = kernels::max_abs(cube.real.raw(), cube.real.size());
  EXPECT_EQ(std::memcmp(&peak, &max_abs, sizeof(float)), 0)
      << peak << " vs " << max_abs;
  check_digest("das_paper_rf.fnv1a",
               fnv1a(bf::DasBeamformer(acq.probe).beamform_rf(cube)));
}

/// Fixed-seed Gaussian RF for the L11-5v probe, `n` samples per channel.
us::Acquisition l11_rf(std::int64_t n, double angle, double t0) {
  us::Acquisition acq;
  acq.probe = us::Probe::l11_5v();
  acq.steering_angle_rad = angle;
  acq.t0 = t0;
  acq.rf = Tensor({n, acq.probe.num_elements});
  Rng rng(29);
  for (auto& v : acq.rf.data()) v = static_cast<float>(rng.normal());
  return acq;
}

constexpr std::size_t kEntryBytes = sizeof(std::int32_t) + sizeof(float);

/// The RF ToF cubes of full-table plans steered by +8 and then -8 degrees,
/// on the paper grid's columns over its first 96 depth rows, one digest.
TEST(GoldenDigest, SteeredTofCubes) {
  std::uint64_t digest = 0xcbf29ce484222325ull;
  for (const double degrees : {8.0, -8.0}) {
    const us::Acquisition acq = l11_rf(1828, degrees * M_PI / 180.0, 0.0);
    us::ImagingGrid grid = us::ImagingGrid::paper(acq.probe);
    grid.nz = 96;
    const us::TofPlan plan = us::TofPlan::build_for(acq, grid);
    ASSERT_EQ(plan.bytes(), 96u * 128u * 128u * kEntryBytes) << degrees;
    digest = fnv1a(plan.apply(acq, false).real, digest);
  }
  check_digest("tof_steered_rf.fnv1a", digest);
}

/// The RF ToF cubes of two cubic plans at 0 degrees over 1,500 samples with
/// t0 = 6.6 us, so the shallowest entries fall before the window, the
/// deepest past it, and both ends take linear edge entries: a compact plan
/// (128 columns on the elements), then a full one (100 columns off them).
TEST(GoldenDigest, CubicTofCubes) {
  const us::Acquisition acq = l11_rf(1500, 0.0, 6.6e-6);
  std::uint64_t digest = 0xcbf29ce484222325ull;
  for (const std::int64_t nx : {128, 100}) {
    const us::ImagingGrid grid = us::ImagingGrid::reduced(acq.probe, 64, nx);
    const us::TofPlan plan =
        us::TofPlan::build_for(acq, grid, dsp::Interp::kCubic);
    ASSERT_EQ(plan.bytes(),
              (nx == 128 ? 64u * 255u : 64u * 100u * 128u) * kEntryBytes);
    digest = fnv1a(plan.apply(acq, false).real, digest);
  }
  check_digest("tof_cubic_rf.fnv1a", digest);
}

/// dsp::analytic_columns (the Hilbert transform every IQ image passes
/// through) of fixed-seed Gaussian RF, 368 x 128 (FFTs of 512 points).
TEST(GoldenDigest, AnalyticColumns) {
  Tensor rf({368, 128});
  Rng rng(31);
  for (auto& v : rf.data()) v = static_cast<float>(rng.normal());
  check_digest("analytic_columns.fnv1a", fnv1a(dsp::analytic_columns(rf)));
}

}  // namespace
}  // namespace tvbf

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  const std::string flag = "--regenerate";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(flag, 0) != 0) continue;
    if (arg.size() <= flag.size() + 1 || arg[flag.size()] != '=') {
      std::cerr << "test_golden: " << arg
                << " names no file; pass --regenerate=<file>[,<file>] with "
                   "the files under tests/golden/ to rewrite\n";
      return 2;
    }
    std::istringstream names(arg.substr(flag.size() + 1));
    for (std::string name; std::getline(names, name, ',');)
      if (!name.empty()) tvbf::g_regenerate.insert(name);
  }
  const int status = RUN_ALL_TESTS();
  for (const std::string& name : tvbf::g_regenerate)
    if (tvbf::g_rewritten.count(name) == 0) {
      std::cerr << "test_golden: no test of this run writes " << name
                << "\n";
      return 1;
    }
  return status;
}
