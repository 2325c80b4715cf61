// Tests for the model zoo: Tiny-VBF, Tiny-CNN, FCNN — shapes, op counts
// (the paper's GOPs/frame comparison), adapters, dataset and training.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "models/complexity.hpp"
#include "models/dataset.hpp"
#include "models/fcnn.hpp"
#include "models/neural_beamformer.hpp"
#include "models/tiny_cnn.hpp"
#include "models/tiny_vbf.hpp"
#include "models/tiny_vbf_engine.hpp"
#include "models/trainer.hpp"
#include "tensor/tensor_ops.hpp"

namespace tvbf::models {
namespace {

Tensor random_input(std::int64_t nz, std::int64_t nx, std::int64_t nch,
                    Rng& rng) {
  Tensor t({nz, nx, nch});
  for (auto& v : t.data()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return t;
}

/// Same shape and the same bits (max_abs_diff == 0 would let -0 pass as +0).
bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.raw(), b.raw(),
                     static_cast<std::size_t>(a.size()) * sizeof(float)) == 0;
}

TEST(TinyVbfConfig, ValidationAndPresets) {
  TinyVbfConfig c = TinyVbfConfig::paper();
  EXPECT_NO_THROW(c.validate());
  EXPECT_EQ(c.num_patches(), 32);
  c.patch_size = 5;  // 128 % 5 != 0
  EXPECT_THROW(c.validate(), InvalidArgument);
  c = TinyVbfConfig::test();
  EXPECT_NO_THROW(c.validate());
  c.d_model = 15;  // not divisible by heads
  EXPECT_THROW(c.validate(), InvalidArgument);
}

TEST(TinyVbf, ForwardShapeAndDeterminism) {
  Rng rng(1);
  const TinyVbf model(TinyVbfConfig::test(8, 16), rng);
  Rng drng(2);
  const Tensor x = random_input(12, 16, 8, drng);
  const Tensor y1 = model.infer(x);
  const Tensor y2 = model.infer(x);
  ASSERT_EQ(y1.shape(), (Shape{12, 16, 2}));
  EXPECT_TRUE(allclose(y1, y2, 0.0f, 0.0f));
}

TEST(TinyVbf, RejectsWrongInputShape) {
  Rng rng(3);
  const TinyVbf model(TinyVbfConfig::test(8, 16), rng);
  EXPECT_THROW(model.infer(Tensor({12, 16, 4})), InvalidArgument);
  EXPECT_THROW(model.infer(Tensor({12, 8, 8})), InvalidArgument);
  EXPECT_THROW(model.infer(Tensor({12, 16})), InvalidArgument);
}

TEST(TinyVbf, ParameterListIsStableAndComplete) {
  Rng rng(4);
  const TinyVbf model(TinyVbfConfig::test(8, 16), rng);
  const auto params = model.parameters();
  std::int64_t total = 0;
  for (const auto& p : params) total += p.value().size();
  EXPECT_EQ(total, model.num_parameters());
  EXPECT_GT(total, 1000);
  for (const auto& p : params) EXPECT_TRUE(p.requires_grad());
}

TEST(TinyVbf, PaperConfigOpsMatchReportedRegime) {
  // The paper reports 0.34 GOPs/frame at 368 x 128; our tuned config must
  // land in that regime (same order, 0.2 .. 0.6).
  Rng rng(5);
  const TinyVbf model(TinyVbfConfig::paper(), rng);
  const double gops =
      static_cast<double>(model.ops_per_frame(368)) / 1e9;
  EXPECT_GT(gops, 0.15) << "model unrealistically small";
  EXPECT_LT(gops, 0.6) << "model too heavy vs paper's 0.34";
}

TEST(TinyVbf, AttentionGivesGlobalReceptiveField) {
  // Perturbing a far lateral patch changes the output at patch 0 — the ViT
  // property the paper contrasts against CNN locality.
  Rng rng(6);
  const TinyVbf model(TinyVbfConfig::test(8, 32), rng);
  Rng drng(7);
  Tensor x = random_input(4, 32, 8, drng);
  const Tensor y0 = model.infer(x);
  for (std::int64_t c = 0; c < 8; ++c) x.at(2, 31, c) += 1.0f;  // far patch
  const Tensor y1 = model.infer(x);
  double delta = 0.0;
  for (std::int64_t c = 0; c < 2; ++c)
    delta += std::fabs(y1.at(2, 0, c) - y0.at(2, 0, c));
  EXPECT_GT(delta, 1e-6);
}

TEST(TinyVbfEngine, InferIsBitIdenticalToAutogradForward) {
  // infer() runs the tape-free engine in depth tiles of kVbfTileRows, each
  // loaded in slices (8 rows at paper scale, the whole tile at the reduced
  // serving scale); at row counts below, at, just past and across slices
  // and tiles its output must be the autograd forward's bit for bit.
  ASSERT_EQ(kVbfTileRows, 64);
  for (const TinyVbfConfig& config :
       {TinyVbfConfig::paper(), TinyVbfConfig::test(32, 64)}) {
    Rng rng(11);
    const TinyVbf model(config, rng);
    for (const std::int64_t nz : {1, 7, 8, 9, 63, 64, 65, 71, 130}) {
      Rng drng(static_cast<std::uint64_t>(100 + nz));
      const Tensor x =
          random_input(nz, config.num_lateral, config.in_channels, drng);
      EXPECT_TRUE(
          same_bits(model.infer(x), model.forward(nn::constant(x)).value()))
          << "nx " << config.num_lateral << ", nz " << nz;
    }
  }
}

TEST(TinyVbfEngine, ScalesEachTileAsItLoads) {
  // infer(x, s) is infer() of x with every element times s, so adapters
  // can hand over the raw ToF cube with 1 / max|x|.
  Rng rng(12);
  const TinyVbf model(TinyVbfConfig::test(8, 16), rng);
  Rng drng(13);
  const Tensor x = random_input(70, 16, 8, drng);
  const float s = 1.0f / 3.0f;
  EXPECT_TRUE(same_bits(model.infer(x, s), model.infer(scale(x, s))));
}

TEST(TinyVbfEngine, RowLoaderEqualsTensorOverload) {
  // A loader that copies the rows, scaled, gives the tensor overload's bits,
  // with and without fixed-point formats. The engine asks for each row
  // once, in order, in slices of as many whole rows as fit kVbfSliceBytes:
  // 8 rows at paper scale (64 KB rows), 48 for 52 x 52 rows, a whole tile
  // for 8 KB.
  ASSERT_EQ(kVbfSliceBytes, 512 * 1024);
  struct Case {
    TinyVbfConfig config;
    std::int64_t nz, slice;
  };
  const kernels::FixedFormat snap{32, 10};  // step 2^-10, no clamping
  const std::optional<kernels::DatapathFormats> fixed =
      kernels::DatapathFormats{snap, snap, snap};
  for (const Case& c : {Case{TinyVbfConfig::paper(), 19, 8},
                        Case{TinyVbfConfig::test(52, 52), 71, 48},
                        Case{TinyVbfConfig::test(32, 64), 71, 64}}) {
    Rng rng(14);
    const TinyVbf model(c.config, rng);
    const TinyVbfWeights weights = weights_of(model);
    Rng drng(15);
    const Tensor x = random_input(c.nz, c.config.num_lateral,
                                  c.config.in_channels, drng);
    const float s = 0.3f;
    const std::int64_t row = c.config.num_lateral * c.config.in_channels;
    std::vector<std::pair<std::int64_t, std::int64_t>> calls;
    const RowLoader load = [&](std::int64_t z0, std::int64_t rows,
                               float* out) {
      calls.emplace_back(z0, rows);
      for (std::int64_t i = 0; i < rows * row; ++i)
        out[i] = x.raw()[z0 * row + i] * s;
    };
    const std::string where = "nx " + std::to_string(c.config.num_lateral);
    for (const auto& formats : {std::optional<kernels::DatapathFormats>{},
                                fixed}) {
      calls.clear();
      EXPECT_TRUE(same_bits(run_tiny_vbf(c.config, weights, x.shape(), load,
                                         formats),
                            run_tiny_vbf(c.config, weights, x, s, formats)))
          << where << (formats ? ", formats" : "");
      std::int64_t next = 0;
      for (const auto& [z0, rows] : calls) {
        EXPECT_EQ(z0, next) << where;
        EXPECT_GE(rows, 1) << where;
        EXPECT_LE(rows, c.slice) << where;
        next = z0 + rows;
      }
      EXPECT_EQ(next, c.nz) << where;
      EXPECT_EQ(calls.front().second, c.slice) << where;
    }
    EXPECT_TRUE(same_bits(model.infer(x.shape(), load), model.infer(x, s)))
        << where;
  }
}

TEST(TinyVbfEngine, RowLayoutLoadsEqualTheTensorOverload) {
  // Rows in a padded, channel-reversed layout, loaded by the pool's
  // workers, give the tensor overload's bits, with and without formats; a
  // layout that reaches outside its rows, or has the wrong channel count,
  // throws.
  Rng rng(16);
  const TinyVbfConfig config = TinyVbfConfig::test(8, 16);
  const TinyVbf model(config, rng);
  const TinyVbfWeights weights = weights_of(model);
  Rng drng(17);
  const Tensor x = random_input(21, 16, 8, drng);
  const std::int64_t nx = 16, nch = 8, row_floats = nx * nch + 5;
  RowLayout layout{row_floats, 3 + (nx - 1) * nch, -nch, {}};
  for (std::int64_t c = 0; c < nch; ++c)
    layout.channel_offset.push_back(nch - 1 - c);
  const RowLoader load = [&](std::int64_t z0, std::int64_t rows, float* out) {
    std::fill_n(out, rows * row_floats, 0.0f);
    for (std::int64_t r = 0; r < rows; ++r)
      for (std::int64_t ix = 0; ix < nx; ++ix)
        for (std::int64_t c = 0; c < nch; ++c)
          out[r * row_floats + layout.origin + ix * layout.pixel_step +
              layout.channel_offset[static_cast<std::size_t>(c)]] =
              x.raw()[((z0 + r) * nx + ix) * nch + c] * 0.5f;
  };
  const kernels::FixedFormat snap{32, 8};  // step 2^-8, no clamping
  for (const auto& formats : {std::optional<kernels::DatapathFormats>{},
                              std::optional(kernels::DatapathFormats{
                                  snap, snap, snap})})
    EXPECT_TRUE(same_bits(
        run_tiny_vbf(config, weights, x.shape(), layout, load, formats),
        run_tiny_vbf(config, weights, x, 0.5f, formats)));
  EXPECT_TRUE(
      same_bits(model.infer(x.shape(), layout, load), model.infer(x, 0.5f)));
  RowLayout outside = layout;
  outside.origin = 0;  // pixel 15 at -120
  EXPECT_THROW(model.infer(x.shape(), outside, load), InvalidArgument);
  outside = layout;
  outside.row_floats = nx * nch;  // pixel 0 at 3 + 127
  EXPECT_THROW(model.infer(x.shape(), outside, load), InvalidArgument);
  outside = layout;
  outside.channel_offset.pop_back();
  EXPECT_THROW(model.infer(x.shape(), outside, load), InvalidArgument);
}

TEST(TinyCnn, ForwardShapeAndOps) {
  Rng rng(8);
  const TinyCnn model(TinyCnnConfig::test(8), rng);
  Rng drng(9);
  const Tensor x = random_input(10, 12, 8, drng);
  const Tensor y = model.infer(x);
  ASSERT_EQ(y.shape(), (Shape{10, 12}));
  EXPECT_THROW(model.infer(Tensor({10, 12, 4})), InvalidArgument);
  EXPECT_GT(model.ops_per_frame(10, 12), 0);
}

TEST(TinyCnn, PaperConfigOpsMatchReportedRegime) {
  // Paper: Tiny-CNN = 11.7 GOPs/frame at 368 x 128.
  const TinyCnnConfig cfg = TinyCnnConfig::paper();
  Rng rng(10);
  const TinyCnn model(cfg, rng);
  const double gops =
      static_cast<double>(model.ops_per_frame(368, 128)) / 1e9;
  EXPECT_GT(gops, 6.0);
  EXPECT_LT(gops, 20.0);
}

TEST(Fcnn, ForwardShapeAndOps) {
  Rng rng(11);
  const Fcnn model(FcnnConfig::test(8), rng);
  Rng drng(12);
  const Tensor x = random_input(10, 12, 8, drng);
  const Tensor y = model.infer(x);
  ASSERT_EQ(y.shape(), (Shape{10, 12}));
  // Paper: FCNN = 1.4 GOPs/frame at 368 x 128.
  Rng rng2(13);
  const Fcnn paper_model(FcnnConfig::paper(), rng2);
  const double gops =
      static_cast<double>(paper_model.ops_per_frame(368, 128)) / 1e9;
  EXPECT_GT(gops, 0.7);
  EXPECT_LT(gops, 3.0);
}

TEST(Complexity, OrderingMatchesPaper) {
  // Tiny-VBF < FCNN < Tiny-CNN < MVDR in ops/frame (the headline claim).
  Rng rng(14);
  const TinyVbf vbf(TinyVbfConfig::paper(), rng);
  const TinyCnn cnn(TinyCnnConfig::paper(), rng);
  const Fcnn fcnn(FcnnConfig::paper(), rng);
  const auto vbf_ops = vbf.ops_per_frame(368);
  const auto cnn_ops = cnn.ops_per_frame(368, 128);
  const auto fcnn_ops = fcnn.ops_per_frame(368, 128);
  const auto mvdr_ops = mvdr_ops_per_frame(368, 128, 128, 64);
  EXPECT_LT(vbf_ops, fcnn_ops);
  EXPECT_LT(fcnn_ops, cnn_ops);
  EXPECT_LT(cnn_ops, mvdr_ops);
  // MVDR should be tens of GOPs (paper quotes 98.78 for a GPU variant).
  EXPECT_GT(static_cast<double>(mvdr_ops) / 1e9, 20.0);
}

TEST(Complexity, LiteratureEntriesPresent) {
  const auto lit = literature_complexity();
  ASSERT_EQ(lit.size(), 3u);
  EXPECT_DOUBLE_EQ(lit[0].gops_per_frame, 50.0);
  EXPECT_DOUBLE_EQ(lit[1].gops_per_frame, 199.0);
  EXPECT_FALSE(lit[0].measured);
  EXPECT_THROW(mvdr_ops_per_frame(0, 128, 128, 64), InvalidArgument);
  EXPECT_THROW(das_ops_per_frame(368, 128, 0), InvalidArgument);
}

class ModelPipeline : public ::testing::Test {
 protected:
  void SetUp() override {
    probe_ = us::Probe::test_probe(16);
    grid_ = us::ImagingGrid::reduced(probe_, 48, 16, 12e-3, 26e-3);
    params_.sim.add_noise = false;
    params_.sim.max_depth = 30e-3;
    params_.mvdr.subaperture = 8;
    Rng rng(100);
    us::Region region;
    region.x_min = probe_.element_x(0);
    region.x_max = probe_.element_x(15);
    region.z_min = grid_.z0;
    region.z_max = grid_.z_end();
    us::SpeckleOptions opt;
    opt.density_per_mm2 = 0.5;
    phantom_ = us::make_speckle(region, opt, rng);
  }

  us::Probe probe_;
  us::ImagingGrid grid_;
  DatasetParams params_;
  us::Phantom phantom_;
};

TEST_F(ModelPipeline, MakeFrameShapesAndNormalization) {
  const TrainingFrame frame = make_frame(probe_, grid_, phantom_, params_);
  EXPECT_EQ(frame.input.shape(), (Shape{48, 16, 16}));
  EXPECT_EQ(frame.target_iq.shape(), (Shape{48, 16, 2}));
  EXPECT_EQ(frame.target_rf.shape(), (Shape{48, 16}));
  EXPECT_LE(max_abs(frame.input), 1.0f);
  EXPECT_LE(max_abs(frame.target_iq), 1.0f);
  EXPECT_GT(max_abs(frame.input), 0.1f);   // normalized to peak 1
  EXPECT_GT(max_abs(frame.target_iq), 0.1f);
  // target_rf is the real (I) plane of target_iq.
  EXPECT_FLOAT_EQ(frame.target_rf.at(10, 5), frame.target_iq.at(10, 5, 0));
}

TEST_F(ModelPipeline, TrainingSetIsDeterministic) {
  const auto set1 = make_training_set(probe_, grid_, 2, params_);
  const auto set2 = make_training_set(probe_, grid_, 2, params_);
  ASSERT_EQ(set1.size(), 2u);
  EXPECT_TRUE(allclose(set1[0].input, set2[0].input, 0.0f, 0.0f));
  EXPECT_TRUE(allclose(set1[1].target_iq, set2[1].target_iq, 0.0f, 0.0f));
  EXPECT_THROW(make_training_set(probe_, grid_, 0, params_), InvalidArgument);
}

TEST_F(ModelPipeline, TrainingReducesLossTinyVbf) {
  const auto frames = make_training_set(probe_, grid_, 2, params_);
  Rng rng(200);
  const TinyVbf model(TinyVbfConfig::test(16, 16), rng);
  TrainOptions opt;
  opt.epochs = 30;
  opt.initial_lr = 3e-3;
  opt.final_lr = 1e-4;
  const TrainReport rep = train_model(
      [&](const Tensor& in) { return model.forward(nn::constant(in)); },
      model.parameters(), frames, TargetKind::kIq, opt);
  ASSERT_EQ(rep.epoch_loss.size(), 30u);
  EXPECT_LT(rep.final_loss, rep.epoch_loss.front() * 0.5);
}

TEST_F(ModelPipeline, TrainingReducesLossFcnn) {
  const auto frames = make_training_set(probe_, grid_, 2, params_);
  Rng rng(201);
  const Fcnn model(FcnnConfig::test(16), rng);
  TrainOptions opt;
  opt.epochs = 30;
  opt.initial_lr = 3e-3;
  opt.final_lr = 1e-4;
  const TrainReport rep = train_model(
      [&](const Tensor& in) { return model.forward(nn::constant(in)); },
      model.parameters(), frames, TargetKind::kRf, opt);
  EXPECT_LT(rep.final_loss, rep.epoch_loss.front());
}

TEST_F(ModelPipeline, AdaptersProduceIqImages) {
  const us::Acquisition acq =
      us::simulate_plane_wave(probe_, phantom_, 0.0, params_.sim);
  const us::TofCube cube = us::tof_correct(acq, grid_, {});
  Rng rng(300);
  const auto vbf_model =
      std::make_shared<TinyVbf>(TinyVbfConfig::test(16, 16), rng);
  const TinyVbfBeamformer vbf(vbf_model);
  const TinyCnnBeamformer cnn(
      std::make_shared<TinyCnn>(TinyCnnConfig::test(16), rng));
  const FcnnBeamformer fcnn(
      std::make_shared<Fcnn>(FcnnConfig::test(16), rng));
  for (const bf::Beamformer* b :
       {static_cast<const bf::Beamformer*>(&vbf),
        static_cast<const bf::Beamformer*>(&cnn),
        static_cast<const bf::Beamformer*>(&fcnn)}) {
    const Tensor iq = b->beamform(cube);
    EXPECT_EQ(iq.shape(), (Shape{48, 16, 2})) << b->name();
    EXPECT_GT(max_abs(iq), 0.0f) << b->name();
  }
  // The adapter scales the raw cube as it loads it: same bits as running
  // the network on the normalized copy.
  EXPECT_TRUE(same_bits(vbf.beamform(cube),
                        vbf_model->infer(normalized_input(cube))));
  EXPECT_EQ(vbf.name(), "Tiny-VBF");
  EXPECT_EQ(cnn.name(), "Tiny-CNN");
  EXPECT_EQ(fcnn.name(), "FCNN");
}

TEST(Adapters, RejectNullModel) {
  EXPECT_THROW(TinyVbfBeamformer(nullptr), InvalidArgument);
  EXPECT_THROW(TinyCnnBeamformer(nullptr), InvalidArgument);
  EXPECT_THROW(FcnnBeamformer(nullptr), InvalidArgument);
}

TEST(Adapters, RfToIqPreservesSignalEnvelope) {
  // rf_image_to_iq on a modulated column gives I == input.
  Tensor rf({64, 1});
  for (std::int64_t z = 0; z < 64; ++z)
    rf.at(z, 0) = static_cast<float>(
        std::exp(-(z - 32.0) * (z - 32.0) / 50.0) *
        std::cos(2.0 * M_PI * 0.2 * z));
  const Tensor iq = rf_image_to_iq(rf);
  ASSERT_EQ(iq.shape(), (Shape{64, 1, 2}));
  for (std::int64_t z = 8; z < 56; ++z)
    EXPECT_NEAR(iq.at(z, 0, 0), rf.at(z, 0), 5e-2);
}

TEST(Trainer, ValidatesArguments) {
  Rng rng(400);
  const Fcnn model(FcnnConfig::test(4), rng);
  TrainOptions opt;
  opt.epochs = 0;
  std::vector<TrainingFrame> frames(1);
  frames[0].input = Tensor({4, 4, 4});
  frames[0].target_rf = Tensor({4, 4});
  frames[0].target_iq = Tensor({4, 4, 2});
  EXPECT_THROW(
      train_model([&](const Tensor& in) { return model.forward(nn::constant(in)); },
                  model.parameters(), frames, TargetKind::kRf, opt),
      InvalidArgument);
  opt.epochs = 1;
  EXPECT_THROW(
      train_model([&](const Tensor& in) { return model.forward(nn::constant(in)); },
                  model.parameters(), {}, TargetKind::kRf, opt),
      InvalidArgument);
}

}  // namespace
}  // namespace tvbf::models
