// Tests of the benchmark's own helpers.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "accel/accelerator.hpp"
#include "beamform/das.hpp"
#include "common/rng.hpp"
#include "decorators.hpp"
#include "heap_counter.hpp"
#include "layers.hpp"
#include "models/neural_beamformer.hpp"
#include "scene.hpp"
#include "stats.hpp"

namespace {

using namespace perf;

std::vector<double> ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);
  return v;
}

TEST(Percentile, RefusesP90WithFewerThan100Samples) {
  EXPECT_THROW(percentile(ramp(99), 90), std::invalid_argument);
  EXPECT_DOUBLE_EQ(percentile(ramp(100), 90), 90.0);
  EXPECT_DOUBLE_EQ(percentile(ramp(1000), 90), 900.0);
}

TEST(Percentile, P50NeedsTwentySamples) {
  EXPECT_THROW(percentile(ramp(19), 50), std::invalid_argument);
  EXPECT_DOUBLE_EQ(percentile(ramp(20), 50), 10.0);
}

TEST(Median, EvenAndOddCounts) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(HeapCounter, BalancesAllocsAndFreesAcrossThreads) {
  constexpr int kThreads = 4;
  constexpr std::size_t kMinBytes = kThreads * 2000 * 16;
  const std::size_t before = heap::live_bytes();
  heap::reset_peak();
  {
    // Each thread frees the blocks its neighbour allocated.
    std::vector<std::vector<std::unique_ptr<char[]>>> blocks(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
      threads.emplace_back([&blocks, t] {
        for (int i = 0; i < 2000; ++i)
          blocks[t].push_back(std::make_unique<char[]>(16 + (i * 37) % 5000));
      });
    for (auto& th : threads) th.join();
    EXPECT_GT(heap::live_bytes(), before + kMinBytes);
    threads.clear();
    for (int t = 0; t < kThreads; ++t)
      threads.emplace_back([&blocks, t] { blocks[(t + 1) % kThreads].clear(); });
    for (auto& th : threads) th.join();
  }
  EXPECT_EQ(heap::live_bytes(), before);
  EXPECT_GE(heap::peak_bytes(), before + kMinBytes);
}

std::shared_ptr<tvbf::rt::FrameSource> tiny_replay() {
  tvbf::us::Acquisition acq;
  acq.probe = tvbf::us::Probe::test_probe(4);
  acq.rf = tvbf::Tensor({8, 4});
  return std::make_shared<tvbf::rt::ReplaySource>(
      std::vector<tvbf::us::Acquisition>{acq}, 100);
}

TEST(ClockedSource, OpenLoopCountsLatenessFromTheDueTime) {
  const double start = now_s();
  ClockedSource source(tiny_replay(), start, 0.05, 3);
  tvbf::rt::Frame frame;
  ASSERT_TRUE(source.next(frame));  // frame 0 falls due at once
  EXPECT_DOUBLE_EQ(frame.time_s, start);
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  ASSERT_TRUE(source.next(frame));  // frame 1 fell due 100 ms ago
  EXPECT_DOUBLE_EQ(frame.time_s, start + 0.05);
  ASSERT_EQ(source.late_ms().size(), 2u);
  EXPECT_LT(source.late_ms()[0], 50.0);
  EXPECT_GE(source.late_ms()[1], 100.0);
  ASSERT_TRUE(source.next(frame));  // frame 2 is overdue too
  EXPECT_GE(source.late_ms()[2], 50.0);
  EXPECT_FALSE(source.next(frame));  // count reached
}

TEST(ClockedSource, ClosedLoopReleasesAtHandoverUntilTheDeadline) {
  const double start = now_s();
  ClockedSource source(tiny_replay(), start, 0.0,
                       std::numeric_limits<std::int64_t>::max(), start + 0.05);
  tvbf::rt::Frame frame;
  ASSERT_TRUE(source.next(frame));
  EXPECT_GE(frame.time_s, start);
  EXPECT_LE(frame.time_s, now_s());
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_FALSE(source.next(frame));
  EXPECT_EQ(source.produced(), 1);
}

struct SmallScene {
  tvbf::us::Probe probe = tvbf::us::Probe::test_probe(8);
  std::shared_ptr<const tvbf::models::TinyVbf> model;
  tvbf::us::TofCube a, b;

  SmallScene() {
    tvbf::Rng rng(3);
    model = std::make_shared<tvbf::models::TinyVbf>(tvbf::models::TinyVbfConfig::test(8, 16),
                                                    rng);
    for (tvbf::us::TofCube* cube : {&a, &b}) {
      cube->real = tvbf::Tensor({6, 16, 8});
      for (float& v : cube->real.data()) v = static_cast<float>(rng.normal());
    }
  }
};

TEST(TracedBeamformer, KeepsBatchCapabilityAndBitIdenticalOutput) {
  const SmallScene s;
  const auto inner = std::make_shared<tvbf::models::TinyVbfBeamformer>(s.model);
  ForwardLedger ledger;
  const auto wrapped = traced(inner, ledger);
  const auto* batched = dynamic_cast<const tvbf::bf::BatchedBeamformer*>(wrapped.get());
  ASSERT_NE(batched, nullptr);
  EXPECT_EQ(wrapped->name(), inner->name());

  const tvbf::Tensor solo = wrapped->beamform(s.a);
  EXPECT_TRUE(same_bits(solo, inner->beamform(s.a)));
  const std::vector<tvbf::Tensor> both = batched->beamform_batch({&s.a, &s.b});
  const std::vector<tvbf::Tensor> want = inner->beamform_batch({&s.a, &s.b});
  ASSERT_EQ(both.size(), 2u);
  EXPECT_TRUE(same_bits(both[0], want[0]));
  EXPECT_TRUE(same_bits(both[1], want[1]));

  ASSERT_EQ(ledger.calls().size(), 2u);
  EXPECT_EQ(ledger.calls()[0].frames, 1);
  EXPECT_EQ(ledger.calls()[1].frames, 2);
  const auto call = ledger.call_for(both[1].raw());
  ASSERT_TRUE(call.has_value());
  EXPECT_EQ(call->frames, 2);
}

TEST(TracedBeamformer, PlainBeamformerStaysPlain) {
  ForwardLedger ledger;
  const auto wrapped =
      traced(std::make_shared<tvbf::bf::DasBeamformer>(tvbf::us::Probe::test_probe(8)), ledger);
  EXPECT_EQ(dynamic_cast<const tvbf::bf::BatchedBeamformer*>(wrapped.get()), nullptr);
}

TEST(NnMirror, ReproducesTinyVbfInferBitForBit) {
  const SmallScene s;
  std::vector<std::string> groups;
  const tvbf::Tensor mirrored = mirror_forward(
      *s.model, s.a.real,
      [&](const std::string& g, double t0, double t1) {
        EXPECT_LE(t0, t1);
        groups.push_back(g);
      });
  EXPECT_TRUE(same_bits(mirrored, s.model->infer(s.a.real)));
  for (const std::string& g : kVbfOpGroups)
    EXPECT_NE(std::find(groups.begin(), groups.end(), g), groups.end()) << g;
}

TEST(NnMirror, EveryAcceleratorOpHasAGroup) {
  const auto report = tvbf::accel::AcceleratorSim().run_tiny_vbf(
      tvbf::models::TinyVbfConfig::test(8, 16), 6);
  for (const auto& op : report.ops) {
    const std::string g = op_group(op.name);
    EXPECT_NE(std::find(kVbfOpGroups.begin(), kVbfOpGroups.end(), g), kVbfOpGroups.end())
        << op.name;
  }
}

}  // namespace
