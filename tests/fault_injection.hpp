// Fault-injection doubles shared by the runtime and serve suites: a frame
// source and a beamformer that throw std::runtime_error at a chosen frame,
// a source that hands over one frame with a corrupt transmit time, and one
// whose compounded stream drops to a single angle for one frame. Also the
// one-shot B-mode image those suites compare streamed frames with.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "beamform/beamformer.hpp"
#include "beamform/compounding.hpp"
#include "dsp/hilbert.hpp"
#include "runtime/frame_source.hpp"
#include "runtime/pipeline.hpp"
#include "us/tof.hpp"

namespace tvbf::test {

/// Forwards to `inner` and throws instead of producing frame `fail_at`
/// (0-based). next() runs on one producer thread at a time.
class FailingSource : public rt::FrameSource {
 public:
  FailingSource(std::shared_ptr<rt::FrameSource> inner, std::int64_t fail_at)
      : inner_(std::move(inner)), fail_at_(fail_at) {}

  std::string name() const override { return "failing"; }
  const us::Probe& probe() const override { return inner_->probe(); }
  std::int64_t num_frames() const override { return inner_->num_frames(); }
  bool next(rt::Frame& frame) override {
    if (calls_++ == fail_at_) throw std::runtime_error("source failed");
    return inner_->next(frame);
  }
  void reset() override {
    inner_->reset();
    calls_ = 0;
  }

  /// next() calls since the last reset(), the throwing one included.
  std::int64_t calls() const { return calls_; }

 private:
  std::shared_ptr<rt::FrameSource> inner_;
  std::int64_t fail_at_;
  std::int64_t calls_ = 0;
};

/// Forwards to `inner` and hands over frame `corrupt_at` (0-based) with the
/// t0 of its acquisition `angle` set to NaN, as from a corrupt recording.
/// The plan cache rejects that frame's key with InvalidArgument.
class NanT0Source : public rt::FrameSource {
 public:
  NanT0Source(std::shared_ptr<rt::FrameSource> inner, std::int64_t corrupt_at,
              std::size_t angle)
      : inner_(std::move(inner)), corrupt_at_(corrupt_at), angle_(angle) {}

  std::string name() const override { return "nan_t0"; }
  const us::Probe& probe() const override { return inner_->probe(); }
  std::int64_t num_frames() const override { return inner_->num_frames(); }
  bool next(rt::Frame& frame) override {
    if (!inner_->next(frame)) return false;
    if (calls_++ == corrupt_at_) {
      us::Acquisition& acq = angle_ == 0 ? frame.acq : frame.extra[angle_ - 1];
      acq.t0 = std::numeric_limits<double>::quiet_NaN();
    }
    return true;
  }
  void reset() override {
    inner_->reset();
    calls_ = 0;
  }

 private:
  std::shared_ptr<rt::FrameSource> inner_;
  std::int64_t corrupt_at_;
  std::size_t angle_;
  std::int64_t calls_ = 0;
};

/// Forwards to `inner`, whose frames carry several acquisitions, and hands
/// over frame `single_at` (0-based; none when negative) with its first
/// acquisition only: the stream's angle count changes twice, and the
/// per-angle buffers with it.
class SingleAngleFrameSource : public rt::FrameSource {
 public:
  SingleAngleFrameSource(std::shared_ptr<rt::FrameSource> inner,
                         std::int64_t single_at)
      : inner_(std::move(inner)), single_at_(single_at) {}

  std::string name() const override { return "single_angle"; }
  const us::Probe& probe() const override { return inner_->probe(); }
  std::int64_t num_frames() const override { return inner_->num_frames(); }
  bool next(rt::Frame& frame) override {
    if (!inner_->next(frame)) return false;
    if (calls_++ == single_at_) frame.extra.clear();
    return true;
  }
  void reset() override {
    inner_->reset();
    calls_ = 0;
  }

 private:
  std::shared_ptr<rt::FrameSource> inner_;
  std::int64_t single_at_;
  std::int64_t calls_ = 0;
};

/// The B-mode image of `frame` formed one shot: tof_correct per
/// acquisition, compound_cubes when there are several, beamform, then
/// envelope and log-compression.
inline Tensor one_shot_db(const rt::Frame& frame,
                          const rt::PipelineConfig& config,
                          const bf::Beamformer& beamformer) {
  std::vector<us::TofCube> cubes;
  std::vector<const us::TofCube*> views;
  for (std::size_t i = 0; i < frame.num_acquisitions(); ++i)
    cubes.push_back(
        us::tof_correct(frame.acquisition(i), config.grid, config.tof));
  for (const us::TofCube& cube : cubes) views.push_back(&cube);
  us::TofCube compounded;
  if (cubes.size() > 1) bf::compound_cubes(views, compounded);
  return dsp::log_compress(
      dsp::envelope_iq(beamformer.beamform(cubes.size() > 1 ? compounded
                                                            : cubes.front())),
      config.dynamic_range_db);
}

/// Forwards beamform() to `inner` and throws on call `fail_at` (0-based).
/// Calls may come from different threads, one frame at a time.
class FailingBeamformer : public bf::Beamformer {
 public:
  FailingBeamformer(std::shared_ptr<const bf::Beamformer> inner, int fail_at)
      : inner_(std::move(inner)), fail_at_(fail_at) {}

  std::string name() const override { return "failing"; }
  Tensor beamform(const us::TofCube& cube) const override {
    if (calls_.fetch_add(1, std::memory_order_relaxed) == fail_at_)
      throw std::runtime_error("beamformer failed");
    return inner_->beamform(cube);
  }

 private:
  std::shared_ptr<const bf::Beamformer> inner_;
  int fail_at_;
  mutable std::atomic<int> calls_{0};
};

}  // namespace tvbf::test
