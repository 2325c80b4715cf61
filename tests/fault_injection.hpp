// Fault-injection doubles shared by the runtime and serve suites: a frame
// source and a beamformer that throw std::runtime_error at a chosen frame,
// and a source that hands over one frame with a corrupt transmit time.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "beamform/beamformer.hpp"
#include "runtime/frame_source.hpp"

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
