// Fault-injection doubles shared by the runtime and serve suites: a frame
// source and a beamformer that throw std::runtime_error at a chosen frame.
#pragma once

#include <atomic>
#include <cstdint>
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
