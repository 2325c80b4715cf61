// The benchmark's plug-ins at the stream's extension points: a clocked
// frame source (closed or open loop), a tracing source decorator, and
// tracing beamformer decorators. All of them go through the library's
// public rt::FrameSource and bf::Beamformer interfaces.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "beamform/beamformer.hpp"
#include "runtime/frame_source.hpp"
#include "spans.hpp"

namespace perf {

/// Hands over the frames of an inner source on the benchmark clock.
///
/// Closed loop (period_s == 0): a frame is handed over as soon as it is
/// asked for, until `deadline_s` passes. Its release time is the handover.
/// Open loop (period_s > 0): frame k falls due at start_s + k * period_s,
/// `count` frames in all; next() sleeps until the due time. Its release
/// time is the due time, so a frame asked for late counts its wait.
///
/// next() writes the release time into Frame::time_s, which the library
/// carries through to FrameOutput::time_s, so a sink can time each frame
/// from its release. late_ms() holds, per frame, the handover time minus
/// the due time (the call time in a closed loop).
class ClockedSource : public tvbf::rt::FrameSource {
 public:
  ClockedSource(std::shared_ptr<tvbf::rt::FrameSource> inner, double start_s,
                double period_s,
                std::int64_t count = std::numeric_limits<std::int64_t>::max(),
                double deadline_s = std::numeric_limits<double>::infinity());

  std::string name() const override { return inner_->name(); }
  const tvbf::us::Probe& probe() const override { return inner_->probe(); }
  std::int64_t num_frames() const override { return count_; }
  bool next(tvbf::rt::Frame& frame) override;
  void reset() override;

  /// Frames handed over so far.
  std::int64_t produced() const { return produced_; }
  /// Read only after the consuming Pipeline or Server has returned.
  const std::vector<double>& late_ms() const { return late_ms_; }

 private:
  std::shared_ptr<tvbf::rt::FrameSource> inner_;
  double start_s_;
  double period_s_;
  std::int64_t count_;
  double deadline_s_;
  std::int64_t produced_ = 0;
  std::vector<double> late_ms_;
};

/// Records a "source" span around every next() of the inner source.
class TracedSource : public tvbf::rt::FrameSource {
 public:
  TracedSource(std::shared_ptr<tvbf::rt::FrameSource> inner, SpanLog& log,
               int session)
      : inner_(std::move(inner)), log_(log), session_(session) {}

  std::string name() const override { return inner_->name(); }
  const tvbf::us::Probe& probe() const override { return inner_->probe(); }
  std::int64_t num_frames() const override { return inner_->num_frames(); }
  bool next(tvbf::rt::Frame& frame) override;
  void reset() override { inner_->reset(); }

 private:
  std::shared_ptr<tvbf::rt::FrameSource> inner_;
  SpanLog& log_;
  int session_;
};

/// One beamformer invocation seen by a traced decorator.
struct ForwardCall {
  double t0_s = 0.0;
  double t1_s = 0.0;
  std::int64_t frames = 0;
};

/// Every call of a traced beamformer, and which call produced each IQ
/// image. The library moves the returned IQ tensor into the frame's output
/// without copying it, so FrameOutput::iq's data pointer identifies the
/// call that formed the frame until the session forms its next frame.
class ForwardLedger {
 public:
  void record(const ForwardCall& call, const std::vector<const float*>& outputs);
  /// The call that produced the IQ image at `iq`, if any.
  std::optional<ForwardCall> call_for(const float* iq) const;
  std::vector<ForwardCall> calls() const;

 private:
  mutable std::mutex mu_;
  std::vector<ForwardCall> calls_;
  std::unordered_map<const float*, std::size_t> by_output_;
};

/// Wraps `inner` so every call lands in `ledger`. A batch-capable inner
/// beamformer yields a batch-capable decorator that forwards beamform_batch
/// and encode_cost_probe, so the serving layer still stacks frames through
/// it exactly as it would through `inner`.
std::shared_ptr<const tvbf::bf::Beamformer> traced(
    std::shared_ptr<const tvbf::bf::Beamformer> inner, ForwardLedger& ledger);

}  // namespace perf
