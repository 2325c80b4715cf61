// Streaming image-formation pipeline.
//
// Chains source -> ToF apply (cached plan) -> Beamformer -> envelope /
// log-compression -> sink over reusable frame buffers (a single-angle RF
// frame on a plan that reads RF directly skips the cube; see
// FrameProcessor). A producer thread acquires the next frame (simulated or
// replayed) while the driving thread processes the current one, both sides
// sharing the process-wide thread pool. Per-stage latency statistics and
// plan-cache counters come back in a PipelineReport. serve::Server walks
// each session's frames through the same FrameProcessor::process.
#pragma once

#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "beamform/beamformer.hpp"
#include "graph/arena.hpp"
#include "runtime/frame_source.hpp"
#include "us/tof_plan.hpp"

namespace tvbf::rt {

/// Pipeline controls.
struct PipelineConfig {
  us::ImagingGrid grid;
  us::TofParams tof;  ///< interp flavor + cube kind the beamformer needs
  double dynamic_range_db = 60.0;
};

/// Latency accumulator for one pipeline stage.
struct StageStats {
  std::string name;
  std::int64_t frames = 0;
  double total_s = 0.0;
  double min_s = std::numeric_limits<double>::infinity();
  double max_s = 0.0;

  double mean_s() const { return frames > 0 ? total_s / static_cast<double>(frames) : 0.0; }
  void record(double seconds);
};

/// What one pipeline run did.
struct PipelineReport {
  std::int64_t frames = 0;
  double wall_s = 0.0;
  /// source, tof, compound, beamform, postprocess, sink — in flow order.
  /// The source stage runs on the producer thread, concurrently with the
  /// others, so stage totals can exceed wall_s. The tof stage records the
  /// summed per-angle time of each frame (0 for a frame formed without its
  /// cube, whose gather counts in beamform); compound is zero-cost for
  /// single-angle streams.
  std::vector<StageStats> stages;
  std::uint64_t plan_cache_hits = 0;    ///< delta over this run
  std::uint64_t plan_cache_misses = 0;  ///< delta over this run

  double fps() const { return wall_s > 0.0 ? static_cast<double>(frames) / wall_s : 0.0; }
  const StageStats& stage(const std::string& name) const;
};

/// Per-frame result handed to the sink. The references point at
/// pipeline-owned buffers that are overwritten by the next frame; Tensor
/// copies are deep, so assigning e.g. `out.db` to a local keeps the data.
struct FrameOutput {
  std::int64_t index = 0;
  double time_s = 0.0;
  const Tensor& iq;        ///< (nz, nx, 2) beamformed IQ
  const Tensor& envelope;  ///< (nz, nx)
  const Tensor& db;        ///< (nz, nx) log-compressed B-mode
  /// The source frame's lineage id (Frame::trace_id), carried through so
  /// downstream consumers (the async sink) chain their spans to it.
  std::uint64_t trace_id = 0;
};

/// Reusable per-frame processing state for one stream: the cached per-angle
/// ToF plan handles, per-angle cube slots (arena-recycled), the compounded
/// cube + channel workspaces and the output image tensors. Pipeline drives
/// one FrameProcessor through process(); the serving layer (src/serve) owns
/// one per session and walks each of its frames through process() the same
/// way. Not thread-safe: one frame at a time, from one thread at a time.
///
/// A single-angle RF frame whose cached plan reads RF directly
/// (us::TofPlan::reads_rf) defers its cube: the ToF step does nothing, and
/// the beamform step offers the plan and the acquisition to the beamformer
/// (bf::Beamformer::beamform_through), which forms the image without the
/// cube. If it declines, the plan is applied first, timed as the tof stage.
class FrameProcessor {
 public:
  /// Wall-clock seconds spent per stage by the last frame. `tof_s` is the
  /// sum over the frame's angles; it is 0 for a frame formed without its
  /// cube, whose gather counts in `beamform_s`.
  struct StageTimes {
    double tof_s = 0.0;
    double compound_s = 0.0;
    double beamform_s = 0.0;
    double post_s = 0.0;
  };

  /// The beamformer must accept the cube flavor `config.tof` produces
  /// (analytic for MVDR/CF, RF for DAS and the learned models).
  FrameProcessor(std::shared_ptr<const bf::Beamformer> beamformer,
                 PipelineConfig config);

  /// Full per-frame step: ToF (all angles) -> compound -> beamform ->
  /// envelope/log-compression. The returned FrameOutput references
  /// processor-owned buffers that the next step overwrites; last_times()
  /// holds the step's stage times.
  FrameOutput process(const Frame& frame);

  /// Per-stage times of the frame most recently processed.
  const StageTimes& last_times() const { return times_; }

  const PipelineConfig& config() const { return config_; }
  const bf::Beamformer& beamformer() const { return *beamformer_; }

 private:
  /// Latches `frame`: fetches one cached plan per steering angle and
  /// acquires per-angle cube slots from the arena (multi-angle only).
  void prepare(const Frame& frame);
  /// ToF-corrects acquisition `angle` into its slot (or straight into the
  /// processor cube for single-angle frames; nothing for a deferred cube).
  void apply_tof_angle(const Frame& frame, std::size_t angle);
  /// Folds the per-angle slots into the processor cube (coherent mean) and
  /// releases the slots back to the arena. Single-angle: no-op.
  void compound();
  /// Forms the IQ image: through the plan for a deferred cube the
  /// beamformer accepts, else from the compounded cube.
  void beamform();
  /// Envelope/log-compression over the IQ image.
  FrameOutput finish(const Frame& frame);

  std::shared_ptr<const bf::Beamformer> beamformer_;
  PipelineConfig config_;

  // Frame state. The ToF cubes, channel workspaces and angle slots — the
  // large buffers — are reused across frames (slots recycle through the
  // arena); the beamformer/postprocess stages still return fresh
  // image-sized tensors per frame.
  std::size_t num_angles_ = 1;
  std::vector<std::shared_ptr<const us::TofPlan>> plans_;
  std::vector<us::ChannelWorkspace> workspaces_;
  std::vector<us::TofCube> slots_;  ///< per-angle cubes (multi-angle only)
  graph::BufferArena arena_;
  /// The prepared frame's acquisition while its cube is deferred, else
  /// null.
  const us::Acquisition* deferred_ = nullptr;
  StageTimes times_;
  us::TofCube cube_;
  Tensor iq_, envelope_, db_;
};

/// Drives frames from a source through ToF correction, a beamformer and
/// envelope/log-compression, invoking the sink once per frame.
class Pipeline {
 public:
  using Sink = std::function<void(const FrameOutput&)>;

  /// The beamformer must accept the cube flavor `config.tof` produces
  /// (analytic for MVDR/CF, RF for DAS and the learned models).
  Pipeline(std::shared_ptr<FrameSource> source,
           std::shared_ptr<const bf::Beamformer> beamformer,
           PipelineConfig config);

  /// Runs the source dry, calling `sink` (when set) once per frame on the
  /// driving thread, in frame order. Source exceptions and sink/stage
  /// exceptions propagate to the caller once the producer thread has
  /// stopped. Each frame is traced as one "pipeline.frame" span on the
  /// frame's lineage (Frame::trace_id), sink included.
  PipelineReport run(const Sink& sink = {});

  const PipelineConfig& config() const { return processor_.config(); }

 private:
  void process_frame(const Frame& frame, const Sink& sink,
                     PipelineReport& report);

  std::shared_ptr<FrameSource> source_;
  FrameProcessor processor_;
};

}  // namespace tvbf::rt
