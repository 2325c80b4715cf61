// Streaming image-formation pipeline.
//
// Chains source -> ToF apply (cached plan) -> Beamformer -> envelope /
// log-compression -> sink over reusable frame buffers (a single-angle RF
// frame on a plan that reads RF directly skips the cube; see
// FrameProcessor). A producer thread acquires the next frame (simulated or
// replayed) while the driving thread processes the current one, both sides
// sharing the process-wide thread pool. Per-stage latency statistics and
// plan-cache counters come back in a PipelineReport.
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

namespace tvbf::device {
class Device;
}  // namespace tvbf::device

namespace tvbf::rt {

/// Pipeline controls.
struct PipelineConfig {
  us::ImagingGrid grid;
  us::TofParams tof;  ///< interp flavor + cube kind the beamformer needs
  double dynamic_range_db = 60.0;
  /// Backend executing this stream's kernels (ToF gather, beamform, the
  /// model matmuls): the FrameProcessor installs it as the thread's
  /// device::ScopedDevice around each compute stage. Null selects the
  /// process-wide CPU reference device. Every stock backend produces
  /// bit-identical output; they differ in the cost model the serving
  /// layer's batcher consults.
  std::shared_ptr<device::Device> device;
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
/// one FrameProcessor internally through process(); the serving layer
/// (src/serve) owns one per session and steps it from its frame graph.
///
/// Stepping is exposed at graph-node granularity so a frame graph can run
/// the stages by readiness: prepare() latches one frame's plans and slots,
/// then apply_tof_angle() is safe to call concurrently for DISTINCT angle
/// indices, and compound() / beamform() / finish() complete the frame in
/// order. Everything else is not thread-safe — one frame is stepped by one
/// logical owner at a time.
///
/// A single-angle RF frame whose cached plan reads RF directly
/// (us::TofPlan::reads_rf) defers its cube when this processor's beamform()
/// forms the frame: the ToF step does nothing, and beamform() offers the
/// plan and the acquisition to the beamformer (bf::Beamformer::
/// beamform_through), which forms the image without the cube. If it
/// declines, beamform() applies the plan first; cube() applies it on
/// demand too.
class FrameProcessor {
 public:
  /// Wall-clock seconds spent per stage by the last step. `tof_s` is the
  /// sum over the frame's angles (the work done, not the critical path); it
  /// is 0 for a frame formed without its cube, whose gather counts in
  /// `beamform_s`.
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

  // ---- graph-node stepping -------------------------------------------------

  /// Latches `frame`: fetches one cached plan per steering angle and
  /// acquires per-angle cube slots from the arena (multi-angle only).
  /// `beamforms` says whether this processor's beamform() will form the
  /// frame; only then may the frame defer its cube (see above). The frame
  /// must stay alive until it is finished.
  void prepare(const Frame& frame, bool beamforms = true);

  /// ToF-corrects acquisition `angle` of the prepared frame into its slot
  /// (or straight into the processor cube for single-angle frames; nothing
  /// for a deferred cube). Thread-safe across distinct angles of one
  /// prepared frame.
  void apply_tof_angle(const Frame& frame, std::size_t angle);

  /// Folds the per-angle slots into the processor cube (coherent mean) and
  /// releases the slots back to the arena. Single-angle: no-op on the
  /// data.
  void compound();

  /// Forms the IQ image (stores it): through the plan for a deferred cube
  /// the beamformer accepts, else from the compounded cube.
  void beamform();

  /// Envelope/log-compression over the stored IQ image.
  FrameOutput finish(const Frame& frame);

  /// finish() on an externally produced IQ image (batched inference).
  FrameOutput finish(const Frame& frame, Tensor iq);

  /// The compounded cube of the frame being stepped, applying a deferred
  /// plan first (while the frame is alive).
  const us::TofCube& cube();
  /// Per-stage times of the frame most recently stepped to finish().
  const StageTimes& last_times() const { return times_; }

  const PipelineConfig& config() const { return config_; }
  const bf::Beamformer& beamformer() const { return *beamformer_; }
  /// The stream's resolved backend (config().device or the CPU default).
  device::Device& device() const { return *device_; }

 private:
  std::shared_ptr<const bf::Beamformer> beamformer_;
  PipelineConfig config_;
  device::Device* device_ = nullptr;  ///< resolved once in the constructor

  /// Applies the deferred plan into cube_, timed as the tof stage.
  void apply_deferred();

  // Frame state. The ToF cubes, channel workspaces and angle slots — the
  // large buffers — are reused across frames (slots recycle through the
  // arena); the beamformer/postprocess stages still return fresh
  // image-sized tensors per frame.
  std::size_t num_angles_ = 1;
  std::vector<std::shared_ptr<const us::TofPlan>> plans_;
  std::vector<us::ChannelWorkspace> workspaces_;
  std::vector<us::TofCube> slots_;  ///< per-angle cubes (multi-angle only)
  graph::BufferArena arena_;
  std::vector<double> angle_tof_s_;
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
