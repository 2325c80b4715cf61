// One admitted imaging session of the multi-session server.
//
// A Session binds a FrameSource to a beamformer and grid/ToF configuration
// and owns the per-stream frame state (cached ToF plan handle, cube,
// workspace, output tensors) through a rt::FrameProcessor — exactly the
// state a solo rt::Pipeline would own, so a served session produces
// bit-identical frames to running its source through Pipeline::run alone.
// The Server's workers walk a session's frames one at a time; a Session
// itself is passive state plus a bounded ready-frame queue filled by the
// session's producer thread.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "runtime/frame_source.hpp"
#include "runtime/pipeline.hpp"
#include "telemetry/telemetry.hpp"

namespace tvbf::serve {

/// What happens when a session's bounded in-flight queue is full.
enum class Backpressure {
  kBlock,       ///< the producer waits for a slot (lossless)
  kDropOldest,  ///< the oldest undispatched frame is dropped (freshest wins)
};

/// Everything needed to admit one session.
struct SessionConfig {
  std::shared_ptr<rt::FrameSource> source;
  std::shared_ptr<const bf::Beamformer> beamformer;
  /// Grid/ToF flavor/dynamic range/backend for this stream.
  rt::PipelineConfig pipeline;
  /// Invoked once per processed frame, in frame order, from a server
  /// worker thread (at most one frame of a session is in flight at a
  /// time). The FrameOutput references session-owned buffers overwritten
  /// by the session's next frame.
  rt::Pipeline::Sink sink;
  /// Per-frame latency SLO for the ops plane's /healthz: frames slower
  /// than this count as deadline misses and any miss marks the session
  /// unhealthy. <= 0 = no latency SLO.
  double slo_frame_s = 0.0;
  /// Drop budget for /healthz: more dropped frames than this marks the
  /// session unhealthy. < 0 = no drop SLO.
  std::int64_t drop_budget = -1;
};

/// Per-session half of the server report.
struct SessionReport {
  int id = -1;
  std::string source;      ///< source name
  std::string beamformer;  ///< beamformer name
  std::int64_t frames = 0;   ///< frames processed and delivered to the sink
  std::int64_t dropped = 0;  ///< frames dropped by kDropOldest backpressure
  /// source, tof, compound, beamform, postprocess, sink — in flow order
  /// (source runs on the producer thread, so stage totals can exceed the
  /// server wall).
  std::vector<rt::StageStats> stages;

  const rt::StageStats& stage(const std::string& name) const;
};

/// Server-internal session state. Locking discipline: `ready`, `busy`,
/// `exhausted`, `retired`, `frames`, `dropped` and the worker-side stage
/// stats mutate only under the server mutex; `source_stats` belongs to the
/// producer thread until it is joined; `processor` belongs to whichever
/// worker currently holds `busy`.
class Session {
 public:
  Session(int id, SessionConfig config);

  int id() const { return id_; }
  const SessionConfig& config() const { return config_; }
  rt::FrameProcessor& processor() { return processor_; }

  /// True once the producer is done and every frame has been processed.
  bool done() const { return exhausted && ready.empty() && !busy; }

  SessionReport report() const;

  // ---- scheduler state (see locking discipline above) ----
  std::deque<rt::Frame> ready;  ///< acquired frames awaiting processing
  bool exhausted = false;       ///< producer ran the source dry
  bool busy = false;            ///< a worker holds one of its frames
  bool retired = false;         ///< retirement reported
  std::int64_t frames = 0;
  std::int64_t dropped = 0;
  rt::StageStats source_stats{.name = "source"};
  rt::StageStats tof_stats{.name = "tof"};
  rt::StageStats compound_stats{.name = "compound"};
  rt::StageStats beamform_stats{.name = "beamform"};
  rt::StageStats post_stats{.name = "postprocess"};
  rt::StageStats sink_stats{.name = "sink"};

  // ---- telemetry ----
  /// Per-session frame latency ("serve.session.<id>.frame_s"): dispatch
  /// (leaving the ready queue) to delivery. Registered at admission; the
  /// registry keeps the reference valid for the process lifetime.
  telemetry::LatencyHistogram& frame_latency;

 private:
  int id_ = -1;
  SessionConfig config_;
  rt::FrameProcessor processor_;
};

}  // namespace tvbf::serve
