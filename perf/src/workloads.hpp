// The workload runner: streams a scene through rt::Pipeline::run (one
// session) or serve::Server::run (several), checks every delivered frame
// against its reference, and collects what the end-to-end metrics need.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "decorators.hpp"
#include "scene.hpp"
#include "spans.hpp"

namespace perf {

struct PhaseOptions {
  /// Length of the timed phase; 0 runs one frame per session (a set-up).
  double seconds = 0.0;
  /// Traced phase: spans go here and the beamformer is wrapped by traced().
  SpanLog* log = nullptr;
  ForwardLedger* ledger = nullptr;
};

struct PhaseResult {
  double wall_s = 0.0;            ///< from building the Pipeline/Server to its return
  double cpu_s = 0.0;             ///< process user + sys over the same span
  std::int64_t attempted = 0;     ///< frames the sources handed over
  std::int64_t delivered = 0;     ///< frames that reached a sink
  std::int64_t mismatched = 0;    ///< delivered, but not bit-equal to the reference
  /// Benchmark clock when the last session delivered its first frame, so
  /// every stream was running; -1 when a session delivered none.
  double ready_s = -1.0;
  std::vector<double> latency_ms; ///< per delivered frame, from its release
  std::vector<double> late_ms;    ///< per handed-over frame, from its due time
  std::uint64_t plan_hits = 0;    ///< from the Pipeline/Server report
  std::uint64_t plan_misses = 0;  ///< from the Pipeline/Server report
  /// Per frame, the time outside the frame's own stages (tof, compound,
  /// beamform, postprocess, sink; the source overlaps on a thread of its
  /// own), from the run's report. Closed loop: the run's wall time per
  /// frame minus those stages' means. Open loop: the median over frames of
  /// latency minus its session's stage means.
  double driver_ms = 0.0;
  std::size_t peak_heap_bytes = 0;
  std::string error;              ///< what the run threw, if anything
  /// Traced phases: per delivered frame, latency minus its forward span.
  std::vector<double> wait_ms;

  std::int64_t failed() const { return attempted - (delivered - mismatched); }
  double fps() const { return static_cast<double>(delivered) / wall_s; }
  double cpu_ms_per_frame() const { return cpu_s * 1e3 / static_cast<double>(delivered); }
};

/// Streams the scene through `beamformer` under the workload's Pipeline or Server.
PhaseResult run_phase(const WorkloadSpec& spec, const Scene& scene,
                      const std::vector<tvbf::Tensor>& refs,
                      std::shared_ptr<const tvbf::bf::Beamformer> beamformer,
                      const PhaseOptions& options);

/// One cold set-up: from an emptied PlanCache, through building the
/// beamformer and the Pipeline/Server, to the first frame delivered by
/// every session. (With several sessions, whether the batch gate's first
/// batch takes one frame or two is a race, so the first frame of any one
/// session would time one forward or two by chance.)
/// `phase` receives the one-frame-per-session run it timed.
double cold_setup(const WorkloadSpec& spec, const Scene& scene,
                  const std::vector<tvbf::Tensor>& refs, PhaseResult& phase);

}  // namespace perf
