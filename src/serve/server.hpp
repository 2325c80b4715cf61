// Multi-session imaging server.
//
// The Server admits N concurrent sessions and drives them to completion
// over shared resources: each session gets a producer thread (acquisition
// prefetch with bounded in-flight frames and a backpressure policy), and
// sessions sharing a batch-capable learned beamformer have their frames
// stacked through one cross-session forward pass per dispatch
// (InferenceBatcher).
//
// Each session's frame is a graph::FrameGraph (prepare -> one ToF node per
// steering angle -> compound -> beamform -> deliver), and one shared
// graph::Executor drains ready nodes across ALL sessions by readiness: a
// session parked behind the cross-session inference gate never blocks
// another session's ToF work, and multi-angle frames ToF-correct their
// transmits in parallel. Cross-session batching is an ordinary graph node:
// a batched session's gate node parks until enough sessions sharing its
// model are ready (quorum = min(max_batch, live sessions)), then one
// stacked forward pass fires and every parked graph resumes; the
// executor's idle hook and session retirement flush partial groups so
// parked frames never stall.
//
// The executor runs min(sessions, pool threads) workers, in one of two
// stage-parallelism modes picked per run:
//
//  - throughput, when there are at least as many sessions as pool threads
//    (enough streams to fill the cores): each node runs serially on its
//    worker thread (common::ScopedSerial), so concurrent sessions scale
//    across cores instead of contending for the pool's single job slot
//    (batched forward passes still fan out — common::ScopedParallel);
//  - latency, otherwise: stages fan out on the shared pool via
//    parallel_for, with pool-slot admission tagged by session id so the
//    fair-share rotation keeps any one session from starving the rest
//    (serializing a lone session would idle every other core and regress
//    far below a solo Pipeline::run).
//
// Either way each session's frames are processed one at a time, in order,
// by its own FrameProcessor — so per-session output is bit-identical to a
// solo rt::Pipeline::run of the same source.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/watchdog.hpp"
#include "serve/inference_batcher.hpp"
#include "serve/session.hpp"
#include "telemetry/telemetry.hpp"

namespace tvbf::serve {

/// Server-wide scheduling knobs.
struct ServerConfig {
  /// Per-session bound on acquired-but-unprocessed frames (>= 1).
  std::size_t max_in_flight = 2;
  Backpressure backpressure = Backpressure::kBlock;
  /// Batch frames of sessions sharing a bf::BatchedBeamformer through one
  /// forward pass. Off, those sessions are scheduled like any other.
  bool batch_inference = true;
  std::size_t max_batch = 16;  ///< cap on one cross-session batch
  /// Cap the batch quorum further by InferenceBatcher::preferred_batch
  /// (device cost estimates, marginal-gain rule). Off, the quorum is the
  /// structural min(max_batch, live sessions) — useful for A/B lanes that
  /// must differ only in max_batch.
  bool cost_aware_batching = true;
  /// With a sink set and a positive period, run() keeps a background
  /// sampler thread that emits a telemetry Registry snapshot to the sink
  /// every period (plus one final snapshot as the run finishes). The sink
  /// runs on the sampler thread; keep it cheap and non-blocking.
  double telemetry_period_s = 0.0;
  std::function<void(const telemetry::Snapshot&)> telemetry_sink = {};

  // ---- ops plane -----------------------------------------------------------
  /// Localhost introspection endpoint (obs::OpsServer: /metrics, /healthz,
  /// /sessions, /dump) served for the duration of run(). -1 = off;
  /// 0 = ephemeral port, readable via Server::ops_port() while running.
  int ops_port = -1;
  /// Stall watchdog: trips after this many seconds of pending work with no
  /// progress (see obs::Watchdog). <= 0 = off.
  double watchdog_stall_s = 0.0;
  double watchdog_period_s = 0.25;  ///< watchdog poll interval
  /// Written on every watchdog trip (flight-recorder dump + trace export).
  std::string watchdog_dump_path;
  /// Test-only fault injection and trip callback, forwarded verbatim to
  /// obs::Watchdog::Options.
  std::function<bool()> watchdog_pending_override;
  std::function<void(const obs::StallReport&)> watchdog_on_trip;
};

/// What one Server::run did.
struct ServerReport {
  double wall_s = 0.0;
  std::int64_t frames = 0;   ///< across all sessions
  std::int64_t dropped = 0;  ///< across all sessions
  std::vector<SessionReport> sessions;
  InferenceBatcher::Stats batches;
  std::uint64_t plan_cache_hits = 0;    ///< delta over this run
  std::uint64_t plan_cache_misses = 0;  ///< delta over this run

  double aggregate_fps() const {
    return wall_s > 0.0 ? static_cast<double>(frames) / wall_s : 0.0;
  }
};

/// Tunes the process allocator for steady-state serving (glibc: raises the
/// malloc mmap/trim thresholds so frame-sized tensors recycle through the
/// heap instead of being mmapped and unmapped — page faults + kernel
/// zeroing — on every allocation). Stacked batch tensors cross the default
/// 128 KiB threshold long before solo frames do, so serving processes
/// should call this once at startup, as bench_serve and serve_demo do.
/// No-op on non-glibc platforms.
void tune_allocator();

/// Admits sessions, then drives them all concurrently in run().
class Server {
 public:
  explicit Server(ServerConfig config = {});
  ~Server();

  /// Admits a session (before run() only). Returns its session id.
  int add_session(SessionConfig config);

  std::size_t num_sessions() const;
  const ServerConfig& config() const;

  /// Runs every session's source dry and returns the aggregate report.
  /// Single-shot: a Server instance runs once. The first exception from
  /// any source, stage or sink stops all sessions and propagates.
  ServerReport run();

  /// Port the ops endpoint is bound to while run() is live (the ephemeral
  /// pick when ServerConfig::ops_port == 0); -1 when the endpoint is off,
  /// failed to bind, or the run has finished.
  int ops_port() const;

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace tvbf::serve
