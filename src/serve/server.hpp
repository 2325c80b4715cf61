// Multi-session imaging server.
//
// The Server admits N concurrent sessions and drives them to completion
// over shared resources: each session gets a producer thread (acquisition
// prefetch with bounded in-flight frames and a backpressure policy), and a
// set of min(sessions, pool threads) workers walks the frames. A worker
// takes the next ready frame of a session that has no frame in flight,
// round-robin over the sessions, and runs the session's
// rt::FrameProcessor::process and sink on it — the walk a solo
// rt::Pipeline::run does.
//
// Stage parallelism is picked per run:
//
//  - throughput, when there are at least as many sessions as pool threads
//    (enough streams to fill the cores): each worker holds a
//    common::ScopedSerial, so a frame's parallel_fors run inline and
//    concurrent sessions scale across cores instead of contending for the
//    pool's single job slot;
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
#include "serve/session.hpp"
#include "telemetry/telemetry.hpp"

namespace tvbf::serve {

/// Server-wide scheduling knobs.
struct ServerConfig {
  /// Per-session bound on acquired-but-unprocessed frames (>= 1).
  std::size_t max_in_flight = 2;
  Backpressure backpressure = Backpressure::kBlock;
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
  /// The ops plane (this endpoint or the watchdog) feeds process-wide
  /// state, so only one run with an ops plane may be live per process.
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
  std::uint64_t plan_cache_hits = 0;    ///< delta over this run
  std::uint64_t plan_cache_misses = 0;  ///< delta over this run

  double aggregate_fps() const {
    return wall_s > 0.0 ? static_cast<double>(frames) / wall_s : 0.0;
  }
};

/// Tunes the process allocator for steady-state serving (glibc: raises the
/// malloc mmap/trim thresholds so frame-sized tensors recycle through the
/// heap instead of being mmapped and unmapped — page faults + kernel
/// zeroing — on every allocation). Cubes, slot rows and engine workspaces
/// cross the default 128 KiB threshold, so serving processes should call
/// this once at startup, as bench_serve and serve_demo do. No-op on
/// non-glibc platforms.
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
  /// any source, stage or sink stops all sessions and propagates. Throws
  /// InvalidArgument, before starting any thread, when this run has an
  /// ops plane and another server's run with one is live.
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
