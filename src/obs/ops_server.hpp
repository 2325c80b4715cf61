// Live introspection endpoint: a dependency-free localhost HTTP server
// exposing the ops plane while the serving stack runs.
//
// Routes:
//   /metrics   Prometheus text exposition of the telemetry registry
//              (counters, gauges, histograms as summaries);
//   /healthz   per-session SLO state from ServiceState — 200 while every
//              session is within its deadline-miss and drop budgets,
//              503 otherwise, JSON body either way;
//   /sessions  admitted sessions and batch-gate parking lots as JSON;
//   /dump      the flight-recorder ring plus the trace export, the same
//              body the crash hook writes.
//
// Binds 127.0.0.1 only — this is an operator loopback port, not a public
// surface. One accept thread serves requests sequentially (scrapes and
// health probes are rare and tiny), each connection within one deadline
// for reading the request and writing the response, so a slow or stalled
// client cannot hold the thread; port 0 picks an ephemeral port,
// readable via port() after start(). No third-party HTTP stack: the
// request parsing is "first line of a GET", which is all a scraper sends.
#pragma once

#include <memory>
#include <string>

#include "telemetry/telemetry.hpp"

namespace tvbf::obs {

/// Prometheus text exposition (version 0.0.4) of a registry snapshot.
/// Instrument dots become underscores under a tvbf_ prefix; histograms
/// render as summaries (p50/p90/p99 quantile labels, _sum, _count).
std::string render_prometheus(const telemetry::Snapshot& snapshot);

/// Localhost ops endpoint. start() binds and spawns the accept thread;
/// stop() (or destruction) joins it.
class OpsServer {
 public:
  struct Options {
    int port = 0;  ///< TCP port on 127.0.0.1; 0 = ephemeral
  };

  explicit OpsServer(Options options);
  ~OpsServer();

  /// Binds and starts serving. False when the port cannot be bound (the
  /// server is then inert; the serving stack keeps running without it).
  bool start();
  void stop();
  bool running() const;

  /// Bound port (the ephemeral pick when Options::port was 0); -1 before
  /// start() or after a failed bind.
  int port() const;

  OpsServer(const OpsServer&) = delete;
  OpsServer& operator=(const OpsServer&) = delete;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace tvbf::obs
