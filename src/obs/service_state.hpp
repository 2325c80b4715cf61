// Live serving state the ops plane introspects: per-session SLO health and
// per-thread last activity.
//
// The serving layer pushes tiny updates here while the ops plane is
// active (a heartbeat per delivered frame, a drop, a retirement); the
// watchdog and the /healthz and /sessions ops routes read coherent
// snapshots back. One process-wide instance, reset() at the start of each
// Server::run — the ops plane observes the server that is currently
// running, exactly like the telemetry registry, and Server::run admits
// one ops-plane run at a time.
//
// Everything is mutex-guarded except thread_note(), which server workers
// call per frame: that path is a per-thread seqlock slot (two relaxed
// stores and a clock read) so it stays off every lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace tvbf::obs {

/// One admitted session as the ops plane sees it.
struct SessionState {
  int id = -1;
  std::string source;
  std::string beamformer;
  std::int64_t frames = 0;
  std::int64_t dropped = 0;
  std::int64_t deadline_misses = 0;  ///< frames over slo_frame_s
  double slo_frame_s = 0.0;          ///< latency SLO; 0 = none
  std::int64_t drop_budget = -1;     ///< allowed drops; < 0 = none
  double last_frame_s = 0.0;         ///< latency of the last frame
  double heartbeat_age_s = 0.0;      ///< since the last delivered frame
  bool retired = false;

  /// Within both SLOs (sessions without SLOs are always healthy; retired
  /// sessions report their final state).
  bool healthy() const {
    return (drop_budget < 0 || dropped <= drop_budget) &&
           (slo_frame_s <= 0.0 || deadline_misses == 0);
  }
};

/// One worker thread's most recent activity (diagnosis, not profiling).
struct ThreadNote {
  std::size_t thread = 0;  ///< telemetry::thread_index()
  std::string what;        ///< last stage label the thread stamped
  double age_s = 0.0;
};

/// Process-wide, mutex-guarded (thread_note excepted) serving state.
class ServiceState {
 public:
  static ServiceState& instance();

  /// Forgets every session and thread note (new run / tests).
  void reset();

  void admit(int id, std::string source, std::string beamformer,
             double slo_frame_s, std::int64_t drop_budget);
  /// One delivered frame: latency sample + liveness heartbeat.
  void heartbeat(int id, double frame_s);
  void frame_dropped(int id);
  void retire(int id);

  std::vector<SessionState> sessions() const;
  /// Every admitted session healthy()?
  bool healthy() const;

  /// {"healthy": ..., "sessions": [...]} for the /healthz route.
  std::string healthz_json() const;
  /// {"sessions": [...]} for the /sessions route.
  std::string sessions_json() const;

  /// Stamps the calling thread's activity slot (lock-free; `what` should
  /// be short and is copied). Workers call this per frame; the watchdog
  /// reports each thread's last stamp and its age on a stall.
  void thread_note(const char* what);
  std::vector<ThreadNote> thread_notes() const;

  ServiceState(const ServiceState&) = delete;
  ServiceState& operator=(const ServiceState&) = delete;

 private:
  ServiceState();
  ~ServiceState();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace tvbf::obs
