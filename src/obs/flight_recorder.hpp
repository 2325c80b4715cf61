// Always-on flight recorder: a fixed-budget ring of structured serving
// events kept for post-mortems.
//
// Metrics aggregate and traces must be armed; the flight recorder is the
// third leg — it is always recording (no arming step), holds the last N
// discrete events that explain server behavior (session admit/retire,
// frame drops, watchdog observations and trips), and can be dumped as JSON
// at any time: from the /dump ops route, on a watchdog trip, or from the
// terminate/signal hook installed by install_crash_dump().
//
// record() is wait-free: one fetch_add claims a slot, a per-slot seqlock
// (version counter stamped odd while writing, even+claim-index when
// published) lets a concurrent dump skip torn or mid-overwrite slots
// instead of racing them. The ring overwrites oldest-first; overwritten
// events are the price of the fixed budget and are counted. Record sites
// are gated on telemetry::enabled() like every other instrument.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace tvbf::obs {

/// What happened. Keep in sync with event_kind_name().
enum class EventKind : std::uint8_t {
  kSessionAdmit = 0,
  kSessionRetire,
  kFrameDrop,
  kWatchdogObserve,
  kWatchdogTrip,
  kMark,  ///< free-form caller annotation
};

const char* event_kind_name(EventKind kind);

/// Fixed-budget structured event ring. All methods are safe to call
/// concurrently; record() never blocks and never allocates.
class FlightRecorder {
 public:
  /// One recorded event. `a` and `b` are kind-specific scalars (documented
  /// at the record sites); `detail` is a short truncated label.
  struct Event {
    std::int64_t seq = 0;    ///< global record order (0-based)
    std::int64_t t_ns = 0;   ///< steady_clock nanoseconds
    std::int64_t session = -1;
    std::int64_t a = 0;
    std::int64_t b = 0;
    EventKind kind = EventKind::kMark;
    char detail[31] = {};
  };

  static constexpr std::size_t kDefaultCapacity = 4096;

  /// The process-wide recorder (leaked, default capacity).
  static FlightRecorder& instance();

  explicit FlightRecorder(std::size_t capacity);
  ~FlightRecorder();

  /// Records one event; no-op while telemetry is disabled.
  void record(EventKind kind, std::int64_t session = -1, std::int64_t a = 0,
              std::int64_t b = 0, const char* detail = nullptr);

  /// Stable snapshot of the ring in record order (oldest surviving event
  /// first). Slots a writer holds mid-record are skipped, not torn.
  std::vector<Event> dump() const;

  /// {"events": [...], "recorded": N, "capacity": C} — events as in
  /// dump(), timestamps in µs relative to the oldest dumped event.
  std::string dump_json() const;

  std::int64_t total_recorded() const;
  std::size_t capacity() const { return capacity_; }
  void clear();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

 private:
  /// Every payload field is an atomic (detail packed into words): a dump
  /// racing a writer performs no non-atomic access, and the version check
  /// discards slots that changed under the copy.
  struct Slot {
    /// Seqlock: 0 = never written; odd = writer inside; even = published
    /// as 2 * (claim index + 1). Readers accept a slot only when the
    /// version read before and after the payload match and are even.
    std::atomic<std::uint64_t> version{0};
    std::atomic<std::int64_t> t_ns{0};
    std::atomic<std::int64_t> session{0};
    std::atomic<std::int64_t> a{0};
    std::atomic<std::int64_t> b{0};
    std::atomic<std::uint8_t> kind{0};
    std::atomic<std::uint64_t> detail[4] = {};
  };

  std::size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> head_{0};
};

/// Installs a std::set_terminate handler and SIGTERM/SIGINT handlers that
/// write the process-wide recorder's dump_json() (plus the trace export,
/// when armed) to `path` before the process dies, then chain to the
/// previous handler. Best-effort: the dump allocates, which is fine for
/// terminate and almost always fine for a signal arriving at steady state.
/// Idempotent; later calls only update the path.
void install_crash_dump(const std::string& path);

/// Writes dump_json() + trace export to the crash-dump path (or `path`
/// when given). Returns false when no path is configured or the write
/// fails. Exposed so tests and the watchdog share the crash-hook's writer.
bool write_flight_dump(const std::string& path = "");

}  // namespace tvbf::obs
