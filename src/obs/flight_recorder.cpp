#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <exception>
#include <mutex>

#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace tvbf::obs {

const char* event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kSessionAdmit: return "session_admit";
    case EventKind::kSessionRetire: return "session_retire";
    case EventKind::kFrameDrop: return "frame_drop";
    case EventKind::kWatchdogObserve: return "watchdog_observe";
    case EventKind::kWatchdogTrip: return "watchdog_trip";
    case EventKind::kMark: return "mark";
  }
  return "unknown";
}

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// detail[] packed into words so every slot field is an atomic: the whole
/// ring is readable mid-write without a single non-atomic access (the
/// seqlock version check then discards torn slots — and TSan, which does
/// not model seqlocks over plain memory, sees only atomics).
constexpr std::size_t kDetailWords = 4;
constexpr std::size_t kDetailChars = kDetailWords * 8;  // 31 chars + NUL

}  // namespace

FlightRecorder& FlightRecorder::instance() {
  // Leaked on purpose: record sites (sessions, the watchdog) may
  // outlive main's static teardown.
  static FlightRecorder* const rec =
      new FlightRecorder(kDefaultCapacity);  // tvbf-check: allow(naked-new)
  return *rec;
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)),
      slots_(std::make_unique<Slot[]>(capacity_)) {}

FlightRecorder::~FlightRecorder() = default;

void FlightRecorder::record(EventKind kind, std::int64_t session,
                            std::int64_t a, std::int64_t b,
                            const char* detail) {
  if (!telemetry::enabled()) return;
  const std::uint64_t idx = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& s = slots_[idx % capacity_];
  // Seqlock write: claim the odd stamp from a published one, write the
  // payload, publish even. Payload stores are releases (TSan models no
  // fences), so a reader that sees one also sees the odd stamp. Writers
  // that lap the ring may meet in a slot: an event whose slot is being
  // written, or holds a later event, is dropped as overwritten.
  std::uint64_t seen = s.version.load(std::memory_order_relaxed);
  if ((seen & 1) != 0 || seen > 2 * idx ||
      !s.version.compare_exchange_strong(seen, 2 * idx + 1,
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed))
    return;
  s.t_ns.store(steady_ns(), std::memory_order_release);
  s.session.store(session, std::memory_order_release);
  s.a.store(a, std::memory_order_release);
  s.b.store(b, std::memory_order_release);
  s.kind.store(static_cast<std::uint8_t>(kind), std::memory_order_release);
  char packed[kDetailChars] = {};
  if (detail != nullptr) {
    std::strncpy(packed, detail, kDetailChars - 1);
  }
  for (std::size_t w = 0; w < kDetailWords; ++w) {
    std::uint64_t word = 0;
    std::memcpy(&word, packed + w * 8, 8);
    s.detail[w].store(word, std::memory_order_release);
  }
  s.version.store(2 * idx + 2, std::memory_order_release);
}

std::vector<FlightRecorder::Event> FlightRecorder::dump() const {
  std::vector<Event> out;
  out.reserve(capacity_);
  for (std::size_t i = 0; i < capacity_; ++i) {
    const Slot& s = slots_[i];
    const std::uint64_t v1 = s.version.load(std::memory_order_acquire);
    if (v1 == 0 || (v1 & 1) != 0) continue;
    // Acquire payload loads: the re-read of the version cannot move above
    // them, so the same stamp means the slot was stable across the copy.
    Event e;
    e.t_ns = s.t_ns.load(std::memory_order_acquire);
    e.session = s.session.load(std::memory_order_acquire);
    e.a = s.a.load(std::memory_order_acquire);
    e.b = s.b.load(std::memory_order_acquire);
    e.kind = static_cast<EventKind>(s.kind.load(std::memory_order_acquire));
    char packed[kDetailChars];
    for (std::size_t w = 0; w < kDetailWords; ++w) {
      const std::uint64_t word = s.detail[w].load(std::memory_order_acquire);
      std::memcpy(packed + w * 8, &word, 8);
    }
    packed[kDetailChars - 1] = '\0';
    std::memcpy(e.detail, packed, sizeof(e.detail) - 1);
    e.detail[sizeof(e.detail) - 1] = '\0';
    const std::uint64_t v2 = s.version.load(std::memory_order_relaxed);
    if (v1 != v2) continue;
    e.seq = static_cast<std::int64_t>(v1 / 2 - 1);
    out.push_back(e);
  }
  std::sort(out.begin(), out.end(),
            [](const Event& a, const Event& b) { return a.seq < b.seq; });
  return out;
}

std::string FlightRecorder::dump_json() const {
  const std::vector<Event> events = dump();
  std::int64_t base_ns = 0;
  if (!events.empty()) base_ns = events.front().t_ns;
  const std::int64_t recorded = total_recorded();
  std::string out = "{\"recorded\": " + std::to_string(recorded) +
                    ", \"capacity\": " + std::to_string(capacity_) +
                    ", \"overwritten\": " +
                    std::to_string(std::max<std::int64_t>(
                        0, recorded - static_cast<std::int64_t>(capacity_))) +
                    ",\n \"events\": [";
  char buf[256];
  bool first = true;
  for (const Event& e : events) {
    char safe[sizeof(e.detail)];
    std::size_t w = 0;
    for (std::size_t r = 0; e.detail[r] != '\0' && w + 1 < sizeof(safe);
         ++r) {
      const char c = e.detail[r];
      if (c == '"' || c == '\\') {
        safe[w++] = '_';
      } else if (static_cast<unsigned char>(c) >= 0x20) {
        safe[w++] = c;
      }
    }
    safe[w] = '\0';
    std::snprintf(buf, sizeof(buf),
                  "%s\n  {\"seq\": %lld, \"t_us\": %.3f, \"kind\": \"%s\", "
                  "\"session\": %lld, \"a\": %lld, \"b\": %lld, "
                  "\"detail\": \"%s\"}",
                  first ? "" : ",", static_cast<long long>(e.seq),
                  static_cast<double>(e.t_ns - base_ns) * 1e-3,
                  event_kind_name(e.kind), static_cast<long long>(e.session),
                  static_cast<long long>(e.a), static_cast<long long>(e.b),
                  safe);
    out += buf;
    first = false;
  }
  out += first ? "]}\n" : "\n]}\n";
  return out;
}

std::int64_t FlightRecorder::total_recorded() const {
  return static_cast<std::int64_t>(head_.load(std::memory_order_relaxed));
}

void FlightRecorder::clear() {
  // Not safe against concurrent record(); a test/startup hook, like
  // Registry::reset().
  for (std::size_t i = 0; i < capacity_; ++i)
    slots_[i].version.store(0, std::memory_order_relaxed);
  head_.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Crash-dump hook

namespace {

std::mutex g_dump_mu;
std::string& dump_path() {
  // Leaked on purpose: the terminate/signal handlers may fire during
  // static teardown, after a plain global string would be destroyed.
  static std::string* const path =
      new std::string();  // tvbf-check: allow(naked-new)
  return *path;
}

std::terminate_handler g_prev_terminate = nullptr;
using SignalHandler = void (*)(int);
SignalHandler g_prev_sigterm = SIG_DFL;
SignalHandler g_prev_sigint = SIG_DFL;

[[noreturn]] void crash_terminate() {
  write_flight_dump();
  if (g_prev_terminate != nullptr) g_prev_terminate();
  std::abort();
}

void crash_signal(int sig) {
  write_flight_dump();
  const SignalHandler prev =
      sig == SIGTERM ? g_prev_sigterm : g_prev_sigint;
  std::signal(sig, prev != nullptr ? prev : SIG_DFL);
  std::raise(sig);
}

}  // namespace

void install_crash_dump(const std::string& path) {
  const std::lock_guard<std::mutex> lock(g_dump_mu);
  const bool installed = !dump_path().empty();
  dump_path() = path;
  if (installed) return;
  g_prev_terminate = std::set_terminate(&crash_terminate);
  g_prev_sigterm = std::signal(SIGTERM, &crash_signal);
  g_prev_sigint = std::signal(SIGINT, &crash_signal);
}

bool write_flight_dump(const std::string& path) {
  std::string target = path;
  if (target.empty()) {
    const std::lock_guard<std::mutex> lock(g_dump_mu);
    target = dump_path();
  }
  if (target.empty()) return false;
  const std::string body = "{\"flight\": " + FlightRecorder::instance().dump_json() +
                           ", \"trace\": " + telemetry::trace_export_json() +
                           "}\n";
  std::FILE* f = std::fopen(target.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  std::fclose(f);
  return ok;
}

}  // namespace tvbf::obs
