#include "obs/service_state.hpp"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <utility>

#include "telemetry/telemetry.hpp"

namespace tvbf::obs {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double age_s(std::int64_t since_ns, std::int64_t now_ns) {
  return since_ns > 0 ? static_cast<double>(now_ns - since_ns) * 1e-9 : 0.0;
}

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '_';
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  out += '"';
}

void append_double(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out += buf;
}

void append_session(std::string& out, const SessionState& s) {
  out += "{\"id\": " + std::to_string(s.id) + ", \"source\": ";
  append_escaped(out, s.source);
  out += ", \"beamformer\": ";
  append_escaped(out, s.beamformer);
  out += ", \"frames\": " + std::to_string(s.frames);
  out += ", \"dropped\": " + std::to_string(s.dropped);
  out += ", \"deadline_misses\": " + std::to_string(s.deadline_misses);
  out += ", \"slo_frame_s\": ";
  append_double(out, s.slo_frame_s);
  out += ", \"drop_budget\": " + std::to_string(s.drop_budget);
  out += ", \"last_frame_s\": ";
  append_double(out, s.last_frame_s);
  out += ", \"heartbeat_age_s\": ";
  append_double(out, s.heartbeat_age_s);
  out += std::string(", \"retired\": ") + (s.retired ? "true" : "false");
  out += std::string(", \"healthy\": ") + (s.healthy() ? "true" : "false");
  out += "}";
}

/// Per-thread activity slot: single writer (the owning thread), seqlock
/// versioned so readers discard a slot caught mid-stamp. All fields are
/// atomics — no plain memory is shared (see flight_recorder.cpp).
struct ThreadSlot {
  std::atomic<std::uint32_t> version{0};  ///< odd while stamping
  std::atomic<std::int64_t> t_ns{0};
  std::atomic<std::uint64_t> what[3] = {};  ///< 23 chars + NUL, packed
};

constexpr std::size_t kMaxThreads = 256;
constexpr std::size_t kNoteWords = 3;
constexpr std::size_t kNoteChars = kNoteWords * 8;

struct SessionRec {
  SessionState s;
  std::int64_t last_ns = 0;
};

}  // namespace

struct ServiceState::Impl {
  mutable std::mutex mu;
  std::vector<SessionRec> sessions;
  ThreadSlot threads[kMaxThreads];

  SessionRec* find(int id) {
    for (auto& r : sessions)
      if (r.s.id == id) return &r;
    return nullptr;
  }
};

ServiceState::ServiceState() : impl_(std::make_unique<Impl>()) {}
ServiceState::~ServiceState() = default;  // never runs: instance is leaked

ServiceState& ServiceState::instance() {
  // Leaked on purpose: worker threads stamp activity slots past main's
  // static teardown.
  static ServiceState* const state =
      new ServiceState();  // tvbf-check: allow(naked-new)
  return *state;
}

void ServiceState::reset() {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->sessions.clear();
  for (auto& slot : impl_->threads) {
    slot.version.store(0, std::memory_order_relaxed);
    slot.t_ns.store(0, std::memory_order_relaxed);
  }
}

void ServiceState::admit(int id, std::string source, std::string beamformer,
                         double slo_frame_s, std::int64_t drop_budget) {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  SessionRec rec;
  rec.s.id = id;
  rec.s.source = std::move(source);
  rec.s.beamformer = std::move(beamformer);
  rec.s.slo_frame_s = slo_frame_s;
  rec.s.drop_budget = drop_budget;
  rec.last_ns = steady_ns();
  impl_->sessions.push_back(std::move(rec));
}

void ServiceState::heartbeat(int id, double frame_s) {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  SessionRec* rec = impl_->find(id);
  if (rec == nullptr) return;
  ++rec->s.frames;
  rec->s.last_frame_s = frame_s;
  if (rec->s.slo_frame_s > 0.0 && frame_s > rec->s.slo_frame_s)
    ++rec->s.deadline_misses;
  rec->last_ns = steady_ns();
}

void ServiceState::frame_dropped(int id) {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  SessionRec* rec = impl_->find(id);
  if (rec != nullptr) ++rec->s.dropped;
}

void ServiceState::retire(int id) {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  SessionRec* rec = impl_->find(id);
  if (rec != nullptr) rec->s.retired = true;
}

std::vector<SessionState> ServiceState::sessions() const {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  const std::int64_t now = steady_ns();
  std::vector<SessionState> out;
  out.reserve(impl_->sessions.size());
  for (const auto& rec : impl_->sessions) {
    SessionState s = rec.s;
    s.heartbeat_age_s = age_s(rec.last_ns, now);
    out.push_back(std::move(s));
  }
  return out;
}

bool ServiceState::healthy() const {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  for (const auto& rec : impl_->sessions)
    if (!rec.s.healthy()) return false;
  return true;
}

std::string ServiceState::healthz_json() const {
  const std::vector<SessionState> all = sessions();
  bool ok = true;
  for (const auto& s : all) ok = ok && s.healthy();
  std::string out =
      std::string("{\"healthy\": ") + (ok ? "true" : "false") +
      ",\n \"sessions\": [";
  for (std::size_t i = 0; i < all.size(); ++i) {
    out += i == 0 ? "\n  " : ",\n  ";
    append_session(out, all[i]);
  }
  out += all.empty() ? "]}\n" : "\n]}\n";
  return out;
}

std::string ServiceState::sessions_json() const {
  const std::vector<SessionState> all = sessions();
  std::string out = "{\"sessions\": [";
  for (std::size_t i = 0; i < all.size(); ++i) {
    out += i == 0 ? "\n  " : ",\n  ";
    append_session(out, all[i]);
  }
  out += all.empty() ? "]}\n" : "\n]}\n";
  return out;
}

void ServiceState::thread_note(const char* what) {
  if (!telemetry::enabled()) return;
  const std::size_t idx = telemetry::thread_index();
  if (idx >= kMaxThreads) return;
  ThreadSlot& slot = impl_->threads[idx];
  // Single writer per slot (this thread); the odd/even stamp only protects
  // readers from a torn copy. Release payload stores and acquire payload
  // loads order it, as in FlightRecorder (TSan does not model fences).
  const std::uint32_t v = slot.version.load(std::memory_order_relaxed);
  slot.version.store(v + 1, std::memory_order_relaxed);
  slot.t_ns.store(steady_ns(), std::memory_order_release);
  char packed[kNoteChars] = {};
  if (what != nullptr) std::strncpy(packed, what, kNoteChars - 1);
  for (std::size_t w = 0; w < kNoteWords; ++w) {
    std::uint64_t word = 0;
    std::memcpy(&word, packed + w * 8, 8);
    slot.what[w].store(word, std::memory_order_release);
  }
  slot.version.store(v + 2, std::memory_order_release);
}

std::vector<ThreadNote> ServiceState::thread_notes() const {
  const std::int64_t now = steady_ns();
  std::vector<ThreadNote> out;
  for (std::size_t i = 0; i < kMaxThreads; ++i) {
    const ThreadSlot& slot = impl_->threads[i];
    const std::uint32_t v1 = slot.version.load(std::memory_order_acquire);
    if (v1 == 0 || (v1 & 1) != 0) continue;
    const std::int64_t t = slot.t_ns.load(std::memory_order_acquire);
    char packed[kNoteChars];
    for (std::size_t w = 0; w < kNoteWords; ++w) {
      const std::uint64_t word = slot.what[w].load(std::memory_order_acquire);
      std::memcpy(packed + w * 8, &word, 8);
    }
    packed[kNoteChars - 1] = '\0';
    if (slot.version.load(std::memory_order_relaxed) != v1) continue;
    ThreadNote note;
    note.thread = i;
    note.what = packed;
    note.age_s = age_s(t, now);
    out.push_back(std::move(note));
  }
  return out;
}

}  // namespace tvbf::obs
