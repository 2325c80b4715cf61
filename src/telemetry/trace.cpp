#include "telemetry/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace tvbf::telemetry {

namespace {
constexpr std::size_t kNameWords = 6;
constexpr std::size_t kNameChars = kNameWords * 8;  // 47 chars + NUL
}  // namespace

TraceBuffer::TraceBuffer(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)),
      events_(std::make_unique<Event[]>(capacity_)) {}

void TraceBuffer::record(const char* name,
                         std::chrono::steady_clock::time_point begin,
                         std::chrono::steady_clock::time_point end,
                         std::uint64_t flow) {
  const std::size_t idx = head_.fetch_add(1, std::memory_order_relaxed);
  if (idx >= capacity_) {
    drops_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Event& e = events_[idx];
  // Seqlock write: stamp odd, write the payload, publish even. The payload
  // stores are releases (not a fence, which TSan does not model), so a
  // reader whose acquire load sees one of them sees the odd stamp too. The
  // stamp counter survives clear(), so if a pre-clear straggler still holds
  // this slot the two writers' versions differ and a reader discards the
  // tear.
  const std::uint64_t stamp = stamps_.fetch_add(1, std::memory_order_relaxed);
  e.version.store(2 * stamp + 1, std::memory_order_relaxed);
  e.begin_ns.store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                       begin.time_since_epoch())
                       .count(),
                   std::memory_order_release);
  e.dur_ns.store(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin)
          .count(),
      std::memory_order_release);
  e.flow.store(flow, std::memory_order_release);
  e.tid.store(static_cast<std::uint32_t>(thread_index()),
              std::memory_order_release);
  char packed[kNameChars] = {};
  if (name != nullptr) std::strncpy(packed, name, kNameChars - 1);
  for (std::size_t w = 0; w < kNameWords; ++w) {
    std::uint64_t word = 0;
    std::memcpy(&word, packed + w * 8, 8);
    e.name[w].store(word, std::memory_order_release);
  }
  e.version.store(2 * stamp + 2, std::memory_order_release);
}

bool TraceBuffer::read_slot(const Event& e, Snap& out) const {
  const std::uint64_t v1 = e.version.load(std::memory_order_acquire);
  if (v1 == 0 || (v1 & 1) != 0) return false;
  // Acquire payload loads: the re-read of the version cannot move above
  // them, so the same stamp means the slot was stable across the copy.
  out.begin_ns = e.begin_ns.load(std::memory_order_acquire);
  out.dur_ns = e.dur_ns.load(std::memory_order_acquire);
  out.flow = e.flow.load(std::memory_order_acquire);
  out.tid = e.tid.load(std::memory_order_acquire);
  char packed[kNameChars];
  for (std::size_t w = 0; w < kNameWords; ++w) {
    const std::uint64_t word = e.name[w].load(std::memory_order_acquire);
    std::memcpy(packed + w * 8, &word, 8);
  }
  packed[kNameChars - 1] = '\0';
  std::memcpy(out.name, packed, kNameChars);
  out.name[sizeof(out.name) - 1] = '\0';
  return e.version.load(std::memory_order_relaxed) == v1;
}

std::size_t TraceBuffer::size() const {
  const std::size_t claimed =
      std::min(head_.load(std::memory_order_relaxed), capacity_);
  std::size_t n = 0;
  Snap snap;
  for (std::size_t i = 0; i < claimed; ++i)
    if (read_slot(events_[i], snap)) ++n;
  return n;
}

std::size_t TraceBuffer::dropped() const {
  return static_cast<std::size_t>(drops_.load(std::memory_order_relaxed));
}

void TraceBuffer::clear() {
  const std::size_t claimed =
      std::min(head_.load(std::memory_order_relaxed), capacity_);
  for (std::size_t i = 0; i < claimed; ++i)
    events_[i].version.store(0, std::memory_order_relaxed);
  drops_.store(0, std::memory_order_relaxed);
  head_.store(0, std::memory_order_relaxed);
}

std::string TraceBuffer::to_chrome_json() const {
  // One stable pass over the slots up front: each slot is either copied
  // whole (version unchanged across the copy) or skipped, so the render
  // below works on immutable snapshots.
  const std::size_t claimed =
      std::min(head_.load(std::memory_order_relaxed), capacity_);
  std::vector<Snap> snaps;
  snaps.reserve(claimed);
  Snap snap;
  for (std::size_t i = 0; i < claimed; ++i)
    if (read_slot(events_[i], snap)) snaps.push_back(snap);
  // Timestamps are emitted relative to the earliest span so the viewer
  // opens at t=0 instead of hours into steady_clock's epoch.
  std::int64_t base_ns = 0;
  bool have_base = false;
  for (const Snap& e : snaps) {
    if (!have_base || e.begin_ns < base_ns) {
      base_ns = e.begin_ns;
      have_base = true;
    }
  }
  std::string out = "{\"traceEvents\": [";
  bool first = true;
  char buf[256];
  // Spans of one flow id, ordered by begin time: the basis for the
  // "s"/"t"/"f" chain emitted after the duration slices. std::map keeps
  // the output deterministic (flows in id order).
  std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::size_t>>>
      flows;
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    const Snap& e = snaps[i];
    if (e.flow != 0) flows[e.flow].push_back({e.begin_ns, i});
    // Escape is unnecessary: names are identifier-style stage/node labels
    // copied from code, but guard against quotes/backslashes anyway.
    char safe[sizeof(e.name)];
    std::size_t w = 0;
    for (std::size_t r = 0; e.name[r] != '\0' && w + 1 < sizeof(safe); ++r) {
      const char c = e.name[r];
      if (c == '"' || c == '\\') {
        safe[w++] = '_';
      } else if (static_cast<unsigned char>(c) >= 0x20) {
        safe[w++] = c;
      }
    }
    safe[w] = '\0';
    std::snprintf(buf, sizeof(buf),
                  "%s\n  {\"name\": \"%s\", \"cat\": \"tvbf\", \"ph\": "
                  "\"X\", \"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, "
                  "\"tid\": %u}",
                  first ? "" : ",", safe,
                  static_cast<double>(e.begin_ns - base_ns) * 1e-3,
                  static_cast<double>(e.dur_ns) * 1e-3, e.tid);
    out += buf;
    first = false;
  }
  // Flow chains: earliest span starts ("s") the flow, middles continue it
  // ("t"), the latest finishes ("f", binding "e" = enclosing slice). Each
  // flow event's ts sits at the midpoint of its span so the viewer binds
  // the arrow to that slice. Single-span flows draw no arrow; skip them.
  for (auto& [flow_id, spans] : flows) {
    if (spans.size() < 2) continue;
    std::sort(spans.begin(), spans.end());
    for (std::size_t k = 0; k < spans.size(); ++k) {
      const Snap& e = snaps[spans[k].second];
      const char* ph = k == 0 ? "s" : (k + 1 == spans.size() ? "f" : "t");
      const double mid_us =
          (static_cast<double>(e.begin_ns - base_ns) +
           static_cast<double>(e.dur_ns) * 0.5) *
          1e-3;
      std::snprintf(buf, sizeof(buf),
                    "%s\n  {\"name\": \"frame\", \"cat\": \"tvbf.flow\", "
                    "\"ph\": \"%s\", \"id\": %llu, \"ts\": %.3f, "
                    "\"pid\": 1, \"tid\": %u%s}",
                    first ? "" : ",", ph,
                    static_cast<unsigned long long>(flow_id), mid_us, e.tid,
                    k + 1 == spans.size() ? ", \"bp\": \"e\"" : "");
      out += buf;
      first = false;
    }
  }
  out += first ? "]}\n" : "\n]}\n";
  return out;
}

// ---------------------------------------------------------------------------
// Process-wide trace buffer

namespace {
std::atomic<bool> g_trace_active{false};
std::atomic<TraceBuffer*> g_trace_buffer{nullptr};
std::mutex g_trace_mu;  // serializes start/stop/export, not record

std::atomic<std::uint64_t> g_next_flow{1};
thread_local std::uint64_t t_current_flow = 0;
}  // namespace

std::uint64_t next_flow_id() {
  return g_next_flow.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t current_flow() { return t_current_flow; }

ScopedFlow::ScopedFlow(std::uint64_t flow) : prev_(t_current_flow) {
  t_current_flow = flow;
}

ScopedFlow::~ScopedFlow() { t_current_flow = prev_; }

bool trace_active() {
  return g_trace_active.load(std::memory_order_relaxed);
}

void trace_start(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(g_trace_mu);
  TraceBuffer* buf = g_trace_buffer.load(std::memory_order_acquire);
  if (buf == nullptr) {
    // Leaked on purpose: worker threads may hold the pointer past main's
    // static teardown.
    buf = new TraceBuffer(capacity);  // tvbf-check: allow(naked-new)
    g_trace_buffer.store(buf, std::memory_order_release);
  } else {
    buf->clear();
  }
  g_trace_active.store(true, std::memory_order_relaxed);
}

void trace_stop() {
  g_trace_active.store(false, std::memory_order_relaxed);
}

void trace_record(const char* name,
                  std::chrono::steady_clock::time_point begin,
                  std::chrono::steady_clock::time_point end) {
  trace_record_flow(name, begin, end, t_current_flow);
}

void trace_record_flow(const char* name,
                       std::chrono::steady_clock::time_point begin,
                       std::chrono::steady_clock::time_point end,
                       std::uint64_t flow) {
  if (!trace_active()) return;
  TraceBuffer* buf = g_trace_buffer.load(std::memory_order_acquire);
  if (buf != nullptr) buf->record(name, begin, end, flow);
}

std::string trace_export_json() {
  std::lock_guard<std::mutex> lock(g_trace_mu);
  TraceBuffer* buf = g_trace_buffer.load(std::memory_order_acquire);
  if (buf == nullptr) return "{\"traceEvents\": []}\n";
  return buf->to_chrome_json();
}

std::int64_t trace_dropped() {
  TraceBuffer* buf = g_trace_buffer.load(std::memory_order_acquire);
  return buf != nullptr ? static_cast<std::int64_t>(buf->dropped()) : 0;
}

}  // namespace tvbf::telemetry
