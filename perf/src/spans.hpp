// In-memory span recording for the traced run, written out as Chrome
// trace_event JSON when the benchmark ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perf {

/// Seconds on the benchmark's monotonic clock (steady_clock, measured from
/// the first call). Frame release times, due times and spans all use it.
double now_s();

/// Blocks the calling thread until now_s() >= t_s.
void sleep_until_s(double t_s);

/// One timed interval, tagged with the session and frame it served.
/// session -1 marks the one-by-one layer pass, whose frame is the index of
/// the replayed acquisition.
struct Span {
  std::string name;
  int session = 0;
  std::int64_t frame = 0;
  double t0_s = 0.0;
  double t1_s = 0.0;
  std::uint64_t thread = 0;
};

/// Thread-safe span store.
class SpanLog {
 public:
  void add(std::string name, int session, std::int64_t frame, double t0_s,
           double t1_s);

  std::vector<Span> spans() const;

  /// Writes every span as a complete ("ph":"X") trace event, with
  /// `metadata_json` (a JSON object) under "metadata". Returns false when
  /// the file cannot be written.
  bool write_chrome_trace(const std::string& path,
                          const std::string& metadata_json) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Records [construction, destruction) into `log` when it is non-null.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, int session, std::int64_t frame)
      : log_(log), name_(std::move(name)), session_(session), frame_(frame),
        t0_(now_s()) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->add(std::move(name_), session_, frame_, t0_, now_s());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  std::string name_;
  int session_;
  std::int64_t frame_;
  double t0_;
};

}  // namespace perf
