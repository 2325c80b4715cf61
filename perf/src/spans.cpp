#include "spans.hpp"

#include <cstdio>
#include <functional>
#include <thread>

namespace perf {
namespace {

using Clock = std::chrono::steady_clock;

Clock::time_point epoch() {
  static const Clock::time_point t = Clock::now();
  return t;
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(Clock::now() - epoch()).count();
}

void sleep_until_s(double t_s) {
  std::this_thread::sleep_until(
      epoch() + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(t_s)));
}

void SpanLog::add(std::string name, int session, std::int64_t frame,
                  double t0_s, double t1_s) {
  const std::uint64_t thread =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000;
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{std::move(name), session, frame, t0_s, t1_s, thread});
}

std::vector<Span> SpanLog::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanLog::write_chrome_trace(const std::string& path,
                                 const std::string& metadata_json) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"metadata\": %s,\n\"traceEvents\": [", metadata_json.c_str());
  bool first = true;
  for (const Span& s : spans()) {
    // pid 1: the streamed frames; pid 2: the one-by-one layer pass.
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%llu,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"session\":%d,"
                 "\"frame\":%lld}}",
                 first ? "" : ",", s.name.c_str(), s.session < 0 ? 2 : 1,
                 static_cast<unsigned long long>(s.thread), s.t0_s * 1e6,
                 (s.t1_s - s.t0_s) * 1e6, s.session,
                 static_cast<long long>(s.frame));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perf
