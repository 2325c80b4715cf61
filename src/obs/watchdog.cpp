#include "obs/watchdog.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>
#include <utility>

#include "obs/flight_recorder.hpp"
#include "telemetry/telemetry.hpp"

namespace tvbf::obs {

std::string StallReport::describe() const {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "stall: no progress for %.2fs with work pending%s\n"
                "  frames_delivered=%lld in_flight=%lld\n",
                stalled_s, pending_override ? " (injected)" : "",
                static_cast<long long>(frames_delivered),
                static_cast<long long>(in_flight));
  std::string out = buf;
  for (const ThreadNote& t : threads) {
    std::snprintf(buf, sizeof(buf), "  thread %zu: last \"%s\" %.2fs ago\n",
                  t.thread, t.what.c_str(), t.age_s);
    out += buf;
  }
  return out;
}

struct Watchdog::Impl {
  Options options;

  telemetry::Counter& frames =
      telemetry::Registry::instance().counter("serve.frames");
  telemetry::Gauge& in_flight =
      telemetry::Registry::instance().gauge("serve.in_flight");

  std::mutex mu;
  std::condition_variable cv;
  std::thread monitor;
  bool run = false;

  std::atomic<std::int64_t> trips{0};
  mutable std::mutex report_mu;
  StallReport last_report;

  void loop();
};

void Watchdog::Impl::loop() {
  using Clock = std::chrono::steady_clock;
  std::int64_t last_progress = frames.value();
  Clock::time_point progress_at = Clock::now();
  bool armed = true;
  std::unique_lock<std::mutex> lock(mu);
  while (run) {
    cv.wait_for(lock, std::chrono::duration<double>(options.period_s),
                [this] { return !run; });
    if (!run) break;
    lock.unlock();

    const std::int64_t progress = frames.value();
    const bool injected =
        options.pending_override && options.pending_override();
    const bool pending = in_flight.value() > 0 || injected;
    const Clock::time_point now = Clock::now();
    if (progress != last_progress) {
      last_progress = progress;
      progress_at = now;
      armed = true;  // new stall episodes may trip again
    } else if (pending) {
      const double stalled_s =
          std::chrono::duration<double>(now - progress_at).count();
      FlightRecorder::instance().record(EventKind::kWatchdogObserve, -1,
                                        in_flight.value(), 0,
                                        injected ? "injected" : nullptr);
      if (armed && stalled_s >= options.stall_s) {
        armed = false;
        StallReport report;
        report.stalled_s = stalled_s;
        report.frames_delivered = frames.value();
        report.in_flight = in_flight.value();
        report.pending_override = injected;
        report.threads = ServiceState::instance().thread_notes();
        FlightRecorder::instance().record(
            EventKind::kWatchdogTrip, -1, report.in_flight, 0,
            injected ? "injected" : nullptr);
        {
          const std::lock_guard<std::mutex> report_lock(report_mu);
          last_report = report;
        }
        trips.fetch_add(1, std::memory_order_release);
        if (!options.dump_path.empty()) write_flight_dump(options.dump_path);
        if (options.on_trip) options.on_trip(report);
      }
    }

    lock.lock();
  }
}

Watchdog::Watchdog(Options options) : impl_(std::make_unique<Impl>()) {
  impl_->options = std::move(options);
  if (impl_->options.period_s <= 0.0) impl_->options.period_s = 0.25;
}

Watchdog::~Watchdog() { stop(); }

void Watchdog::start() {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  if (impl_->run) return;
  impl_->run = true;
  impl_->monitor = std::thread([this] { impl_->loop(); });
}

void Watchdog::stop() {
  {
    const std::lock_guard<std::mutex> lock(impl_->mu);
    if (!impl_->run) return;
    impl_->run = false;
  }
  impl_->cv.notify_all();
  impl_->monitor.join();
}

bool Watchdog::running() const {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->run;
}

std::int64_t Watchdog::trips() const {
  return impl_->trips.load(std::memory_order_acquire);
}

StallReport Watchdog::last_report() const {
  const std::lock_guard<std::mutex> lock(impl_->report_mu);
  return impl_->last_report;
}

}  // namespace tvbf::obs
