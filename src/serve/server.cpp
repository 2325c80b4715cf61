#include "serve/server.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/ops_server.hpp"
#include "obs/service_state.hpp"
#include "telemetry/trace.hpp"
#include "us/plan_cache.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace tvbf::serve {

void tune_allocator() {
#if defined(__GLIBC__)
  // 64 MiB covers paper-scale cubes and activations; anything below keeps
  // recycling through the heap arena.
  mallopt(M_MMAP_THRESHOLD, 64 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
#endif
}

namespace {
// Set while a run with an ops plane is live: obs::ServiceState is
// process-wide and keyed by session id, so a second such run would reset
// the first one's sessions and feed its own under the same ids.
std::atomic<bool> ops_run_live{false};
}  // namespace

struct Server::Impl {
  ServerConfig config;
  std::vector<std::unique_ptr<Session>> sessions;
  bool started = false;

  // ---- run() scheduler state ----------------------------------------------
  std::mutex mu;
  std::condition_variable cv_work;   // workers: frames ready / done
  std::condition_variable cv_space;  // producers: queue slot freed
  bool stop = false;
  std::exception_ptr first_error;
  std::size_t next_session = 0;  // round-robin cursor over sessions
  // Ops plane: true while run() feeds obs::ServiceState (endpoint or
  // watchdog configured); ops_port_live publishes the bound port.
  bool ops_active = false;
  std::atomic<int> ops_port_live{-1};

  // ---- telemetry -----------------------------------------------------------
  // Server-wide instruments (per-session frame histograms live on the
  // Session). in_flight counts frames acquired but not yet delivered or
  // dropped; frame_s is dispatch-to-delivery across all sessions.
  telemetry::Counter& t_frames =
      telemetry::Registry::instance().counter("serve.frames");
  telemetry::Counter& t_dropped =
      telemetry::Registry::instance().counter("serve.dropped");
  telemetry::Gauge& t_in_flight =
      telemetry::Registry::instance().gauge("serve.in_flight");
  telemetry::LatencyHistogram& t_frame_s =
      telemetry::Registry::instance().histogram("serve.frame_s");

  // Background sampler (run() starts it when config asks for one).
  std::thread sampler;
  std::mutex sampler_mu;
  std::condition_variable sampler_cv;
  bool sampler_stop = false;

  void start_sampler() {
    if (config.telemetry_period_s <= 0.0 || !config.telemetry_sink) return;
    sampler = std::thread([this] {
      const auto period = std::chrono::duration<double>(
          config.telemetry_period_s);
      std::unique_lock<std::mutex> lock(sampler_mu);
      while (!sampler_stop) {
        if (sampler_cv.wait_for(lock, period,
                                [this] { return sampler_stop; }))
          break;
        lock.unlock();
        config.telemetry_sink(telemetry::Registry::instance().snapshot());
        lock.lock();
      }
    });
  }

  void stop_sampler() {
    if (!sampler.joinable()) return;
    {
      const std::lock_guard<std::mutex> lock(sampler_mu);
      sampler_stop = true;
    }
    sampler_cv.notify_all();
    sampler.join();
    // A guaranteed final snapshot: short runs see at least one emission,
    // and the last one always reflects the finished run.
    config.telemetry_sink(telemetry::Registry::instance().snapshot());
  }

  explicit Impl(ServerConfig cfg) : config(std::move(cfg)) {}

  void fail(std::exception_ptr error) {
    {
      const std::lock_guard<std::mutex> lock(mu);
      if (!first_error) first_error = error;
      stop = true;
    }
    cv_work.notify_all();
    cv_space.notify_all();
  }

  bool all_sessions_done() const {
    return std::all_of(sessions.begin(), sessions.end(),
                       [](const auto& s) { return s->done(); });
  }

  /// Marks the session retired exactly once. Caller holds mu.
  void check_retired_locked(Session& s) {
    if (s.retired || !s.done()) return;
    s.retired = true;
    obs::FlightRecorder::instance().record(obs::EventKind::kSessionRetire,
                                           s.id(), s.frames, s.dropped);
    if (ops_active) obs::ServiceState::instance().retire(s.id());
  }

  // ---- acquisition producers (one thread per session) ---------------------

  void produce(Session& s) {
    try {
      s.config().source->reset();
      while (true) {
        rt::Frame frame;
        const auto acq0 = std::chrono::steady_clock::now();
        const bool have = s.config().source->next(frame);
        if (!have) break;
        const auto acq1 = std::chrono::steady_clock::now();
        s.source_stats.record(
            std::chrono::duration<double>(acq1 - acq0).count());
        // Head of the frame's lineage chain: the acquisition span carries
        // the trace id the source just minted.
        telemetry::trace_record_flow("serve.acquire", acq0, acq1,
                                     frame.trace_id);
        std::unique_lock<std::mutex> lock(mu);
        if (stop) break;
        if (s.ready.size() >= config.max_in_flight) {
          if (config.backpressure == Backpressure::kBlock) {
            cv_space.wait(lock, [&] {
              return stop || s.ready.size() < config.max_in_flight;
            });
            if (stop) break;
          } else {
            s.ready.pop_front();  // freshest frames win
            ++s.dropped;
            t_dropped.add();
            t_in_flight.sub();
            obs::FlightRecorder::instance().record(
                obs::EventKind::kFrameDrop, s.id(), s.dropped,
                static_cast<std::int64_t>(s.ready.size()));
            if (ops_active)
              obs::ServiceState::instance().frame_dropped(s.id());
          }
        }
        s.ready.push_back(std::move(frame));
        t_in_flight.add();
        lock.unlock();
        cv_work.notify_one();
      }
    } catch (...) {
      fail(std::current_exception());
    }
    {
      const std::lock_guard<std::mutex> lock(mu);
      s.exhausted = true;
      check_retired_locked(s);
    }
    cv_work.notify_all();
  }

  // ---- workers: walk one ready frame at a time -----------------------------

  /// The next session, round-robin from the cursor, with a ready frame and
  /// none in flight; null when there is none. Caller holds mu.
  Session* next_ready_locked() {
    for (std::size_t k = 0; k < sessions.size(); ++k) {
      Session& s = *sessions[(next_session + k) % sessions.size()];
      if (s.busy || s.ready.empty()) continue;
      next_session = (next_session + k + 1) % sessions.size();
      return &s;
    }
    return nullptr;
  }

  /// Processes and delivers one frame of `s` (no lock held). Returns the
  /// sink's seconds.
  static double serve_frame(Session& s, const rt::Frame& frame) {
    // Flow before span: the span's trace event (recorded at span
    // destruction) must see the frame's lineage id.
    const telemetry::ScopedFlow flow(frame.trace_id);
    auto& state = obs::ServiceState::instance();
    set_job_tag(static_cast<std::uint64_t>(s.id()) + 1);
    try {
      state.thread_note("serve.frame");
      const rt::FrameOutput out = [&] {
        const telemetry::ScopedSpan span(nullptr, "serve.frame");
        return s.processor().process(frame);
      }();
      state.thread_note("serve.sink");
      const telemetry::ScopedSpan span(nullptr, "serve.sink");
      Timer t;
      if (s.config().sink) s.config().sink(out);
      set_job_tag(0);
      return t.seconds();
    } catch (...) {
      set_job_tag(0);
      throw;
    }
  }

  void work(bool serial) {
    std::optional<ScopedSerial> serial_scope;
    if (serial) serial_scope.emplace();
    std::unique_lock<std::mutex> lock(mu);
    while (true) {
      Session* s = nullptr;
      cv_work.wait(lock, [&] {
        return stop || (s = next_ready_locked()) != nullptr ||
               all_sessions_done();
      });
      if (stop || s == nullptr) return;
      const rt::Frame frame = std::move(s->ready.front());
      s->ready.pop_front();
      s->busy = true;
      const auto dispatch = std::chrono::steady_clock::now();
      lock.unlock();
      cv_space.notify_all();

      double sink_s = 0.0;
      try {
        sink_s = serve_frame(*s, frame);
      } catch (...) {
        fail(std::current_exception());  // stops every worker and producer
        return;
      }

      const double frame_s = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - dispatch)
                                 .count();
      lock.lock();
      s->busy = false;
      ++s->frames;
      t_frames.add();
      t_in_flight.sub();
      s->frame_latency.record(frame_s);
      t_frame_s.record(frame_s);
      if (ops_active) obs::ServiceState::instance().heartbeat(s->id(), frame_s);
      const auto& t = s->processor().last_times();
      s->tof_stats.record(t.tof_s);
      s->compound_stats.record(t.compound_s);
      s->beamform_stats.record(t.beamform_s);
      s->post_stats.record(t.post_s);
      s->sink_stats.record(sink_s);
      check_retired_locked(*s);
      cv_work.notify_all();
    }
  }

  void run_sessions() {
    // Serializing stages only pays when there are enough concurrent
    // streams to fill the cores; below that it would idle cores and regress
    // behind a solo Pipeline::run.
    const std::size_t threads = hardware_threads();
    const bool serial = sessions.size() >= threads;
    std::vector<std::thread> producers;
    producers.reserve(sessions.size());
    for (const auto& s : sessions)
      producers.emplace_back([this, session = s.get()] { produce(*session); });
    std::vector<std::thread> workers;
    const std::size_t num_workers = std::min(sessions.size(), threads);
    workers.reserve(num_workers);
    for (std::size_t i = 0; i < num_workers; ++i)
      workers.emplace_back([this, serial] { work(serial); });

    for (auto& t : producers) t.join();
    for (auto& t : workers) t.join();
  }
};

Server::Server(ServerConfig config) : impl_(std::make_unique<Impl>(config)) {
  TVBF_REQUIRE(config.max_in_flight >= 1,
               "server max_in_flight must be >= 1");
}

Server::~Server() = default;

int Server::add_session(SessionConfig config) {
  TVBF_REQUIRE(!impl_->started, "add_session after Server::run");
  const int id = static_cast<int>(impl_->sessions.size());
  impl_->sessions.push_back(std::make_unique<Session>(id, std::move(config)));
  return id;
}

std::size_t Server::num_sessions() const { return impl_->sessions.size(); }

int Server::ops_port() const {
  return impl_->ops_port_live.load(std::memory_order_acquire);
}

const ServerConfig& Server::config() const { return impl_->config; }

ServerReport Server::run() {
  Impl& im = *impl_;
  TVBF_REQUIRE(!im.started, "Server::run is single-shot");
  TVBF_REQUIRE(!im.sessions.empty(), "server has no sessions");

  // ---- ops plane -----------------------------------------------------------
  // ServiceState is fed only while an ops consumer (endpoint or watchdog)
  // is configured; flight-recorder events are always on (gated internally
  // on telemetry::enabled like every instrument).
  im.ops_active =
      im.config.ops_port >= 0 || im.config.watchdog_stall_s > 0.0;
  bool idle = false;
  TVBF_REQUIRE(!im.ops_active ||
                   ops_run_live.compare_exchange_strong(
                       idle, true, std::memory_order_acq_rel,
                       std::memory_order_acquire),
               "another server's run with an ops plane is live");
  struct OpsClaim {  // releases the claim however run() leaves
    bool held;
    ~OpsClaim() {
      if (held) ops_run_live.store(false, std::memory_order_release);
    }
  } const ops_claim{im.ops_active};
  im.started = true;
  if (im.ops_active) {
    auto& state = obs::ServiceState::instance();
    state.reset();
    for (const auto& s : im.sessions)
      state.admit(s->id(), s->config().source->name(),
                  s->config().beamformer->name(), s->config().slo_frame_s,
                  s->config().drop_budget);
  }
  for (const auto& s : im.sessions)
    obs::FlightRecorder::instance().record(
        obs::EventKind::kSessionAdmit, s->id(),
        s->config().source->num_frames(), 0,
        s->config().beamformer->name().c_str());
  std::unique_ptr<obs::OpsServer> ops;
  if (im.config.ops_port >= 0) {
    ops = std::make_unique<obs::OpsServer>(
        obs::OpsServer::Options{im.config.ops_port});
    if (ops->start())
      im.ops_port_live.store(ops->port(), std::memory_order_release);
  }
  std::unique_ptr<obs::Watchdog> watchdog;
  if (im.config.watchdog_stall_s > 0.0) {
    obs::Watchdog::Options wopts;
    wopts.period_s = im.config.watchdog_period_s;
    wopts.stall_s = im.config.watchdog_stall_s;
    wopts.dump_path = im.config.watchdog_dump_path;
    wopts.pending_override = im.config.watchdog_pending_override;
    wopts.on_trip = im.config.watchdog_on_trip;
    watchdog = std::make_unique<obs::Watchdog>(std::move(wopts));
    watchdog->start();
  }

  const auto cache_before = us::PlanCache::instance().stats();
  Timer wall;

  im.start_sampler();
  im.run_sessions();

  const double wall_s = wall.seconds();
  im.stop_sampler();
  if (watchdog) watchdog->stop();
  if (ops) {
    ops->stop();
    im.ops_port_live.store(-1, std::memory_order_release);
  }
  if (im.first_error) std::rethrow_exception(im.first_error);

  ServerReport report;
  report.wall_s = wall_s;
  const auto cache_after = us::PlanCache::instance().stats();
  report.plan_cache_hits = cache_after.hits - cache_before.hits;
  report.plan_cache_misses = cache_after.misses - cache_before.misses;
  for (const auto& s : im.sessions) {
    report.sessions.push_back(s->report());
    report.frames += s->frames;
    report.dropped += s->dropped;
  }
  return report;
}

}  // namespace tvbf::serve
