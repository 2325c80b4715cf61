#include "serve/server.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "device/device.hpp"
#include "graph/executor.hpp"
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
  // 64 MiB covers paper-scale stacked activations; anything below keeps
  // recycling through the heap arena.
  mallopt(M_MMAP_THRESHOLD, 64 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
#endif
}

struct Server::Impl {
  ServerConfig config;
  InferenceBatcher batcher;
  std::vector<std::unique_ptr<Session>> sessions;
  bool started = false;

  // ---- run() scheduler state ----------------------------------------------
  std::mutex mu;
  std::condition_variable cv_work;   // schedulers: frames ready / done
  std::condition_variable cv_space;  // producers: queue slot freed
  bool stop = false;
  std::exception_ptr first_error;
  // Ops plane: true while run() feeds obs::ServiceState (endpoint or
  // watchdog configured); ops_port_live publishes the bound port.
  bool ops_active = false;
  std::atomic<int> ops_port_live{-1};

  // ---- frame graphs --------------------------------------------------------
  /// One per distinct BatchedBeamformer shared by batched sessions: the
  /// cross-session inference gate's parking lot and quorum bookkeeping.
  struct BatchDomain {
    const bf::BatchedBeamformer* model = nullptr;
    std::vector<Session*> parked;  ///< sessions whose gate node is parked
    std::size_t live = 0;          ///< admitted sessions not yet retired
  };
  std::unique_ptr<graph::Executor> executor;
  std::mutex domain_mu;   // guards domains' parked/live
  std::mutex batcher_mu;  // InferenceBatcher::dispatch is single-threaded
  std::vector<BatchDomain> domains;

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
  // Batch-gate decisions: parked (below quorum), fired at quorum, and the
  // two partial-group flush paths (executor idle, session retirement).
  telemetry::Counter& t_gate_parked =
      telemetry::Registry::instance().counter("serve.batch.parked");
  telemetry::Counter& t_gate_quorum =
      telemetry::Registry::instance().counter("serve.batch.quorum_fired");
  telemetry::Counter& t_gate_idle_flush =
      telemetry::Registry::instance().counter("serve.batch.idle_flush");
  telemetry::Counter& t_gate_retire_flush =
      telemetry::Registry::instance().counter("serve.batch.retire_flush");

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

  explicit Impl(ServerConfig cfg)
      : config(cfg), batcher(cfg.max_batch) {}

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
        try_launch_locked(s);
        lock.unlock();
        cv_work.notify_all();
      }
    } catch (...) {
      fail(std::current_exception());
    }
    const bf::BatchedBeamformer* retire = nullptr;
    {
      const std::lock_guard<std::mutex> lock(mu);
      s.exhausted = true;
      retire = check_retired_locked(s);
    }
    cv_work.notify_all();
    if (retire != nullptr) on_retire(retire);
  }

  // ==========================================================================
  // Per-session stage graphs drained by readiness across all sessions on
  // one shared executor.
  // ==========================================================================

  /// Wraps a stage body as a graph node fn: tags this thread's pool work
  /// with the session id (fair-share admission in latency mode), runs the
  /// body, untags.
  static std::function<graph::Status()> tagged(Session& s,
                                               std::function<void()> fn) {
    return [&s, fn = std::move(fn)]() {
      set_job_tag(static_cast<std::uint64_t>(s.id()) + 1);
      try {
        fn();
      } catch (...) {
        set_job_tag(0);
        throw;
      }
      set_job_tag(0);
      return graph::Status::kDone;
    };
  }

  /// (Re)builds a session's stage graph for `angles` steering angles:
  /// prepare -> tof[0..angles) -> compound -> (beamform | batch gate) ->
  /// deliver. Caller holds mu (node bodies only run after launch).
  void build_graph(Session& s, std::size_t angles) {
    s.graph.clear();
    const graph::NodeId prep = s.graph.add(
        "prepare", {}, tagged(s, [&s] {
          // A batched session's cube feeds the stacked pass, so its tof
          // nodes apply the plan.
          s.processor().prepare(s.frame, s.batched() == nullptr);
        }));
    std::vector<graph::NodeId> tof_ids;
    tof_ids.reserve(angles);
    for (std::size_t i = 0; i < angles; ++i) {
      tof_ids.push_back(s.graph.add(
          "tof[" + std::to_string(i) + "]", {prep},
          tagged(s, [&s, i] { s.processor().apply_tof_angle(s.frame, i); })));
    }
    const graph::NodeId comp = s.graph.add(
        "compound", std::move(tof_ids),
        tagged(s, [&s] { s.processor().compound(); }));
    graph::NodeId pre_deliver;
    if (s.batched() != nullptr) {
      s.batch_node =
          s.graph.add("batch", {comp}, [this, &s] { return batch_gate(s); });
      pre_deliver = s.batch_node;
    } else {
      pre_deliver = s.graph.add("beamform", {comp},
                                tagged(s, [&s] { s.processor().beamform(); }));
    }
    s.graph.add("deliver", {pre_deliver}, tagged(s, [&s] {
                  const rt::FrameOutput out =
                      s.batched() != nullptr
                          ? s.processor().finish(s.frame,
                                                 std::move(s.batched_iq))
                          : s.processor().finish(s.frame);
                  Timer t;
                  if (s.config().sink) s.config().sink(out);
                  s.sink_s = t.seconds();
                }));
  }

  /// Pops the session's next ready frame into the graph and launches it.
  /// Caller holds mu.
  void try_launch_locked(Session& s) {
    if (stop || s.busy || s.ready.empty()) return;
    s.frame = std::move(s.ready.front());
    s.ready.pop_front();
    s.busy = true;
    s.dispatch_time = std::chrono::steady_clock::now();
    cv_space.notify_all();
    const std::size_t angles = s.frame.num_acquisitions();
    if (angles != s.graph_angles) {
      build_graph(s, angles);
      s.graph_angles = angles;
    }
    executor->launch(
        s.graph,
        [this, &s](std::exception_ptr error) { on_frame_done(s, error); },
        s.frame.trace_id);
  }

  /// Marks the session retired exactly once; returns its model when the
  /// retirement must be reported to the batch domain. Caller holds mu.
  const bf::BatchedBeamformer* check_retired_locked(Session& s) {
    if (s.retired || !s.done()) return nullptr;
    s.retired = true;
    obs::FlightRecorder::instance().record(obs::EventKind::kSessionRetire,
                                           s.id(), s.frames, s.dropped);
    if (ops_active) obs::ServiceState::instance().retire(s.id());
    return s.batched();
  }

  /// Completion of one session frame graph: records stage stats, launches
  /// the session's next ready frame, reports retirement.
  void on_frame_done(Session& s, std::exception_ptr error) {
    if (error) fail(error);
    const bf::BatchedBeamformer* retire = nullptr;
    {
      const std::lock_guard<std::mutex> lock(mu);
      s.busy = false;
      if (!error) {
        ++s.frames;
        t_frames.add();
        t_in_flight.sub();
        const double frame_s =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          s.dispatch_time)
                .count();
        s.frame_latency.record(frame_s);
        t_frame_s.record(frame_s);
        if (ops_active)
          obs::ServiceState::instance().heartbeat(s.id(), frame_s);
        const auto& t = s.processor().last_times();
        s.tof_stats.record(t.tof_s);
        s.compound_stats.record(t.compound_s);
        s.beamform_stats.record(s.batched() != nullptr ? s.forward_each_s
                                                       : t.beamform_s);
        s.post_stats.record(t.post_s);
        s.sink_stats.record(s.sink_s);
        try_launch_locked(s);
      }
      retire = check_retired_locked(s);
    }
    cv_work.notify_all();
    cv_space.notify_all();
    if (retire != nullptr) on_retire(retire);
  }

  BatchDomain& domain_of(const bf::BatchedBeamformer* model) {
    for (auto& d : domains)
      if (d.model == model) return d;
    throw LogicError("no batch domain for model");
  }

  /// Quorum for one batch domain: the structural ceiling (live sessions,
  /// configured cap) intersected with the batch size `ref`'s backend cost
  /// model prefers. On the CPU reference device the per-dispatch overhead
  /// amortizes quickly, so the gate fires small groups early; under the
  /// accelerator model's host-DMA overhead the preferred batch is larger
  /// and the gate holds out for deeper stacks.
  std::size_t quorum_of(const BatchDomain& d, Session& ref) {
    const std::size_t structural =
        std::max<std::size_t>(1, std::min(config.max_batch, d.live));
    if (!config.cost_aware_batching) return structural;
    const std::size_t preferred = batcher.preferred_batch(
        ref.device(), *ref.batched(), ref.processor().config().grid.nz,
        config.max_batch);
    return std::max<std::size_t>(1, std::min(structural, preferred));
  }

  /// The cross-session inference gate. Parks the session's frame until
  /// enough sessions sharing the model are parked (quorum = min(max_batch,
  /// live sessions, cost-preferred batch)); the quorum-completing session
  /// fires the stacked forward pass inline and resolves the other parked
  /// graphs.
  graph::Status batch_gate(Session& s) {
    std::unique_lock<std::mutex> lock(domain_mu);
    BatchDomain& d = domain_of(s.batched());
    d.parked.push_back(&s);
    const std::size_t quorum = quorum_of(d, s);
    if (d.parked.size() < quorum) {
      t_gate_parked.add();
      obs::FlightRecorder::instance().record(
          obs::EventKind::kGateParked, s.id(),
          static_cast<std::int64_t>(d.parked.size()),
          static_cast<std::int64_t>(quorum));
      if (ops_active)
        obs::ServiceState::instance().gate_update(
            &d, s.config().beamformer->name(), d.parked.size(), quorum);
      return graph::Status::kDeferred;
    }
    t_gate_quorum.add();
    obs::FlightRecorder::instance().record(
        obs::EventKind::kGateQuorumFired, s.id(),
        static_cast<std::int64_t>(d.parked.size()),
        static_cast<std::int64_t>(quorum));
    if (ops_active)
      obs::ServiceState::instance().gate_update(
          &d, s.config().beamformer->name(), 0, quorum);
    std::vector<Session*> group = std::move(d.parked);
    d.parked.clear();
    lock.unlock();
    fire_group(group, &s);
    return graph::Status::kDone;
  }

  /// Runs one stacked forward pass over the parked group and resumes every
  /// member but `self` (null when fired externally: idle flush / retire).
  /// On dispatch failure every other member's launch is failed; the error
  /// propagates through `self`'s node (or fail()) so the server stops.
  void fire_group(const std::vector<Session*>& group, Session* self) {
    try {
      std::vector<const us::TofCube*> cubes(group.size());
      for (std::size_t i = 0; i < group.size(); ++i)
        cubes[i] = &group[i]->processor().cube();
      const bf::BatchedBeamformer* model = group.front()->batched();
      const auto fwd0 = std::chrono::steady_clock::now();
      Timer fwd;
      std::vector<Tensor> iqs;
      {
        // One stacked pass for the whole group: revert this worker's
        // serial marker so the batch forward fans out across the pool,
        // untagged (it serves every parked session at once).
        ScopedParallel parallel;
        // The stacked forward runs on the group's backend (all members of
        // a domain share the model; the gate groups by model, and stock
        // backends are bit-identical, so the leader's device is
        // representative).
        const device::ScopedDevice scope(group.front()->device());
        const std::uint64_t prev = job_tag();
        set_job_tag(0);
        const std::lock_guard<std::mutex> fire_lock(batcher_mu);
        try {
          iqs = batcher.dispatch(*model, cubes);
        } catch (...) {
          set_job_tag(prev);
          throw;
        }
        set_job_tag(prev);
      }
      const auto fwd1 = std::chrono::steady_clock::now();
      const double each =
          fwd.seconds() / static_cast<double>(group.size());
      for (std::size_t i = 0; i < group.size(); ++i) {
        group[i]->batched_iq = std::move(iqs[i]);
        group[i]->forward_each_s = each;
        // The stacked pass serves every member frame at once: record one
        // span per member so each frame's lineage chain passes through it.
        telemetry::trace_record_flow("serve.batch.forward", fwd0, fwd1,
                                     group[i]->frame.trace_id);
      }
      // batched_iq is written above, before resolve: the member's deliver
      // node only becomes runnable through resolve(), which orders the
      // read after the write via the executor lock.
      for (Session* m : group)
        if (m != self) executor->resolve(m->graph, m->batch_node);
    } catch (...) {
      const std::exception_ptr error = std::current_exception();
      for (Session* m : group)
        if (m != self) executor->fail(m->graph, error);
      if (self != nullptr) std::rethrow_exception(error);
      fail(error);
    }
  }

  /// Executor idle hook: with the ready queue drained and no node running,
  /// fire any parked group (even below quorum) so deferred frames never
  /// stall the stream. Returns true when it made progress.
  bool flush_batches() {
    std::unique_lock<std::mutex> lock(domain_mu);
    for (auto& d : domains) {
      if (d.parked.empty()) continue;
      t_gate_idle_flush.add();
      obs::FlightRecorder::instance().record(
          obs::EventKind::kGateIdleFlush, d.parked.front()->id(),
          static_cast<std::int64_t>(d.parked.size()));
      if (ops_active)
        obs::ServiceState::instance().gate_update(
            &d, d.parked.front()->config().beamformer->name(), 0, 0);
      std::vector<Session*> group = std::move(d.parked);
      d.parked.clear();
      lock.unlock();
      fire_group(group, nullptr);
      return true;
    }
    return false;
  }

  /// A batched session retired: shrink its domain's quorum and fire the
  /// parked group if it now meets it (drain on session retire).
  void on_retire(const bf::BatchedBeamformer* model) {
    std::unique_lock<std::mutex> lock(domain_mu);
    BatchDomain& d = domain_of(model);
    if (d.live > 0) --d.live;
    if (d.parked.empty()) return;
    const std::size_t quorum = quorum_of(d, *d.parked.front());
    if (d.parked.size() < quorum) return;
    t_gate_retire_flush.add();
    obs::FlightRecorder::instance().record(
        obs::EventKind::kGateRetireFlush, d.parked.front()->id(),
        static_cast<std::int64_t>(d.parked.size()),
        static_cast<std::int64_t>(quorum));
    if (ops_active)
      obs::ServiceState::instance().gate_update(
          &d, d.parked.front()->config().beamformer->name(), 0, quorum);
    std::vector<Session*> group = std::move(d.parked);
    d.parked.clear();
    lock.unlock();
    fire_group(group, nullptr);
  }

  void run_sessions() {
    for (const auto& s : sessions) {
      if (s->batched() == nullptr) continue;
      auto it = std::find_if(domains.begin(), domains.end(), [&](auto& d) {
        return d.model == s->batched();
      });
      if (it == domains.end()) {
        domains.push_back(BatchDomain{s->batched(), {}, 1});
      } else {
        ++it->live;
      }
    }

    // Serializing stages only pays when there are enough concurrent
    // streams to fill the cores; below that it would idle cores and regress
    // behind a solo Pipeline::run.
    graph::Executor::Options opts;
    opts.num_workers = std::min(sessions.size(), hardware_threads());
    opts.serialize_nodes = sessions.size() >= hardware_threads();
    if (!domains.empty()) opts.idle_work = [this] { return flush_batches(); };
    executor = std::make_unique<graph::Executor>(opts);

    std::vector<std::thread> producers;
    producers.reserve(sessions.size());
    for (const auto& s : sessions)
      producers.emplace_back([this, session = s.get()] { produce(*session); });

    {
      std::unique_lock<std::mutex> lock(mu);
      cv_work.wait(lock, [&] { return stop || all_sessions_done(); });
    }
    for (auto& t : producers) t.join();
    // Fails any launch still in flight after an error stop, fires its
    // completion, and joins the workers. A clean finish reaches here with
    // the executor idle.
    executor->stop();
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
  impl_->sessions.push_back(std::make_unique<Session>(
      id, std::move(config), impl_->config.batch_inference));
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
  im.started = true;

  // ---- ops plane -----------------------------------------------------------
  // ServiceState is fed only while an ops consumer (endpoint or watchdog)
  // is configured; flight-recorder events are always on (gated internally
  // on telemetry::enabled like every instrument).
  im.ops_active =
      im.config.ops_port >= 0 || im.config.watchdog_stall_s > 0.0;
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
  report.batches = im.batcher.stats();
  for (const auto& s : im.sessions) {
    report.sessions.push_back(s->report());
    report.frames += s->frames;
    report.dropped += s->dropped;
  }
  return report;
}

}  // namespace tvbf::serve
