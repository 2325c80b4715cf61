#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>

#include "heap_counter.hpp"
#include "serve/server.hpp"
#include "stats.hpp"
#include "us/plan_cache.hpp"

namespace perf {
namespace {

/// What one session's sink accumulates; touched only by that session's
/// sink calls, which the library serializes.
struct SinkState {
  std::int64_t delivered = 0;
  std::int64_t mismatched = 0;
  double first_delivery_s = -1.0;
  std::vector<double> latency_ms;
  std::vector<double> wait_ms;
};

/// Process user + sys CPU seconds, all threads.
double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

/// Sum of the stage means of every stage but the source, in milliseconds.
double frame_stages_ms(const std::vector<tvbf::rt::StageStats>& stages) {
  double ms = 0.0;
  for (const tvbf::rt::StageStats& st : stages)
    if (st.name != "source") ms += st.mean_s() * 1e3;
  return ms;
}

}  // namespace

PhaseResult run_phase(const WorkloadSpec& spec, const Scene& scene,
                      const std::vector<tvbf::Tensor>& refs,
                      std::shared_ptr<const tvbf::bf::Beamformer> beamformer,
                      const PhaseOptions& options) {
  using namespace tvbf;
  const auto n_sessions = static_cast<std::size_t>(spec.sessions);
  const std::size_t n_acq = scene.acquisitions.size();
  const bool setup = options.seconds <= 0.0;
  const double period = spec.rate_hz > 0.0 ? 1.0 / spec.rate_hz : 0.0;
  const std::int64_t count =
      setup ? 1
      : period > 0.0
          ? static_cast<std::int64_t>(std::floor(options.seconds * spec.rate_hz)) + 1
          : std::numeric_limits<std::int64_t>::max();
  if (options.ledger != nullptr)
    beamformer = traced(std::move(beamformer), *options.ledger);

  std::vector<SinkState> states(n_sessions);
  for (SinkState& st : states) st.latency_ms.reserve(4096);
  const auto make_sink = [&](std::size_t s) {
    return [&, s](const rt::FrameOutput& out) {
      const ScopedSpan span(options.log, "sink", static_cast<int>(s), out.index);
      const double t = now_s();
      SinkState& st = states[s];
      const double latency_ms = (t - out.time_s) * 1e3;
      st.latency_ms.push_back(latency_ms);
      if (!same_bits(out.db, refs[(s + static_cast<std::size_t>(out.index)) % n_acq]))
        ++st.mismatched;
      if (st.first_delivery_s < 0.0) st.first_delivery_s = t;
      ++st.delivered;
      if (options.log == nullptr) return;
      options.log->add("frame", static_cast<int>(s), out.index, out.time_s, t);
      if (const auto call = options.ledger->call_for(out.iq.raw())) {
        options.log->add("beamform", static_cast<int>(s), out.index,
                         call->t0_s, call->t1_s);
        st.wait_ms.push_back(latency_ms - (call->t1_s - call->t0_s) * 1e3);
      }
    };
  };

  PhaseResult r;
  const double start = now_s();
  const double deadline = setup || period > 0.0
                              ? std::numeric_limits<double>::infinity()
                              : start + options.seconds;
  std::vector<std::shared_ptr<ClockedSource>> clocks;
  std::vector<std::shared_ptr<rt::FrameSource>> sources;
  for (std::size_t s = 0; s < n_sessions; ++s) {
    // Session s replays the acquisitions in turn, starting at s.
    std::vector<us::Acquisition> rotated;
    for (std::size_t k = 0; k < n_acq; ++k)
      rotated.push_back(scene.acquisitions[(s + k) % n_acq]);
    auto replay = std::make_shared<rt::ReplaySource>(
        std::move(rotated), std::numeric_limits<std::int64_t>::max());
    clocks.push_back(std::make_shared<ClockedSource>(replay, start, period,
                                                     count, deadline));
    sources.push_back(options.log != nullptr
                          ? std::make_shared<TracedSource>(
                                clocks.back(), *options.log, static_cast<int>(s))
                          : std::static_pointer_cast<rt::FrameSource>(clocks.back()));
  }

  // Per session, the stage stats of the run's report, and the run's wall
  // time as the Pipeline reports it.
  std::vector<std::vector<rt::StageStats>> stages(n_sessions);
  double pipeline_wall_s = 0.0;
  const double cpu_before = process_cpu_s();
  heap::reset_peak();
  try {
    if (n_sessions == 1) {
      rt::Pipeline pipeline(sources[0], beamformer, pipeline_config(scene));
      const rt::PipelineReport report = pipeline.run(make_sink(0));
      r.plan_hits = report.plan_cache_hits;
      r.plan_misses = report.plan_cache_misses;
      stages[0] = report.stages;
      pipeline_wall_s = report.wall_s;
    } else {
      serve::Server server;
      for (std::size_t s = 0; s < n_sessions; ++s)
        server.add_session(serve::SessionConfig{.source = sources[s],
                                                .beamformer = beamformer,
                                                .pipeline = pipeline_config(scene),
                                                .sink = make_sink(s)});
      const serve::ServerReport report = server.run();
      r.plan_hits = report.plan_cache_hits;
      r.plan_misses = report.plan_cache_misses;
      for (const serve::SessionReport& session : report.sessions)
        stages[static_cast<std::size_t>(session.id)] = session.stages;
    }
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  r.wall_s = now_s() - start;
  r.cpu_s = process_cpu_s() - cpu_before;
  r.peak_heap_bytes = heap::peak_bytes();

  for (std::size_t s = 0; s < n_sessions; ++s) {
    const SinkState& st = states[s];
    r.attempted += clocks[s]->produced();
    r.delivered += st.delivered;
    r.mismatched += st.mismatched;
    r.ready_s = s == 0 ? st.first_delivery_s
                : r.ready_s < 0.0 || st.first_delivery_s < 0.0
                    ? -1.0
                    : std::max(r.ready_s, st.first_delivery_s);
    r.latency_ms.insert(r.latency_ms.end(), st.latency_ms.begin(), st.latency_ms.end());
    r.wait_ms.insert(r.wait_ms.end(), st.wait_ms.begin(), st.wait_ms.end());
    const std::vector<double>& late = clocks[s]->late_ms();
    r.late_ms.insert(r.late_ms.end(), late.begin(), late.end());
  }
  if (period > 0.0) {
    std::vector<double> outside_ms;
    for (std::size_t s = 0; s < n_sessions; ++s)
      for (const double latency : states[s].latency_ms)
        outside_ms.push_back(latency - frame_stages_ms(stages[s]));
    if (!outside_ms.empty()) r.driver_ms = median(outside_ms);
  } else if (states[0].delivered > 0) {
    r.driver_ms = pipeline_wall_s * 1e3 / static_cast<double>(states[0].delivered) -
                  frame_stages_ms(stages[0]);
  }
  return r;
}

double cold_setup(const WorkloadSpec& spec, const Scene& scene,
                  const std::vector<tvbf::Tensor>& refs, PhaseResult& phase) {
  tvbf::us::PlanCache::instance().clear();
  const double t0 = now_s();
  phase = run_phase(spec, scene, refs, make_beamformer(spec.family, scene), {});
  return phase.ready_s - t0;
}

}  // namespace perf
