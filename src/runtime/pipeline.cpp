#include "runtime/pipeline.hpp"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "beamform/compounding.hpp"
#include "common/timer.hpp"
#include "dsp/hilbert.hpp"
#include "us/plan_cache.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace tvbf::rt {

namespace {
// Stage indices into PipelineReport::stages.
enum Stage : std::size_t { kSource, kTof, kCompound, kBeamform, kPost, kSink };

// Process-wide stage histograms, shared by every FrameProcessor (solo
// pipelines and server sessions alike). These subsume the min/mean/max of
// StageStats with full latency distributions; the per-report StageStats
// remain the exact per-run figures.
struct StageInstruments {
  telemetry::LatencyHistogram& source =
      telemetry::Registry::instance().histogram("pipeline.source_s");
  telemetry::LatencyHistogram& tof =
      telemetry::Registry::instance().histogram("pipeline.tof_s");
  telemetry::LatencyHistogram& compound =
      telemetry::Registry::instance().histogram("pipeline.compound_s");
  telemetry::LatencyHistogram& beamform =
      telemetry::Registry::instance().histogram("pipeline.beamform_s");
  telemetry::LatencyHistogram& post =
      telemetry::Registry::instance().histogram("pipeline.post_s");
  telemetry::LatencyHistogram& sink =
      telemetry::Registry::instance().histogram("pipeline.sink_s");
};

StageInstruments& stage_instruments() {
  static StageInstruments instruments;
  return instruments;
}
}  // namespace

void StageStats::record(double seconds) {
  ++frames;
  total_s += seconds;
  min_s = std::min(min_s, seconds);
  max_s = std::max(max_s, seconds);
}

const StageStats& PipelineReport::stage(const std::string& name) const {
  for (const auto& s : stages)
    if (s.name == name) return s;
  throw InvalidArgument("no pipeline stage named '" + name + "'");
}

FrameProcessor::FrameProcessor(std::shared_ptr<const bf::Beamformer> beamformer,
                               PipelineConfig config)
    : beamformer_(std::move(beamformer)), config_(std::move(config)) {
  TVBF_REQUIRE(beamformer_ != nullptr, "frame processor needs a beamformer");
  config_.grid.validate();
  TVBF_REQUIRE(config_.dynamic_range_db > 0.0,
               "dynamic range must be positive");
}

void FrameProcessor::prepare(const Frame& frame) {
  num_angles_ = frame.num_acquisitions();
  times_ = StageTimes{};
  workspaces_.resize(num_angles_);
  plans_.assign(num_angles_, nullptr);
  // One cached plan per steering angle; holding the shared_ptrs keeps the
  // stream's plans alive even if a larger working set evicts them.
  for (std::size_t i = 0; i < num_angles_; ++i)
    plans_[i] = us::PlanCache::instance().get_for(
        frame.acquisition(i), config_.grid, config_.tof.interp);
  deferred_ = num_angles_ == 1 && !config_.tof.analytic &&
                      plans_[0]->reads_rf()
                  ? &frame.acq
                  : nullptr;
  // Per-angle destination cubes, kept frame after frame: apply() reuses a
  // correctly-shaped buffer without allocating and sets its grid.
  slots_.resize(num_angles_ > 1 ? num_angles_ : 0);
}

void FrameProcessor::apply_tof_angle(const Frame& frame, std::size_t angle) {
  if (deferred_ != nullptr) return;
  Timer t;
  us::TofCube& target = num_angles_ > 1 ? slots_[angle] : cube_;
  plans_[angle]->apply(frame.acquisition(angle), config_.tof.analytic, target,
                       &workspaces_[angle]);
  times_.tof_s += t.seconds();
}

void FrameProcessor::compound() {
  Timer t;
  if (num_angles_ > 1) {
    std::vector<const us::TofCube*> cubes;
    cubes.reserve(slots_.size());
    for (const auto& slot : slots_) cubes.push_back(&slot);
    bf::compound_cubes(cubes, cube_);
  }
  times_.compound_s = t.seconds();
}

void FrameProcessor::beamform() {
  if (deferred_ != nullptr) {
    Timer t;
    std::optional<Tensor> iq =
        beamformer_->beamform_through(*plans_[0], *deferred_);
    if (iq) {
      iq_ = std::move(*iq);
      times_.beamform_s = t.seconds();
      return;
    }
    // Declined: apply the plan after all, timed as the tof stage.
    t.reset();
    plans_[0]->apply(*deferred_, /*analytic=*/false, cube_, &workspaces_[0]);
    times_.tof_s += t.seconds();
  }
  Timer t;
  iq_ = beamformer_->beamform(cube_);
  times_.beamform_s = t.seconds();
}

FrameOutput FrameProcessor::finish(const Frame& frame) {
  Timer t;
  envelope_ = dsp::envelope_iq(iq_);
  db_ = dsp::log_compress(envelope_, config_.dynamic_range_db);
  times_.post_s = t.seconds();
  // Zero durations are stages this frame did not run (a fused frame's tof,
  // a single angle's compound) — recording them would pollute the
  // distributions.
  StageInstruments& si = stage_instruments();
  if (times_.tof_s > 0.0) si.tof.record(times_.tof_s);
  if (times_.compound_s > 0.0) si.compound.record(times_.compound_s);
  if (times_.beamform_s > 0.0) si.beamform.record(times_.beamform_s);
  if (times_.post_s > 0.0) si.post.record(times_.post_s);
  return FrameOutput{frame.index, frame.time_s, iq_, envelope_, db_,
                     frame.trace_id};
}

FrameOutput FrameProcessor::process(const Frame& frame) {
  prepare(frame);
  for (std::size_t i = 0; i < num_angles_; ++i) apply_tof_angle(frame, i);
  compound();
  beamform();
  return finish(frame);
}

Pipeline::Pipeline(std::shared_ptr<FrameSource> source,
                   std::shared_ptr<const bf::Beamformer> beamformer,
                   PipelineConfig config)
    : source_(std::move(source)),
      processor_(std::move(beamformer), std::move(config)) {
  TVBF_REQUIRE(source_ != nullptr, "pipeline needs a frame source");
}

void Pipeline::process_frame(const Frame& frame, const Sink& sink,
                             PipelineReport& report) {
  // Flow before span: the span's trace event (recorded at span
  // destruction) must see the frame's lineage id.
  const telemetry::ScopedFlow flow(frame.trace_id);
  const telemetry::ScopedSpan span(nullptr, "pipeline.frame");
  const FrameOutput out = processor_.process(frame);
  const FrameProcessor::StageTimes& times = processor_.last_times();
  report.stages[kTof].record(times.tof_s);
  report.stages[kCompound].record(times.compound_s);
  report.stages[kBeamform].record(times.beamform_s);
  report.stages[kPost].record(times.post_s);

  Timer t;
  if (sink) sink(out);
  const double sink_s = t.seconds();
  report.stages[kSink].record(sink_s);
  if (sink_s > 0.0) stage_instruments().sink.record(sink_s);
  ++report.frames;
}

PipelineReport Pipeline::run(const Sink& sink) {
  PipelineReport report;
  for (const char* name :
       {"source", "tof", "compound", "beamform", "postprocess", "sink"})
    report.stages.push_back(StageStats{.name = name});

  const auto cache_before = us::PlanCache::instance().stats();
  source_->reset();
  Timer wall;

  // Producer/consumer with a depth-2 queue: the source acquires frame k+1
  // while this thread processes frame k. Both sides may issue parallel_for
  // jobs; the pool serializes top-level jobs, so the overlap shrinks wall
  // time whenever either side has serial work (RF copy, FFT setup, sink
  // I/O) and never changes results.
  constexpr std::size_t kQueueDepth = 2;
  std::mutex mu;
  std::condition_variable cv_space, cv_data;
  std::deque<Frame> queue;
  bool done = false;
  bool stop = false;
  std::exception_ptr source_error;
  StageStats source_stats{.name = "source"};

  std::thread producer([&] {
    try {
      while (true) {
        Frame frame;
        Timer t;
        const bool have = source_->next(frame);
        if (!have) break;
        const double source_s = t.seconds();
        source_stats.record(source_s);
        if (source_s > 0.0) stage_instruments().source.record(source_s);
        std::unique_lock<std::mutex> lock(mu);
        cv_space.wait(lock,
                      [&] { return queue.size() < kQueueDepth || stop; });
        if (stop) break;
        queue.push_back(std::move(frame));
        cv_data.notify_one();
      }
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mu);
      source_error = std::current_exception();
    }
    const std::lock_guard<std::mutex> lock(mu);
    done = true;
    cv_data.notify_all();
  });

  try {
    while (true) {
      Frame frame;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv_data.wait(lock, [&] { return !queue.empty() || done; });
        if (queue.empty()) break;
        frame = std::move(queue.front());
        queue.pop_front();
        cv_space.notify_one();
      }
      process_frame(frame, sink, report);
    }
  } catch (...) {
    {
      const std::lock_guard<std::mutex> lock(mu);
      stop = true;
      cv_space.notify_all();
    }
    producer.join();
    throw;
  }
  producer.join();
  if (source_error) std::rethrow_exception(source_error);
  report.stages[kSource] = source_stats;

  report.wall_s = wall.seconds();
  const auto cache_after = us::PlanCache::instance().stats();
  report.plan_cache_hits = cache_after.hits - cache_before.hits;
  report.plan_cache_misses = cache_after.misses - cache_before.misses;
  return report;
}

}  // namespace tvbf::rt
