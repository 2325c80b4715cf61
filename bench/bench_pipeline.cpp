// Streaming-runtime benchmark: quantifies the cached-ToF-plan win.
//
// Part 1 times the ToF stage alone — per-frame us::tof_correct (geometry
// rebuilt every frame, the pre-runtime behavior) against us::TofPlan::apply
// through the plan cache (geometry built once, every frame pays only the
// gather) — and the geometry pass on its own, a cold TofPlan::build_for. Part 2 runs the full source -> ToF -> DAS -> envelope/log
// pipeline and prints per-stage latency. Part 3 checks that the streamed
// B-mode frame is numerically identical to the one-shot path.
// Results are also written to bench_out/BENCH_pipeline.json so the perf
// trajectory can be tracked across PRs.
//
//   ./bench_pipeline [--quick] [--frames N]
//
// Defaults to the paper-scale frame (128 channels, 368 x 128 grid);
// --quick switches to the reduced bench scale (32 channels, 192 x 64).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "beamform/das.hpp"
#include "bench_common.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "dsp/hilbert.hpp"
#include "runtime/pipeline.hpp"
#include "us/plan_cache.hpp"
#include "tensor/tensor_ops.hpp"
#include "us/tof.hpp"

namespace {

void print_usage(const char* argv0) {
  std::printf(
      "usage: %s [--quick] [--frames N] [--help]\n"
      "  --quick     reduced scene (32 channels, 192 x 64 grid) instead of\n"
      "              the paper-scale frame (128 channels, 368 x 128)\n"
      "  --frames N  frames per timed pipeline run (default 16)\n"
      "  --help      show this message\n",
      argv0);
}

void print_stage_table(const tvbf::rt::PipelineReport& rep) {
  std::printf("    %-12s %8s %8s %8s\n", "stage", "mean ms", "min ms",
              "max ms");
  for (const auto& s : rep.stages) {
    if (s.frames == 0) continue;
    std::printf("    %-12s %8.2f %8.2f %8.2f\n", s.name.c_str(),
                s.mean_s() * 1e3, s.min_s * 1e3, s.max_s * 1e3);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tvbf;
  bool quick = false;
  std::int64_t pipeline_frames = 16;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) {
      print_usage(argv[0]);
      return 0;
    }
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--frames") == 0 && i + 1 < argc) {
      pipeline_frames = std::atoll(argv[++i]);
      if (pipeline_frames < 1) {
        std::fprintf(stderr, "%s: --frames needs a positive count\n", argv[0]);
        return 1;
      }
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0], argv[i]);
      print_usage(argv[0]);
      return 1;
    }
  }

  const us::Probe probe = quick ? us::Probe::test_probe(32)
                                : us::Probe::l11_5v();
  const us::ImagingGrid grid =
      quick ? us::ImagingGrid::reduced(probe, 192, 64)
            : us::ImagingGrid::paper(probe);
  std::printf("scene: %lld channels, %lld x %lld grid (%s)\n",
              static_cast<long long>(probe.num_elements),
              static_cast<long long>(grid.nz),
              static_cast<long long>(grid.nx),
              quick ? "reduced" : "paper scale");

  // One acquisition, replayed as the frame stream. Sparse speckle keeps the
  // one-time simulation cheap; the ToF/beamform cost is phantom independent.
  Rng rng(7);
  us::Region region{grid.x0, grid.x_end(), grid.z0, grid.z_end()};
  us::SpeckleOptions speckle;
  speckle.density_per_mm2 = 0.5;
  const us::Phantom phantom = us::make_contrast_phantom(
      rng, {0.35 * grid.z_end(), 0.7 * grid.z_end()}, 2.5e-3, region, speckle);
  us::SimParams sim = us::SimParams::in_silico();
  sim.max_depth = grid.z_end() + 3e-3;
  Timer t;
  const us::Acquisition acq = us::simulate_plane_wave(probe, phantom, 0.0, sim);
  std::printf("simulated %lld samples x %lld channels in %.2f s\n\n",
              static_cast<long long>(acq.num_samples()),
              static_cast<long long>(acq.num_channels()), t.seconds());

  // ---- part 1: ToF stage, per-frame geometry vs cached plan ---------------
  us::PlanCache::instance().clear();
  const std::int64_t n_base = quick ? 10 : 5;
  const std::int64_t n_cached = quick ? 50 : 25;

  us::TofCube scratch = us::tof_correct(acq, grid, {});  // warm-up
  t.reset();
  for (std::int64_t i = 0; i < n_base; ++i)
    scratch = us::tof_correct(acq, grid, {});
  const double per_frame_s = t.seconds() / static_cast<double>(n_base);

  // The geometry pass alone: one cold plan build, outside the cache.
  std::size_t plan_bytes = us::TofPlan::build_for(acq, grid).bytes();
  t.reset();
  for (std::int64_t i = 0; i < n_base; ++i)
    plan_bytes = us::TofPlan::build_for(acq, grid).bytes();
  const double build_s = t.seconds() / static_cast<double>(n_base);

  const auto plan = us::PlanCache::instance().get_for(acq, grid);
  us::ChannelWorkspace workspace;
  us::TofCube cached_cube;
  plan->apply(acq, false, cached_cube, &workspace);  // warm-up + buffers
  t.reset();
  for (std::int64_t i = 0; i < n_cached; ++i)
    plan->apply(acq, false, cached_cube, &workspace);
  const double cached_s = t.seconds() / static_cast<double>(n_cached);

  const float tof_diff = max_abs_diff(scratch.real, cached_cube.real);
  std::printf("ToF stage (per frame):\n");
  std::printf("  per-frame tof_correct  %8.2f ms  (%6.1f frames/s)\n",
              per_frame_s * 1e3, 1.0 / per_frame_s);
  std::printf("  cached TofPlan::apply  %8.2f ms  (%6.1f frames/s)\n",
              cached_s * 1e3, 1.0 / cached_s);
  std::printf("  cold TofPlan::build_for %7.2f ms  (%.2f MB plan)\n",
              build_s * 1e3, static_cast<double>(plan_bytes) / 1e6);
  std::printf("  speedup %.2fx, max |diff| %.3g\n\n", per_frame_s / cached_s,
              static_cast<double>(tof_diff));

  // ---- part 2: full streaming pipeline ------------------------------------
  auto das = std::make_shared<bf::DasBeamformer>(probe);
  auto make_source = [&] {
    return std::make_shared<rt::ReplaySource>(
        std::vector<us::Acquisition>{acq}, pipeline_frames);
  };
  rt::PipelineConfig cfg;
  cfg.grid = grid;

  rt::Pipeline streaming(make_source(), das, cfg);
  const auto rep_stream = streaming.run();

  std::printf("full pipeline (%lld frames, source -> ToF -> DAS -> "
              "envelope/log):\n",
              static_cast<long long>(pipeline_frames));
  std::printf("  plan-cached streaming  %6.1f frames/s  (cache: %llu hits, "
              "%llu misses)\n",
              rep_stream.fps(),
              static_cast<unsigned long long>(rep_stream.plan_cache_hits),
              static_cast<unsigned long long>(rep_stream.plan_cache_misses));
  print_stage_table(rep_stream);
  std::printf("\n");

  // ---- part 3: streamed output == one-shot image --------------------------
  Tensor streamed_db;
  rt::Pipeline check(make_source(), das, cfg);
  check.run([&](const rt::FrameOutput& out) { streamed_db = out.db; });
  const Tensor reference_db = dsp::log_compress(
      dsp::envelope_iq(das->beamform(us::tof_correct(acq, grid, {}))), 60.0);
  const float db_diff = max_abs_diff(streamed_db, reference_db);
  const bool match = db_diff <= 1e-4f;
  std::printf("streamed vs one-shot B-mode: max |diff| %.3g dB -> %s\n",
              static_cast<double>(db_diff), match ? "MATCH" : "MISMATCH");

  benchx::BenchJson json;
  json.add("tof_stage", "per_frame_ms", per_frame_s * 1e3, "ms");
  json.add("tof_stage", "cached_plan_ms", cached_s * 1e3, "ms");
  json.add("tof_stage", "speedup", per_frame_s / cached_s, "x");
  json.add("tof_stage", "plan_build_ms", build_s * 1e3, "ms");
  json.add("pipeline", "streaming_fps", rep_stream.fps(), "fps");
  json.add("parity", "streamed_vs_oneshot_max_diff",
           static_cast<double>(db_diff), "dB");
  json.write("BENCH_pipeline.json");

  const bool tof_fast_enough = per_frame_s / cached_s >= 2.0;
  if (!tof_fast_enough)
    std::printf("WARNING: plan-cached ToF speedup below 2x\n");
  return match && tof_fast_enough ? 0 : 1;
}
