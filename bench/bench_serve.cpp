// Multi-session serving benchmark.
//
// Part 1 runs N concurrent DAS sessions through the Server (workers
// walking each session's frames, per-session frame state, block
// backpressure) against the baseline of running the same N sessions
// sequentially as solo Pipelines on the same pool — the aggregate-
// throughput question a multi-client scanner server has to answer. Part 2
// checks that served per-session output stays bit-identical to a solo
// Pipeline::run of the same source, DAS and Tiny-VBF alike. Part 3
// measures the telemetry layer itself: a mixed DAS + Tiny-VBF session load
// runs with instruments enabled vs disabled (enabled must stay >= 0.97x of
// disabled on >= 4-core hosts), and the enabled run's registry yields
// per-session frame-latency quantiles. Part 4 measures the full ops plane
// the same way: frame-lineage trace capture armed, stall watchdog polling
// and the localhost introspection endpoint bound, vs the part-3 enabled
// lane (>= 0.97x on >= 4-core hosts, bit-identical frames).
//
// Every part's scalar results are also written to
// bench_out/BENCH_serve.json so the perf trajectory is tracked across PRs.
//
//   ./bench_serve [--sessions N] [--frames N] [--full]
//
// Defaults to the reduced scene (32 channels, 192 x 64 grid); --full runs
// the paper-scale frame (128 channels, 368 x 128).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "beamform/das.hpp"
#include "bench_common.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"
#include "models/neural_beamformer.hpp"
#include "models/tiny_vbf.hpp"
#include "runtime/pipeline.hpp"
#include "us/plan_cache.hpp"
#include "serve/server.hpp"
#include "tensor/tensor_ops.hpp"
#include "us/phantom.hpp"
#include "us/tof.hpp"

namespace {

void print_usage(const char* argv0) {
  std::printf(
      "usage: %s [--sessions N] [--frames N] [--full] [--help]\n"
      "  --sessions N  concurrent imaging sessions (default 8)\n"
      "  --frames N    frames per session and part (default 12)\n"
      "  --full        paper-scale frame (128 channels, 368 x 128 grid)\n"
      "                instead of the reduced bench scale\n"
      "  --help        show this message\n",
      argv0);
}

struct SessionFps {
  double min_fps = 0.0;
  double max_fps = 0.0;
};

SessionFps session_spread(const tvbf::serve::ServerReport& report) {
  SessionFps s;
  bool first = true;
  for (const auto& sess : report.sessions) {
    const double fps =
        report.wall_s > 0.0
            ? static_cast<double>(sess.frames) / report.wall_s
            : 0.0;
    if (first || fps < s.min_fps) s.min_fps = fps;
    if (first || fps > s.max_fps) s.max_fps = fps;
    first = false;
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tvbf;
  serve::tune_allocator();  // serving-process malloc tuning (see header)
  int num_sessions = 8;
  std::int64_t frames = 12;
  bool full = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) {
      print_usage(argv[0]);
      return 0;
    }
    if (std::strcmp(argv[i], "--sessions") == 0 && i + 1 < argc) {
      num_sessions = std::atoi(argv[++i]);
      if (num_sessions < 1) {
        std::fprintf(stderr, "%s: --sessions needs a positive count\n",
                     argv[0]);
        return 1;
      }
    } else if (std::strcmp(argv[i], "--frames") == 0 && i + 1 < argc) {
      frames = std::atoll(argv[++i]);
      if (frames < 1) {
        std::fprintf(stderr, "%s: --frames needs a positive count\n", argv[0]);
        return 1;
      }
    } else if (std::strcmp(argv[i], "--full") == 0) {
      full = true;
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0], argv[i]);
      print_usage(argv[0]);
      return 1;
    }
  }

  const us::Probe probe =
      full ? us::Probe::l11_5v() : us::Probe::test_probe(32);
  const us::ImagingGrid grid = full ? us::ImagingGrid::paper(probe)
                                    : us::ImagingGrid::reduced(probe, 192, 64);
  std::printf("scene: %lld channels, %lld x %lld grid (%s); %d sessions x "
              "%lld frames; pool: %zu thread(s)\n",
              static_cast<long long>(probe.num_elements),
              static_cast<long long>(grid.nz),
              static_cast<long long>(grid.nx),
              full ? "paper scale" : "reduced",
              num_sessions, static_cast<long long>(frames),
              hardware_threads());

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

  auto das = std::make_shared<bf::DasBeamformer>(probe);
  auto make_source = [&] {
    return std::make_shared<rt::ReplaySource>(
        std::vector<us::Acquisition>{acq}, frames);
  };
  rt::PipelineConfig cfg;
  cfg.grid = grid;

  // ---- part 1: N concurrent DAS sessions vs the same N run sequentially ----
  us::PlanCache::instance().clear();
  {  // warm the plan cache so both lanes pay zero geometry passes
    const auto plan = us::PlanCache::instance().get_for(acq, grid);
    (void)plan;
  }

  t.reset();
  for (int s = 0; s < num_sessions; ++s) {
    rt::Pipeline pipeline(make_source(), das, cfg);
    pipeline.run();
  }
  const double sequential_s = t.seconds();
  const double sequential_fps =
      static_cast<double>(num_sessions) * static_cast<double>(frames) /
      sequential_s;

  serve::Server server;
  for (int s = 0; s < num_sessions; ++s)
    server.add_session({make_source(), das, cfg, {}});
  const serve::ServerReport das_report = server.run();
  const SessionFps spread = session_spread(das_report);
  const double das_ratio = das_report.aggregate_fps() / sequential_fps;

  std::printf("DAS serving (%d sessions, aggregate frames/s):\n",
              num_sessions);
  std::printf("  sequential pipelines   %8.1f fps  (%.2f s)\n",
              sequential_fps, sequential_s);
  std::printf("  concurrent server      %8.1f fps  (%.2f s)  -> %.2fx\n",
              das_report.aggregate_fps(), das_report.wall_s, das_ratio);
  std::printf("  per-session fps spread %.1f .. %.1f (fairness)\n\n",
              spread.min_fps, spread.max_fps);

  Rng model_rng(11);
  const models::TinyVbfConfig vbf_cfg = models::TinyVbfConfig::test(
      probe.num_elements, grid.nx);
  auto model = std::make_shared<models::TinyVbf>(vbf_cfg, model_rng);
  auto vbf = std::make_shared<models::TinyVbfBeamformer>(model);

  // ---- part 2: served output == solo pipeline output -----------------------
  auto served_frame = [&](std::shared_ptr<const bf::Beamformer> beamformer) {
    serve::Server check;
    Tensor last;
    check.add_session({make_source(), beamformer, cfg,
                       [&](const rt::FrameOutput& out) { last = out.db; }});
    check.run();
    return last;
  };
  auto solo_frame = [&](std::shared_ptr<const bf::Beamformer> beamformer) {
    rt::Pipeline pipeline(make_source(), std::move(beamformer), cfg);
    Tensor last;
    pipeline.run([&](const rt::FrameOutput& out) { last = out.db; });
    return last;
  };
  const Tensor das_solo = solo_frame(das);
  const Tensor vbf_solo = solo_frame(vbf);
  const float das_diff = max_abs_diff(served_frame(das), das_solo);
  const float vbf_diff = max_abs_diff(served_frame(vbf), vbf_solo);
  const bool match = das_diff == 0.0f && vbf_diff == 0.0f;
  std::printf("served vs solo B-mode: DAS max |diff| %.3g dB, Tiny-VBF max "
              "|diff| %.3g dB -> %s\n\n",
              static_cast<double>(das_diff), static_cast<double>(vbf_diff),
              match ? "MATCH" : "MISMATCH");

  // Mixed load for parts 3-4: alternating DAS and Tiny-VBF sessions.
  auto run_mixed = [&](const serve::ServerConfig& scfg) {
    serve::Server mixed(scfg);
    std::vector<Tensor> last(static_cast<std::size_t>(num_sessions));
    for (int s = 0; s < num_sessions; ++s) {
      const std::shared_ptr<const bf::Beamformer> beamformer =
          s % 2 == 0 ? std::shared_ptr<const bf::Beamformer>(das)
                     : std::shared_ptr<const bf::Beamformer>(vbf);
      Tensor& into = last[static_cast<std::size_t>(s)];
      mixed.add_session({make_source(), beamformer, cfg,
                         [&into](const rt::FrameOutput& out) {
                           into = out.db;
                         }});
    }
    const serve::ServerReport report = mixed.run();
    return std::make_pair(report, std::move(last));
  };

  // ---- part 3: telemetry overhead on the mixed load ------------------------
  // The same mixed-session load, instruments enabled (the default) vs
  // disabled (relaxed load + branch per record site). The registry is reset
  // before the enabled lane so its histograms hold exactly that run.
  telemetry::Registry::instance().reset();
  const auto [tel_on_report, tel_on_frames] = run_mixed({});
  const telemetry::Snapshot tel_snap =
      telemetry::Registry::instance().snapshot();
  telemetry::set_enabled(false);
  const auto [tel_off_report, tel_off_frames] = run_mixed({});
  telemetry::set_enabled(true);
  float tel_diff = 0.0f;
  for (std::size_t s = 0; s < tel_on_frames.size(); ++s) {
    const float d = max_abs_diff(tel_on_frames[s], tel_off_frames[s]);
    if (d > tel_diff) tel_diff = d;
  }
  const double telemetry_ratio =
      tel_off_report.aggregate_fps() > 0.0
          ? tel_on_report.aggregate_fps() / tel_off_report.aggregate_fps()
          : 0.0;
  std::printf("telemetry overhead on the mixed load (aggregate frames/s):\n");
  std::printf("  instruments disabled   %8.1f fps  (%.2f s)\n",
              tel_off_report.aggregate_fps(), tel_off_report.wall_s);
  std::printf("  instruments enabled    %8.1f fps  (%.2f s)  -> %.3fx\n",
              tel_on_report.aggregate_fps(), tel_on_report.wall_s,
              telemetry_ratio);
  std::printf("  per-session frame latency (dispatch -> delivery, ms):\n");
  for (int s = 0; s < num_sessions; ++s) {
    const auto* h = tel_snap.histogram("serve.session." + std::to_string(s) +
                                       ".frame_s");
    if (h == nullptr || h->count == 0) continue;
    std::printf("    session %-2d  p50 %8.3f  p99 %8.3f  (%lld frames)\n", s,
                h->p50_s * 1e3, h->p99_s * 1e3,
                static_cast<long long>(h->count));
  }
  std::printf("\n");

  // ---- part 4: ops-plane overhead on the mixed load ------------------------
  // The same mixed load with the full ops plane live: frame-lineage trace
  // capture armed, the stall watchdog polling, and the localhost
  // introspection endpoint bound and scrape-ready. Observability that
  // perturbs the server — in throughput or, worse, in output — is not
  // deployable; the part-3 enabled lane is the baseline (telemetry on,
  // ops plane off).
  serve::ServerConfig ops_cfg;
  ops_cfg.ops_port = 0;            // ephemeral localhost endpoint
  ops_cfg.watchdog_stall_s = 1.0;  // armed; a live run never trips it
  telemetry::trace_start(1 << 16);
  const auto [ops_report, ops_frames] = run_mixed(ops_cfg);
  telemetry::trace_stop();
  float ops_diff = 0.0f;
  for (std::size_t s = 0; s < ops_frames.size(); ++s) {
    const float d = max_abs_diff(ops_frames[s], tel_on_frames[s]);
    if (d > ops_diff) ops_diff = d;
  }
  const double ops_ratio =
      tel_on_report.aggregate_fps() > 0.0
          ? ops_report.aggregate_fps() / tel_on_report.aggregate_fps()
          : 0.0;
  std::printf("ops-plane overhead on the mixed load (aggregate frames/s):\n");
  std::printf("  ops plane off          %8.1f fps  (%.2f s)\n",
              tel_on_report.aggregate_fps(), tel_on_report.wall_s);
  std::printf("  ops plane on           %8.1f fps  (%.2f s)  -> %.3fx\n",
              ops_report.aggregate_fps(), ops_report.wall_s, ops_ratio);
  std::printf("  (trace armed, watchdog polling, endpoint bound; dropped "
              "spans %lld)\n",
              static_cast<long long>(telemetry::trace_dropped()));
  std::printf("  ops max |diff|: %.3g dB -> %s\n\n",
              static_cast<double>(ops_diff),
              ops_diff == 0.0f ? "MATCH" : "MISMATCH");

  // ---- machine-readable results --------------------------------------------
  benchx::BenchJson json;
  json.add("das_serving", "sequential_fps", sequential_fps, "fps");
  json.add("das_serving", "server_fps", das_report.aggregate_fps(), "fps");
  json.add("das_serving", "speedup", das_ratio, "x");
  json.add("served_vs_solo", "das_max_diff", static_cast<double>(das_diff),
           "dB");
  json.add("served_vs_solo", "vbf_max_diff", static_cast<double>(vbf_diff),
           "dB");
  json.add("telemetry", "enabled_fps", tel_on_report.aggregate_fps(), "fps");
  json.add("telemetry", "disabled_fps", tel_off_report.aggregate_fps(),
           "fps");
  json.add("telemetry", "enabled_over_disabled", telemetry_ratio, "x");
  if (const auto* h = tel_snap.histogram("serve.frame_s");
      h != nullptr && h->count > 0) {
    json.add("telemetry", "frame_latency_p50", h->p50_s * 1e3, "ms");
    json.add("telemetry", "frame_latency_p99", h->p99_s * 1e3, "ms");
  }
  json.add("ops_plane", "disabled_fps", tel_on_report.aggregate_fps(), "fps");
  json.add("ops_plane", "enabled_fps", ops_report.aggregate_fps(), "fps");
  json.add("ops_plane", "enabled_over_disabled", ops_ratio, "x");
  json.add("ops_plane", "dropped_spans",
           static_cast<double>(telemetry::trace_dropped()), "spans");
  json.write("BENCH_serve.json");

  // Gates. The concurrency ratio needs real cores; on single-core hosts the
  // server cannot beat sequential and the gate is informational only.
  bool ok = match && tel_diff == 0.0f && ops_diff == 0.0f;
  if (hardware_threads() >= 4) {
    if (das_ratio < 3.0) {
      std::printf("WARNING: concurrent DAS serving below 3x sequential\n");
      ok = false;
    }
  } else {
    std::printf("note: %zu pool thread(s) — concurrency gate skipped "
                "(needs >= 4 cores)\n",
                hardware_threads());
  }
  if (hardware_threads() >= 4) {
    if (telemetry_ratio < 0.97) {
      // The instruments must be cheap enough to stay on in production.
      std::printf("WARNING: telemetry overhead ratio %.3f below 0.97x\n",
                  telemetry_ratio);
      ok = false;
    }
  } else {
    std::printf("note: %zu pool thread(s) — telemetry overhead gate "
                "informational (ratio %.3f; needs >= 4 cores)\n",
                hardware_threads(), telemetry_ratio);
  }
  if (hardware_threads() >= 4) {
    if (ops_ratio < 0.97) {
      // Lineage tracing + watchdog + endpoint must be cheap enough to
      // stay on wherever the server runs.
      std::printf("WARNING: ops-plane overhead ratio %.3f below 0.97x\n",
                  ops_ratio);
      ok = false;
    }
  } else {
    std::printf("note: %zu pool thread(s) — ops-plane overhead gate "
                "informational (ratio %.3f; needs >= 4 cores)\n",
                hardware_threads(), ops_ratio);
  }
  return ok ? 0 : 1;
}
