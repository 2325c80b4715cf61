// Real-time B-mode demo: stream a moving-phantom cine loop through the
// runtime pipeline (cached ToF plan -> DAS -> envelope/log-compression)
// and write one PGM per frame — flip through them for a B-mode movie of
// cysts drifting laterally while the tissue breathes axially.
//
//   ./realtime_demo [--frames N] [--angles N] [--out DIR] [--full]
//                   [--backend cpu|accel] [--metrics]
//
// The per-stage latency report at the end is the runtime's answer to the
// paper's real-time question: after the first frame builds the ToF plan,
// every later frame pays only sampling + beamforming. PGMs go through a
// serve::AsyncSink writer thread, so the sink stage only pays the frame
// copy.
// --metrics prints the process telemetry table at exit and writes
// telemetry.json plus a Chrome trace.json into the output directory.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "beamform/compounding.hpp"
#include "beamform/das.hpp"
#include "common/rng.hpp"
#include "accel/accel_device.hpp"
#include "io/writers.hpp"
#include "runtime/pipeline.hpp"
#include "serve/async_sink.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"
#include "us/phantom.hpp"

namespace {

void print_usage(const char* argv0) {
  std::printf(
      "usage: %s [--frames N] [--angles N] [--out DIR] [--full]\n"
      "       [--backend cpu|accel] [--metrics] [--help]\n"
      "  --frames N    cine frames to stream (default 24)\n"
      "  --angles N    steered plane waves compounded per frame (default 1;\n"
      "                N > 1 runs coherent plane-wave compounding)\n"
      "  --out DIR     output directory for frame PGMs (default\n"
      "                realtime_out)\n"
      "  --full        paper-scale frame (128 channels, 368 x 128 grid)\n"
      "                instead of the reduced demo scale\n"
      "  --backend B   device backend: cpu (reference) or accel (FPGA cycle\n"
      "                model; identical pixels, modeled latency estimates)\n"
      "  --metrics     print the telemetry table at exit and write\n"
      "                telemetry.json + Chrome trace.json into the output\n"
      "                directory\n"
      "  --help        show this message\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tvbf;
  std::int64_t frames = 24;
  std::int64_t angles = 1;
  std::string out_dir = "realtime_out";
  bool full = false;
  bool metrics = false;
  std::string backend = "cpu";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) {
      print_usage(argv[0]);
      return 0;
    }
    if (std::strcmp(argv[i], "--frames") == 0 && i + 1 < argc) {
      frames = std::atoll(argv[++i]);
      if (frames < 1) {
        std::fprintf(stderr, "%s: --frames needs a positive count\n", argv[0]);
        return 1;
      }
    } else if (std::strcmp(argv[i], "--angles") == 0 && i + 1 < argc) {
      angles = std::atoll(argv[++i]);
      if (angles < 1) {
        std::fprintf(stderr, "%s: --angles needs a positive count\n", argv[0]);
        return 1;
      }
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--full") == 0) {
      full = true;
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      metrics = true;
    } else if (std::strcmp(argv[i], "--backend") == 0 && i + 1 < argc) {
      backend = argv[++i];
      if (backend != "cpu" && backend != "accel") {
        std::fprintf(stderr, "%s: --backend must be 'cpu' or 'accel'\n",
                     argv[0]);
        return 1;
      }
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0], argv[i]);
      print_usage(argv[0]);
      return 1;
    }
  }
  io::ensure_directory(out_dir);

  // Scene: contrast cysts in speckle, drifting laterally at 3 mm/s with a
  // breathing-like 0.5 mm axial oscillation, imaged at 20 fps cine time.
  const us::Probe probe =
      full ? us::Probe::l11_5v() : us::Probe::test_probe(32);
  const us::ImagingGrid grid =
      full ? us::ImagingGrid::paper(probe)
           : us::ImagingGrid::reduced(probe, 192, 64, 8e-3, 42e-3);
  Rng rng(42);
  us::Region region{grid.x0, grid.x_end(), grid.z0, grid.z_end()};
  us::SpeckleOptions speckle;
  speckle.density_per_mm2 = full ? 0.5 : 1.0;
  const us::Phantom phantom = us::make_contrast_phantom(
      rng, {0.35 * grid.z_end(), 0.7 * grid.z_end()}, 2.5e-3, region, speckle);

  rt::CineParams cine;
  cine.num_frames = frames;
  cine.frame_rate_hz = 20.0;
  cine.lateral_speed_m_s = 3e-3;
  cine.axial_amplitude_m = 0.5e-3;
  cine.axial_period_s = 1.0;
  cine.sim.max_depth = grid.z_end() + 3e-3;
  if (angles > 1) {
    bf::CompoundingParams compounding;
    compounding.num_angles = angles;
    cine.compound_angles_rad = compounding.angles();
  }
  auto source = std::make_shared<rt::CineSource>(probe, phantom, cine);

  rt::PipelineConfig cfg;
  cfg.grid = grid;
  if (backend == "accel")
    cfg.device = std::make_shared<accel::AccelDevice>();
  rt::Pipeline pipeline(source, std::make_shared<bf::DasBeamformer>(probe),
                        cfg);

  std::printf("streaming %lld cine frames (%lld channels, %lld x %lld "
              "grid, %lld angle%s/frame, %s backend)...\n",
              static_cast<long long>(frames),
              static_cast<long long>(probe.num_elements),
              static_cast<long long>(grid.nz),
              static_cast<long long>(grid.nx), static_cast<long long>(angles),
              angles == 1 ? "" : "s", backend.c_str());
  const auto write_frame = [&](std::int64_t index, const Tensor& db) {
    char name[64];
    std::snprintf(name, sizeof(name), "/frame_%03lld.pgm",
                  static_cast<long long>(index));
    io::write_pgm_db(out_dir + name, db, 60.0);
  };

  if (metrics) {
    // Scope the capture to the streaming run: fresh instruments, armed
    // trace.
    telemetry::Registry::instance().reset();
    telemetry::trace_start();
  }
  // Double-buffered writer thread: the pipeline's sink stage pays only the
  // frame copy; disk I/O overlaps the next frame's compute.
  serve::AsyncSink sink(
      [&](const serve::SinkFrame& f) { write_frame(f.index, f.db); });
  const rt::PipelineReport report = pipeline.run(sink.sink());
  sink.close();
  const serve::AsyncSink::Stats sink_stats = sink.stats();
  if (metrics) telemetry::trace_stop();

  std::printf("\n%lld frames in %.2f s -> %.1f frames/s\n",
              static_cast<long long>(report.frames), report.wall_s,
              report.fps());
  std::printf("plan cache: %llu hits, %llu misses\n",
              static_cast<unsigned long long>(report.plan_cache_hits),
              static_cast<unsigned long long>(report.plan_cache_misses));
  std::printf("%-12s %9s %9s %9s\n", "stage", "mean ms", "min ms", "max ms");
  for (const auto& s : report.stages) {
    if (s.frames == 0) continue;
    std::printf("%-12s %9.2f %9.2f %9.2f\n", s.name.c_str(), s.mean_s() * 1e3,
                s.min_s * 1e3, s.max_s * 1e3);
  }
  if (sink_stats.written > 0) {
    std::printf("async writer: %lld frames, %.2f ms/write off the frame "
                "clock (%.2f ms blocked total)\n",
                static_cast<long long>(sink_stats.written),
                sink_stats.write_s / static_cast<double>(sink_stats.written) *
                    1e3,
                sink_stats.blocked_s * 1e3);
  }
  std::printf("\nwrote %s/frame_000.pgm ... frame_%03lld.pgm\n",
              out_dir.c_str(), static_cast<long long>(report.frames - 1));

  if (metrics) {
    const telemetry::Snapshot snap = telemetry::Registry::instance().snapshot();
    std::printf("\n%s", telemetry::render_table(snap).c_str());
    io::write_text(out_dir + "/telemetry.json", telemetry::to_json(snap));
    io::write_text(out_dir + "/trace.json", telemetry::trace_export_json());
    std::printf("wrote %s/telemetry.json and %s/trace.json",
                out_dir.c_str(), out_dir.c_str());
    if (const std::int64_t lost = telemetry::trace_dropped(); lost > 0)
      std::printf(" (%lld spans dropped)", static_cast<long long>(lost));
    std::printf("\n");
  }
  return 0;
}
