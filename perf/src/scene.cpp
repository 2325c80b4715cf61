#include "scene.hpp"

#include <cstring>
#include <stdexcept>

#include "beamform/das.hpp"
#include "dsp/hilbert.hpp"
#include "models/neural_beamformer.hpp"
#include "quant/quantized_tiny_vbf.hpp"
#include "us/phantom.hpp"
#include "us/tof.hpp"

namespace perf {

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = {
      {"vbf_scan", true, Family::kTinyVbf, 1, 0.0},
      // The batch gate runs a tick's frames through one forward batch after
      // another (the CPU cost model caps a batch at one or two frames), so
      // they finish in a staircase well inside the 1 s period. Five sessions
      // keep p50 and p90 inside a step of that staircase rather than on the
      // edge between two.
      {"quant_fleet", false, Family::kQuantTinyVbf, 5, 1.0},
  };
  return all;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads())
    if (name == w.name) return &w;
  return nullptr;
}

Scene make_scene(const WorkloadSpec& spec, std::uint64_t seed) {
  using namespace tvbf;
  Scene scene;
  scene.probe = spec.paper_scale ? us::Probe::l11_5v() : us::Probe::test_probe(32);
  scene.grid = spec.paper_scale ? us::ImagingGrid::paper(scene.probe)
                                : us::ImagingGrid::reduced(scene.probe, 96, 64);
  Rng rng(seed);
  Rng weight_rng = rng.split();
  const models::TinyVbfConfig config =
      spec.paper_scale ? models::TinyVbfConfig::paper()
                       : models::TinyVbfConfig::test(32, 64);
  scene.model = std::make_shared<models::TinyVbf>(config, weight_rng);

  // Contrast phantoms: two anechoic cysts at seed-drawn depths in speckle.
  // The speckle is sparse to keep generation cheap; no stage's cost
  // depends on the echo content.
  const us::ImagingGrid& g = scene.grid;
  const us::Region region{g.x0, g.x_end(), g.z0, g.z_end()};
  constexpr double kCystRadius = 2.5e-3;
  us::SpeckleOptions speckle;
  speckle.density_per_mm2 = 1.0;
  us::SimParams sim = us::SimParams::in_silico();
  sim.max_depth = g.z_end() + 3e-3;
  for (int k = 0; k < kAcquisitions; ++k) {
    const double lo = g.z0 + kCystRadius + 1e-3;
    const double hi = g.z_end() - kCystRadius - 1e-3;
    const std::vector<double> cyst_depths{rng.uniform(lo, hi),
                                          rng.uniform(lo, hi)};
    const us::Phantom phantom = us::make_contrast_phantom(
        rng, cyst_depths, kCystRadius, region, speckle);
    sim.seed = rng.next_u64();
    scene.acquisitions.push_back(
        us::simulate_plane_wave(scene.probe, phantom, 0.0, sim));
  }
  return scene;
}

std::shared_ptr<const tvbf::bf::Beamformer> make_quantized(
    const Scene& scene, const tvbf::quant::QuantScheme& scheme) {
  return std::make_shared<tvbf::quant::QuantizedVbfBeamformer>(
      std::make_shared<tvbf::quant::QuantizedTinyVbf>(*scene.model, scheme));
}

std::shared_ptr<const tvbf::bf::Beamformer> make_beamformer(Family family,
                                                            const Scene& scene) {
  switch (family) {
    case Family::kDas:
      return std::make_shared<tvbf::bf::DasBeamformer>(scene.probe);
    case Family::kTinyVbf:
      return std::make_shared<tvbf::models::TinyVbfBeamformer>(scene.model);
    case Family::kQuantTinyVbf:
      return make_quantized(scene, tvbf::quant::QuantScheme::hybrid2());
  }
  throw std::logic_error("unknown beamformer family");
}

tvbf::rt::PipelineConfig pipeline_config(const Scene& scene) {
  tvbf::rt::PipelineConfig config;
  config.grid = scene.grid;
  return config;
}

std::vector<tvbf::Tensor> reference_bmodes(
    const WorkloadSpec& spec, const Scene& scene,
    std::shared_ptr<const tvbf::bf::Beamformer> beamformer) {
  using namespace tvbf;
  const rt::PipelineConfig config = pipeline_config(scene);
  std::vector<Tensor> refs;
  if (spec.sessions == 1) {
    for (const us::Acquisition& acq : scene.acquisitions)
      refs.push_back(dsp::log_compress(
          dsp::envelope_iq(
              beamformer->beamform(us::tof_correct(acq, scene.grid, config.tof))),
          config.dynamic_range_db));
    return refs;
  }
  rt::Pipeline solo(
      std::make_shared<rt::ReplaySource>(scene.acquisitions), beamformer,
      config);
  solo.run([&](const rt::FrameOutput& out) { refs.push_back(out.db); });
  return refs;
}

bool same_bits(const tvbf::Tensor& a, const tvbf::Tensor& b) {
  return a.shape() == b.shape() &&
         (a.empty() ||
          std::memcmp(a.raw(), b.raw(),
                      static_cast<std::size_t>(a.size()) * sizeof(float)) == 0);
}

}  // namespace perf
