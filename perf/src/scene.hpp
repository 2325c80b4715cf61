// Workload definitions and everything a run generates from its seed before
// timing starts: acquisitions, model weights and reference B-mode images.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "beamform/beamformer.hpp"
#include "models/tiny_vbf.hpp"
#include "quant/scheme.hpp"
#include "runtime/pipeline.hpp"
#include "us/simulator.hpp"

namespace perf {

/// The image-formation method a workload streams.
enum class Family { kDas, kTinyVbf, kQuantTinyVbf };

struct WorkloadSpec {
  const char* name;
  /// L11-5v, 128 channels, 368 x 128 grid, TinyVbfConfig::paper(); else
  /// 32 channels, 96 x 64 grid, TinyVbfConfig::test(32, 64).
  bool paper_scale;
  Family family;
  /// 1: a solo rt::Pipeline; more: serve::Server sessions sharing one
  /// beamformer.
  int sessions;
  /// 0: closed loop. Otherwise every session's frames fall due together
  /// at this rate (open loop).
  double rate_hz;
};

/// vbf_scan, quant_fleet.
const std::vector<WorkloadSpec>& workloads();
/// Null for an unknown name.
const WorkloadSpec* find_workload(const std::string& name);

/// Distinct acquisitions per run; each session replays them in turn.
inline constexpr int kAcquisitions = 4;

struct Scene {
  tvbf::us::Probe probe;
  tvbf::us::ImagingGrid grid;
  std::vector<tvbf::us::Acquisition> acquisitions;
  /// Float Tiny-VBF with weights drawn from the seed (untrained: the cost
  /// of a forward pass does not depend on the weights' values).
  std::shared_ptr<const tvbf::models::TinyVbf> model;
};

/// Phantoms, noise and weights all come from `seed`.
Scene make_scene(const WorkloadSpec& spec, std::uint64_t seed);

/// A fresh beamformer of `family` over the scene (Hybrid-2 for the
/// quantized family: building it quantizes the weights).
std::shared_ptr<const tvbf::bf::Beamformer> make_beamformer(Family family,
                                                            const Scene& scene);

/// The scene's float model quantized under `scheme`.
std::shared_ptr<const tvbf::bf::Beamformer> make_quantized(
    const Scene& scene, const tvbf::quant::QuantScheme& scheme);

/// Stream settings shared by every workload (library defaults on the
/// scene's grid).
tvbf::rt::PipelineConfig pipeline_config(const Scene& scene);

/// The B-mode image of each acquisition under `beamformer`, computed once
/// before timing. A single-session workload uses the one-shot path
/// (us::tof_correct -> beamform -> envelope_iq -> log_compress); a served
/// workload uses a solo rt::Pipeline::run of the acquisitions.
std::vector<tvbf::Tensor> reference_bmodes(
    const WorkloadSpec& spec, const Scene& scene,
    std::shared_ptr<const tvbf::bf::Beamformer> beamformer);

/// Bit-for-bit equality of shape and data.
bool same_bits(const tvbf::Tensor& a, const tvbf::Tensor& b);

}  // namespace perf
