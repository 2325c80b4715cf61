// Common beamformer interface.
//
// Every image-formation method in the paper (DAS, MVDR, and the learned
// models via an adapter in src/models) maps a ToF-corrected cube to an
// IQ image of shape (nz, nx, 2). Envelope/log-compression happens downstream
// in src/metrics, identically for all methods, so comparisons are fair.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "device/command.hpp"
#include "tensor/tensor.hpp"
#include "us/tof.hpp"

namespace tvbf::us {
class TofPlan;
}  // namespace tvbf::us

namespace tvbf::bf {

/// Abstract image-formation method over ToF-corrected channel data.
class Beamformer {
 public:
  virtual ~Beamformer() = default;

  /// Human-readable method name ("DAS", "MVDR", ...).
  virtual std::string name() const = 0;

  /// Forms the IQ image, shape (nz, nx, 2). Implementations document which
  /// cube flavor (RF-only or analytic) they require.
  virtual Tensor beamform(const us::TofCube& cube) const = 0;

  /// Forms the IQ image of `acq` through `plan` without its ToF cube, where
  /// the method can: the image equals beamform(plan.apply(acq, false)) bit
  /// for bit. Returns nullopt to decline; the caller then applies the plan
  /// and calls beamform(). The default declines.
  virtual std::optional<Tensor> beamform_through(
      const us::TofPlan& plan, const us::Acquisition& acq) const {
    (void)plan;
    (void)acq;
    return std::nullopt;
  }
};

/// A batch entry point nothing in src/ calls. It stays only because
/// perf/'s TracedBatched decorator and its self-test name it, and goes once
/// the benchmark drops TracedBatched (ROADMAP direction 1).
class BatchedBeamformer : public Beamformer {
 public:
  /// beamform() once per cube, in order. Stays only for perf/'s
  /// TracedBatched; goes with it (ROADMAP direction 1).
  virtual std::vector<Tensor> beamform_batch(
      const std::vector<const us::TofCube*>& cubes) const {
    std::vector<Tensor> iqs;
    iqs.reserve(cubes.size());
    for (const us::TofCube* cube : cubes) iqs.push_back(beamform(*cube));
    return iqs;
  }

  /// Declines (returns false) without encoding anything. Stays only for
  /// perf/'s TracedBatched; goes with it (ROADMAP direction 1).
  virtual bool encode_cost_probe(device::CommandEncoder& encoder,
                                 std::int64_t nz_total) const {
    (void)encoder;
    (void)nz_total;
    return false;
  }
};

}  // namespace tvbf::bf
