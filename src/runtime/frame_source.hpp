// Frame sources feeding the streaming pipeline.
//
// A FrameSource produces a sequence of plane-wave acquisitions that share
// one probe and transmit geometry, which is exactly the precondition for
// reusing a single cached ToF plan across the whole stream. Two concrete
// sources cover the common scenarios: ReplaySource cycles pre-acquired RF
// (scanner playback / benchmark input), CineSource re-simulates a phantom
// advected by a simple motion model every frame (moving-target B-mode).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "us/phantom.hpp"
#include "us/simulator.hpp"

namespace tvbf::rt {

/// One unit of work flowing through the pipeline. A frame normally holds a
/// single plane-wave acquisition; for coherent compounding it carries one
/// steered transmit per angle (`acq` plus `extra`), which the frame
/// processor ToF-corrects angle by angle and folds into one cube.
struct Frame {
  std::int64_t index = 0;  ///< 0-based position in the stream
  double time_s = 0.0;     ///< acquisition timestamp within the cine
  /// Lineage id minted by the source (telemetry::next_flow_id); every
  /// trace span recorded while this frame is processed carries it, so the
  /// exported trace chains the frame's stages across threads. 0 = untraced.
  std::uint64_t trace_id = 0;
  us::Acquisition acq;     ///< first (or only) steered transmit
  /// Additional steered transmits of the same event (compounding).
  std::vector<us::Acquisition> extra;

  std::size_t num_acquisitions() const { return 1 + extra.size(); }
  const us::Acquisition& acquisition(std::size_t i) const {
    return i == 0 ? acq : extra[i - 1];
  }
};

/// Produces a finite stream of acquisitions sharing one probe.
class FrameSource {
 public:
  virtual ~FrameSource() = default;

  virtual std::string name() const = 0;

  /// Probe shared by every frame of the stream.
  virtual const us::Probe& probe() const = 0;

  /// Total frames the stream will produce.
  virtual std::int64_t num_frames() const = 0;

  /// Fills `frame` with the next acquisition; false once exhausted.
  virtual bool next(Frame& frame) = 0;

  /// Rewinds the stream to the first frame.
  virtual void reset() = 0;
};

/// Replays pre-acquired acquisitions round-robin until `total_frames` have
/// been produced (defaults to one pass over the recording). With
/// `angles_per_frame > 1` consecutive acquisitions are grouped into one
/// multi-angle frame (recording order: all angles of event 0, then event 1,
/// ...), so a compounded recording replays as compounded frames.
class ReplaySource : public FrameSource {
 public:
  explicit ReplaySource(std::vector<us::Acquisition> acquisitions,
                        std::int64_t total_frames = -1,
                        double frame_rate_hz = 30.0,
                        std::size_t angles_per_frame = 1);

  std::string name() const override { return "replay"; }
  const us::Probe& probe() const override;
  std::int64_t num_frames() const override { return total_frames_; }
  bool next(Frame& frame) override;
  void reset() override { produced_ = 0; }

 private:
  std::vector<us::Acquisition> acquisitions_;
  std::int64_t total_frames_ = 0;
  double frame_interval_s_ = 0.0;
  std::size_t angles_per_frame_ = 1;
  std::int64_t produced_ = 0;
};

/// Motion/acquisition controls for a cine sequence.
struct CineParams {
  std::int64_t num_frames = 32;
  double frame_rate_hz = 30.0;       ///< cine timestamp spacing
  /// Constant lateral drift of every scatterer [m/s]; scatterers wrap
  /// around the phantom region so the sequence can loop indefinitely.
  double lateral_speed_m_s = 2e-3;
  /// Axial oscillation amplitude [m] (breathing/pulsation-like motion).
  double axial_amplitude_m = 0.5e-3;
  double axial_period_s = 1.0;       ///< oscillation period
  double steering_angle_rad = 0.0;
  /// When non-empty, every frame carries one steered transmit per listed
  /// angle (coherent-compounding input; `steering_angle_rad` is ignored).
  /// Noise is additionally decorrelated across the angles of one frame,
  /// matching bf::compound_plane_waves' independent receive events.
  std::vector<double> compound_angles_rad;
  us::SimParams sim = us::SimParams::in_silico();
  /// Decorrelate thermal noise across frames (a real receive chain does);
  /// switch off for bit-reproducible frame pairs.
  bool reseed_noise_per_frame = true;
};

/// Re-simulates a phantom under rigid lateral drift + axial oscillation.
/// Deterministic: frame k is a pure function of (base phantom, params, k).
class CineSource : public FrameSource {
 public:
  CineSource(us::Probe probe, us::Phantom base, CineParams params);

  std::string name() const override { return "cine"; }
  const us::Probe& probe() const override { return probe_; }
  std::int64_t num_frames() const override { return params_.num_frames; }
  bool next(Frame& frame) override;
  void reset() override { produced_ = 0; }

  /// The phantom advected to cine time `t` (exposed so demos can place
  /// metric ROIs on the moved cysts).
  us::Phantom phantom_at(double time_s) const;

 private:
  us::Probe probe_;
  us::Phantom base_;
  CineParams params_;
  std::int64_t produced_ = 0;
};

}  // namespace tvbf::rt
