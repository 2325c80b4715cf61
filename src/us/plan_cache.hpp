// Process-wide LRU cache of ToF plans.
//
// Plans are pure functions of their key, so one global cache serves every
// consumer: the streaming pipeline (one plan per cine sequence), coherent
// compounding (one plan per steering angle, reused across frames) and
// training-set generation (one plan for the whole corpus, applied to both
// the RF and the analytic cube of every frame). Entries are evicted
// least-recently-used by byte footprint; handed-out shared_ptrs keep
// evicted plans alive for callers still holding them.
#pragma once

#include <cstdint>
#include <memory>

#include "us/tof_plan.hpp"

namespace tvbf::us {

/// Global ToF-plan cache. All methods are thread-safe; a miss builds the
/// plan outside the cache lock (hits on other keys are never stalled by a
/// build). Builds are single-flight per key: concurrent misses on one key
/// coalesce onto the first caller's build instead of duplicating the
/// expensive geometry pass — the joiners block until the build completes
/// and are counted in Stats::duplicate_builds.
class PlanCache {
 public:
  /// The process-wide instance.
  static PlanCache& instance();

  /// Cache usage counters (cumulative since construction or clear()).
  struct Stats {
    std::uint64_t hits = 0;
    /// get() calls that could not be served from the resident cache
    /// (includes calls that joined another thread's in-flight build).
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    /// Misses that found an in-flight build for their key and waited for
    /// it instead of building again — each one is a duplicated geometry
    /// pass the single-flight latch avoided.
    std::uint64_t duplicate_builds = 0;
    std::size_t bytes = 0;          ///< current resident plan bytes
    std::size_t entries = 0;        ///< current resident plan count
    std::size_t capacity_bytes = 0;
  };

  /// Returns the cached plan for the key, building it on a miss. Plans
  /// larger than the whole capacity are built and returned but not
  /// retained. Non-finite geometry (probe pitch, sampling frequency or
  /// sound speed, angle, t0, grid origin or spacing) throws
  /// InvalidArgument before the cache is consulted.
  std::shared_ptr<const TofPlan> get(const us::Probe& probe,
                                     const us::ImagingGrid& grid,
                                     double steering_angle_rad, double t0,
                                     std::int64_t n_samples,
                                     dsp::Interp interp = dsp::Interp::kLinear);

  /// Convenience overload deriving the key from an acquisition.
  std::shared_ptr<const TofPlan> get_for(
      const us::Acquisition& acq, const us::ImagingGrid& grid,
      dsp::Interp interp = dsp::Interp::kLinear);

  Stats stats() const;

  /// Sets the byte budget (evicting immediately if over it). The default
  /// of 768 MiB fits a paper-scale 11-angle compounding working set.
  void set_capacity(std::size_t bytes);

  /// Drops every entry and resets the counters.
  void clear();

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

 private:
  PlanCache();
  ~PlanCache();

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace tvbf::us
