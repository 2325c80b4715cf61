#include "us/plan_cache.hpp"

#include <cmath>
#include <condition_variable>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "telemetry/telemetry.hpp"

namespace tvbf::us {

namespace {
constexpr std::size_t kDefaultCapacityBytes = 768ull << 20;

// Process-wide mirrors of the cache's own Stats: the telemetry registry is
// how a running Server (or its sampler thread) watches these without a
// PlanCache handle. Monotonic — unlike Impl's fields, clear() never zeroes
// them.
struct CacheInstruments {
  telemetry::Counter& hits =
      telemetry::Registry::instance().counter("plan_cache.hits");
  telemetry::Counter& misses =
      telemetry::Registry::instance().counter("plan_cache.misses");
  telemetry::Counter& evictions =
      telemetry::Registry::instance().counter("plan_cache.evictions");
  telemetry::Counter& duplicate_builds =
      telemetry::Registry::instance().counter("plan_cache.duplicate_builds");
};

CacheInstruments& cache_instruments() {
  static CacheInstruments instruments;
  return instruments;
}

struct KeyHasher {
  std::size_t operator()(const TofPlanKey& k) const { return hash_key(k); }
};

/// Single-flight latch for one in-progress plan build. The builder fills
/// plan/error and flips done; joiners wait on the latch's own mutex so a
/// slow build never blocks the cache lock.
struct InFlight {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::shared_ptr<const TofPlan> plan;
  std::exception_ptr error;
};
}  // namespace

struct PlanCache::Impl {
  using Entry = std::pair<TofPlanKey, std::shared_ptr<const TofPlan>>;

  mutable std::mutex mu;
  std::size_t capacity = kDefaultCapacityBytes;
  std::size_t bytes = 0;
  std::uint64_t hits = 0, misses = 0, evictions = 0;
  std::uint64_t duplicate_builds = 0;
  std::list<Entry> lru;  // front = most recently used
  std::unordered_map<TofPlanKey, std::list<Entry>::iterator, KeyHasher> map;
  /// Builds in flight, keyed like the cache itself.
  std::unordered_map<TofPlanKey, std::shared_ptr<InFlight>, KeyHasher>
      building;

  // Evicts from the back until the budget is met. Caller holds mu.
  void evict_to_fit() {
    while (bytes > capacity && !lru.empty()) {
      const Entry& victim = lru.back();
      bytes -= victim.second->bytes();
      map.erase(victim.first);
      lru.pop_back();
      ++evictions;
      cache_instruments().evictions.add();
    }
  }
};

PlanCache::PlanCache() : impl_(std::make_unique<Impl>()) {}
PlanCache::~PlanCache() = default;

PlanCache& PlanCache::instance() {
  static PlanCache cache;
  return cache;
}

std::shared_ptr<const TofPlan> PlanCache::get(const us::Probe& probe,
                                              const us::ImagingGrid& grid,
                                              double steering_angle_rad,
                                              double t0,
                                              std::int64_t n_samples,
                                              dsp::Interp interp) {
  TofPlanKey key;
  key.num_elements = probe.num_elements;
  key.pitch = probe.pitch;
  key.sampling_frequency = probe.sampling_frequency;
  key.sound_speed = probe.sound_speed;
  key.steering_angle_rad = steering_angle_rad;
  key.t0 = t0;
  key.n_samples = n_samples;
  key.grid = grid;
  key.interp = interp;
  // A NaN key equals no key, itself included: every lookup would miss,
  // build a fresh plan and leave its in-flight latch behind for good.
  key.require_finite();

  std::shared_ptr<InFlight> flight;
  bool builder = false;
  {
    const std::lock_guard<std::mutex> lock(impl_->mu);
    if (const auto it = impl_->map.find(key); it != impl_->map.end()) {
      ++impl_->hits;
      cache_instruments().hits.add();
      impl_->lru.splice(impl_->lru.begin(), impl_->lru, it->second);
      return it->second->second;
    }
    ++impl_->misses;
    cache_instruments().misses.add();
    if (const auto it = impl_->building.find(key);
        it != impl_->building.end()) {
      ++impl_->duplicate_builds;  // coalesced onto the in-flight build
      cache_instruments().duplicate_builds.add();
      flight = it->second;
    } else {
      // The latch is constructed before it enters the map: if either
      // allocation throws, nothing is inserted and a later get() simply
      // retries the build (a null latch in the map would poison the key).
      flight = std::make_shared<InFlight>();
      impl_->building.emplace(key, flight);
      builder = true;
    }
  }

  if (!builder) {
    // Single-flight: join the build already running for this key instead of
    // duplicating the expensive geometry pass.
    std::unique_lock<std::mutex> wait_lock(flight->mu);
    flight->cv.wait(wait_lock, [&] { return flight->done; });
    if (flight->error) std::rethrow_exception(flight->error);
    return flight->plan;
  }

  // Built outside the cache lock so a slow paper-scale geometry pass never
  // stalls O(1) hits on other keys.
  std::shared_ptr<const TofPlan> plan;
  try {
    plan = std::make_shared<const TofPlan>(TofPlan::build(
        probe, grid, steering_angle_rad, t0, n_samples, interp));
  } catch (...) {
    {
      const std::lock_guard<std::mutex> lock(impl_->mu);
      if (const auto it = impl_->building.find(key);
          it != impl_->building.end() && it->second == flight)
        impl_->building.erase(it);
    }
    {
      const std::lock_guard<std::mutex> done_lock(flight->mu);
      flight->error = std::current_exception();
      flight->done = true;
    }
    flight->cv.notify_all();
    throw;
  }
  {
    const std::lock_guard<std::mutex> lock(impl_->mu);
    // Erase only our own latch: clear() may have dropped it and a later
    // get() may have started a fresh build under the same key.
    if (const auto it = impl_->building.find(key);
        it != impl_->building.end() && it->second == flight)
      impl_->building.erase(it);
    if (const std::size_t plan_bytes = plan->bytes();
        plan_bytes <= impl_->capacity &&
        impl_->map.find(key) == impl_->map.end()) {
      impl_->lru.emplace_front(key, plan);
      impl_->map.emplace(key, impl_->lru.begin());
      impl_->bytes += plan_bytes;
      impl_->evict_to_fit();
    }
  }
  {
    const std::lock_guard<std::mutex> done_lock(flight->mu);
    flight->plan = plan;
    flight->done = true;
  }
  flight->cv.notify_all();
  return plan;
}

std::shared_ptr<const TofPlan> PlanCache::get_for(const us::Acquisition& acq,
                                                  const us::ImagingGrid& grid,
                                                  dsp::Interp interp) {
  TVBF_REQUIRE(acq.rf.rank() == 2 && acq.num_samples() > 1,
               "acquisition holds no RF data");
  TVBF_REQUIRE(acq.num_channels() == acq.probe.num_elements,
               "RF channel count does not match the probe");
  return get(acq.probe, grid, acq.steering_angle_rad, acq.t0,
             acq.num_samples(), interp);
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  Stats s;
  s.hits = impl_->hits;
  s.misses = impl_->misses;
  s.evictions = impl_->evictions;
  s.duplicate_builds = impl_->duplicate_builds;
  s.bytes = impl_->bytes;
  s.entries = impl_->lru.size();
  s.capacity_bytes = impl_->capacity;
  return s;
}

void PlanCache::set_capacity(std::size_t bytes) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->capacity = bytes;
  impl_->evict_to_fit();
}

void PlanCache::clear() {
  // In-flight builds are left to finish: their latches were handed out to
  // waiters already. Each builder erases only its own latch, so a build
  // racing a clear() completes normally (it just may not be retained).
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->lru.clear();
  impl_->map.clear();
  impl_->bytes = 0;
  impl_->hits = impl_->misses = impl_->evictions = 0;
  impl_->duplicate_builds = 0;
}

}  // namespace tvbf::us
