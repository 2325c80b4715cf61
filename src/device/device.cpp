#include "device/device.hpp"

#include <chrono>
#include <cmath>
#include <string>

#include "device/cpu_device.hpp"
#include "obs/flight_recorder.hpp"
#include "telemetry/telemetry.hpp"

namespace tvbf::device {

namespace {
thread_local Device* t_current = nullptr;

// Per-kind submit instruments, resolved once. Measured and estimated
// nanoseconds accumulate side by side so a snapshot yields the
// measured-vs-model error per command kind (the calibration signal for
// the cycle-model work).
struct SubmitInstruments {
  telemetry::LatencyHistogram* latency[kNumCommandKinds];
  telemetry::Counter* measured_ns[kNumCommandKinds];
  telemetry::Counter* estimated_ns[kNumCommandKinds];

  SubmitInstruments() {
    auto& reg = telemetry::Registry::instance();
    for (std::size_t i = 0; i < kNumCommandKinds; ++i) {
      const std::string base =
          std::string("device.submit.") + command_kind_name(i);
      latency[i] = &reg.histogram(base + "_s");
      measured_ns[i] = &reg.counter(base + ".measured_ns");
      estimated_ns[i] = &reg.counter(base + ".estimated_ns");
    }
  }
};

SubmitInstruments& submit_instruments() {
  static SubmitInstruments instruments;
  return instruments;
}
}  // namespace

const char* command_kind_name(std::size_t kind) {
  // Order mirrors the Command variant (command.hpp).
  static constexpr const char* kNames[kNumCommandKinds] = {
      "gemm",        "batched_gemm",     "gemm_tn",
      "conv2d_fwd",  "conv2d_bwd_bias",  "conv2d_bwd_kernel",
      "conv2d_bwd_input", "das_apply"};
  return kind < kNumCommandKinds ? kNames[kind] : "unknown";
}

void Device::submit(const CommandList& list) {
  if (telemetry::enabled() && !list.empty()) {
    SubmitInstruments& si = submit_instruments();
    const std::size_t kind = list.front().index();
    const double estimated_s = estimate_seconds(list);
    const auto t0 = std::chrono::steady_clock::now();
    execute(list);
    const double measured_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    si.latency[kind]->record(measured_s);
    si.measured_ns[kind]->add(
        static_cast<std::int64_t>(std::llround(measured_s * 1e9)));
    si.estimated_ns[kind]->add(
        static_cast<std::int64_t>(std::llround(estimated_s * 1e9)));
    // A submit far over its cost-model estimate is a calibration outlier
    // worth a post-mortem breadcrumb; the 50 µs floor keeps scheduler
    // noise on micro-submits out of the ring.
    if (measured_s > 2.0 * estimated_s && measured_s > 50e-6) {
      obs::FlightRecorder::instance().record(
          obs::EventKind::kDeviceOverEstimate, -1,
          static_cast<std::int64_t>(std::llround(measured_s * 1e9)),
          static_cast<std::int64_t>(std::llround(estimated_s * 1e9)),
          command_kind_name(kind));
    }
  } else {
    execute(list);
  }
  lists_.fetch_add(1, std::memory_order_relaxed);
  commands_.fetch_add(static_cast<std::int64_t>(list.size()),
                      std::memory_order_relaxed);
}

std::int64_t command_macs(const Command& cmd) {
  struct Macs {
    std::int64_t operator()(const GemmCmd& c) const { return c.m * c.k * c.n; }
    std::int64_t operator()(const BatchedGemmCmd& c) const {
      return c.batch * c.m * c.k * c.n;
    }
    std::int64_t operator()(const GemmTnCmd& c) const {
      return c.m * c.k * c.n;
    }
    std::int64_t operator()(const Conv2dForwardCmd& c) const {
      const auto& s = c.shape;
      return s.H * s.W * s.kh * s.kw * s.Ci * s.Co;
    }
    std::int64_t operator()(const Conv2dBackwardBiasCmd& c) const {
      const auto& s = c.shape;
      return s.H * s.W * s.Co;
    }
    std::int64_t operator()(const Conv2dBackwardKernelCmd& c) const {
      const auto& s = c.shape;
      return s.H * s.W * s.kh * s.kw * s.Ci * s.Co;
    }
    std::int64_t operator()(const Conv2dBackwardInputCmd& c) const {
      const auto& s = c.shape;
      return s.H * s.W * s.kh * s.kw * s.Ci * s.Co;
    }
    std::int64_t operator()(const DasApplyCmd& c) const {
      const std::int64_t planes = c.im != nullptr ? 2 : 1;
      return c.nz * c.nx * c.nch * planes;
    }
  };
  return std::visit(Macs{}, cmd);
}

std::int64_t list_macs(const CommandList& list) {
  std::int64_t total = 0;
  for (const Command& cmd : list) total += command_macs(cmd);
  return total;
}

Device& cpu() {
  static CpuDevice instance;
  return instance;
}

std::shared_ptr<Device> cpu_shared() {
  // Aliasing a static: the process-wide device outlives every holder.
  return {std::shared_ptr<Device>{}, &cpu()};
}

Device& current() { return t_current != nullptr ? *t_current : cpu(); }

ScopedDevice::ScopedDevice(Device& device) : previous_(t_current) {
  t_current = &device;
}

ScopedDevice::~ScopedDevice() { t_current = previous_; }

}  // namespace tvbf::device
