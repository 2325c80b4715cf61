#include "device/device.hpp"

#include <chrono>
#include <string>

#include "device/cpu_device.hpp"
#include "telemetry/telemetry.hpp"

namespace tvbf::device {

namespace {

// Per-kind submit latency histograms, resolved once.
struct SubmitInstruments {
  telemetry::LatencyHistogram* latency[kNumCommandKinds];

  SubmitInstruments() {
    auto& reg = telemetry::Registry::instance();
    for (std::size_t i = 0; i < kNumCommandKinds; ++i)
      latency[i] = &reg.histogram(std::string("device.submit.") +
                                  command_kind_name(i) + "_s");
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
    const auto t0 = std::chrono::steady_clock::now();
    execute(list);
    submit_instruments().latency[list.front().index()]->record(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
  } else {
    execute(list);
  }
  lists_.fetch_add(1, std::memory_order_relaxed);
  commands_.fetch_add(static_cast<std::int64_t>(list.size()),
                      std::memory_order_relaxed);
}

Device& cpu() {
  static CpuDevice instance;
  return instance;
}

}  // namespace tvbf::device
