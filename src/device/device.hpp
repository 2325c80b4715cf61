// Device interface: one backend boundary for every hot-path kernel.
//
// A Device consumes CommandLists (see command.hpp) two ways: submit()
// executes the list synchronously, estimate_seconds() prices it from the
// command dimensions alone. CpuDevice is the reference backend — it runs
// the exact blocked kernels the callers used to invoke directly, so
// routing through it is bit-identical to the pre-refactor direct calls.
// AccelDevice executes on CPU too (identical output) but prices lists with
// the accel/ cycle model, which the serving layer uses for cost-aware
// batch sizing.
//
// Routing: compute entry points (tensor_ops, nn ops, DAS) are free
// functions, so the active backend is a thread-local — current() returns
// the innermost ScopedDevice on this thread, falling back to the
// process-wide CpuDevice (cpu()). The runtime/serving layers install a
// ScopedDevice around each stage they drive, which is how a per-session
// PipelineConfig::device reaches the kernels under it.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "device/command.hpp"

namespace tvbf::device {

/// Abstract command-list backend.
class Device {
 public:
  /// Lifetime usage counters (lists/commands submitted for execution;
  /// estimate-only probes are not counted).
  struct Stats {
    std::int64_t lists = 0;
    std::int64_t commands = 0;
  };

  virtual ~Device() = default;

  virtual std::string name() const = 0;

  /// Executes the list synchronously, in order, on the calling thread
  /// (backends may fan individual commands out across the common pool).
  void submit(const CommandList& list);

  /// Predicted wall-clock seconds to execute `list` on this backend. Pure
  /// dimension arithmetic: safe on lists whose pointers are null (cost
  /// probes) and deterministic across hosts.
  double estimate_seconds(const CommandList& list) const {
    return estimate_list(list);
  }

  Stats stats() const {
    return {lists_.load(std::memory_order_relaxed),
            commands_.load(std::memory_order_relaxed)};
  }

 protected:
  virtual void execute(const CommandList& list) = 0;
  virtual double estimate_list(const CommandList& list) const = 0;

 private:
  std::atomic<std::int64_t> lists_{0};
  std::atomic<std::int64_t> commands_{0};
};

/// Multiply-accumulate count of one command / list (shared by the backend
/// cost models and tests).
std::int64_t command_macs(const Command& cmd);
std::int64_t list_macs(const CommandList& list);

/// Number of Command alternatives (the variant size). Telemetry attributes
/// each submit() to the kind of the list's first command.
inline constexpr std::size_t kNumCommandKinds = std::variant_size_v<Command>;

/// Short stable name for a Command alternative, by variant index (e.g.
/// "gemm", "das_apply"); "unknown" past the end.
const char* command_kind_name(std::size_t kind);

/// The process-wide reference CpuDevice every thread falls back to.
Device& cpu();

/// cpu() as a non-owning shared_ptr, for configs that hold device handles.
std::shared_ptr<Device> cpu_shared();

/// The calling thread's active device: the innermost live ScopedDevice,
/// else cpu().
Device& current();

/// RAII thread-local backend override (nests; restores on destruction).
class ScopedDevice {
 public:
  explicit ScopedDevice(Device& device);
  ~ScopedDevice();
  ScopedDevice(const ScopedDevice&) = delete;
  ScopedDevice& operator=(const ScopedDevice&) = delete;

 private:
  Device* previous_;
};

}  // namespace tvbf::device
