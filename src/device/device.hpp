// Device interface: one backend boundary for the GEMM, conv and DAS-sum
// kernels that tensor_ops, the nn ops and DAS still encode as commands.
//
// A Device executes CommandLists (see command.hpp) synchronously through
// submit(). CpuDevice is the only backend — it runs the exact blocked
// kernels the callers used to invoke directly, so routing through it is
// bit-identical to direct calls. Callers submit to the process-wide
// instance, cpu().
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "device/command.hpp"

namespace tvbf::device {

/// Abstract command-list backend.
class Device {
 public:
  /// Lifetime usage counters (lists/commands submitted for execution).
  struct Stats {
    std::int64_t lists = 0;
    std::int64_t commands = 0;
  };

  virtual ~Device() = default;

  virtual std::string name() const = 0;

  /// Executes the list synchronously, in order, on the calling thread
  /// (backends may fan individual commands out across the common pool).
  void submit(const CommandList& list);

  Stats stats() const {
    return {lists_.load(std::memory_order_relaxed),
            commands_.load(std::memory_order_relaxed)};
  }

 protected:
  virtual void execute(const CommandList& list) = 0;

 private:
  std::atomic<std::int64_t> lists_{0};
  std::atomic<std::int64_t> commands_{0};
};

/// Number of Command alternatives (the variant size). Telemetry attributes
/// each submit() to the kind of the list's first command.
inline constexpr std::size_t kNumCommandKinds = std::variant_size_v<Command>;

/// Short stable name for a Command alternative, by variant index (e.g.
/// "gemm", "das_apply"); "unknown" past the end.
const char* command_kind_name(std::size_t kind);

/// The process-wide reference CpuDevice.
Device& cpu();

}  // namespace tvbf::device
