// Reference CPU backend.
//
// Executes every command with the blocked kernels in src/kernels/ and the
// exact loop structures (chunking, grain sizes, double accumulators) the
// pre-refactor callers used inline, so output through CpuDevice is
// bit-identical to the old direct-call paths — test_device gates this.
#pragma once

#include "device/device.hpp"

namespace tvbf::device {

class CpuDevice : public Device {
 public:
  std::string name() const override { return "cpu"; }

 protected:
  void execute(const CommandList& list) override;
};

}  // namespace tvbf::device
