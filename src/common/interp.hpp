// Interpolation-flavor vocabulary shared across layers.
//
// The enum lives in common/ (not dsp/) so the kernels layer's ToF gather
// (kernels::TofGather) can name the flavor without pulling dsp/ — and
// transitively tensor/ — into the bottom of the include-layering DAG.
// dsp/interpolate.hpp aliases it back into tvbf::dsp, which is the
// spelling most call sites use.
#pragma once

namespace tvbf {

/// Interpolation flavors selectable in the ToF-correction stage.
enum class Interp { kLinear, kCubic };

}  // namespace tvbf
