// Per-layer measurements of the traced run: the one-by-one pass over the
// scene's acquisitions through each layer's public calls, the nn mirror of
// the Tiny-VBF forward, the GEMM rate (at the pool size in force and at a
// two-thread pool) and the accelerator model's cycles.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "models/tiny_vbf.hpp"
#include "scene.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perf {

/// The op groups of one Tiny-VBF forward, in execution order.
inline const std::vector<std::string> kVbfOpGroups = {
    "embed", "qkv", "scores", "softmax", "attn_v", "wo", "ln", "mlp", "decoder"};

/// The op groups that multiply matrices, which get a GFLOP/s figure.
inline const std::vector<std::string> kVbfGemmGroups = {
    "embed", "qkv", "scores", "attn_v", "wo", "mlp", "decoder"};

/// The group an accel::AcceleratorSim op belongs to ("blk1.wk" -> "qkv").
std::string op_group(const std::string& accel_op);

/// TinyVbf::forward replayed through the public nn modules and ops, so that
/// each op group can be timed: on_group(group, t0_s, t1_s) is called as each
/// group finishes. Produces TinyVbf::infer's output bit for bit.
tvbf::Tensor mirror_forward(
    const tvbf::models::TinyVbf& model, const tvbf::Tensor& input,
    const std::function<void(const std::string&, double, double)>& on_group);

/// Runs every layer of every beamformer family once per acquisition, one
/// call at a time (spans go to `log` with session -1), and fills `figures`.
/// Returns false, with the first difference in `mismatch`, when the pass's
/// B-mode image differs from `refs` or the nn mirror from TinyVbf::infer.
bool layer_pass(const WorkloadSpec& spec, const Scene& scene,
                const std::vector<tvbf::Tensor>& refs, SpanLog& log,
                Figures& figures, std::string& mismatch);

}  // namespace perf
