// The Tiny-VBF inference engine: one forward pass without an autograd
// graph, shared by float inference (TinyVbf::infer) and the fixed-point
// datapath (quant::QuantizedTinyVbf::infer).
//
// It calls the kernels directly on raw buffers, but every op computes what
// the autograd forward TinyVbf::forward computes, in the same order: the
// GEMMs run the same micro-kernels (each (depth row, head) of attention as
// one kernels::attention_block, in L1), layer norm and softmax the
// arithmetic of tvbf::layer_norm and tvbf::softmax_last, and the adds,
// scales and ReLUs are the same float ops (the bias adds and ReLUs in the
// GEMM epilogues). So float inference is the autograd output bit for bit;
// test_models and the benchmark's traced run check it. The fixed-point
// datapath passes its formats, and every value the accelerator rounds
// (Figs 5-8) is rounded where it is produced: dense and attention results
// in the kernels' epilogues, the loaded input, the positional and residual
// adds and the layer-norm outputs by the engine. Float inference passes
// none.
//
// A frame runs in tiles of kVbfTileRows depth rows. Every op of the network
// acts within one depth row (attention runs across the lateral patches of a
// row), so the output does not depend on the tiling; the tiling bounds the
// working set. A call allocates one workspace for a tile's buffers and
// reuses it for every tile, and every elementwise op runs in place in it.
// The input enters through a row loader, which writes already scaled rows
// in a RowLayout: a tile is loaded and embedded in slices of at most
// kVbfSliceBytes of input, one pool fork-join per slice, so the embed GEMM
// reads each slice from cache, in place (kernels::gemm_indirect_rows), and
// a frame's input is never held whole. The loader may copy (nx, nch) rows
// from a raw ToF cube or write slot tables straight from the acquired RF
// (us::TofPlan::slot_rows). The embed GEMM's rows are independent and the
// rounding is elementwise, so neither changes the output.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "kernels/quantize.hpp"
#include "models/tiny_vbf.hpp"

namespace tvbf::models {

/// Non-owning views of one Tiny-VBF's weights, laid out as TinyVbf's
/// modules: dense weights (in, out) with biases (out), the flat positional
/// embedding (np * d_model), layer-norm gamma and beta (d_model).
struct TinyVbfWeights {
  struct Dense {
    const Tensor* w = nullptr;
    const Tensor* b = nullptr;
  };
  struct Block {
    const Tensor* ln1_gamma = nullptr;
    const Tensor* ln1_beta = nullptr;
    Dense wq, wk, wv, wo;
    const Tensor* ln2_gamma = nullptr;
    const Tensor* ln2_beta = nullptr;
    Dense fc1, fc2;
  };
  Dense embed;
  const Tensor* pos = nullptr;
  std::vector<Block> blocks;
  Dense dec1, dec2;
};

/// Views of a model's live weights.
TinyVbfWeights weights_of(const TinyVbf& model);

/// Depth rows per tile, from a sweep of the float forward over the
/// paper-scale frame (368 x 128, 128 channels; 4-vCPU Xeon): on one thread,
/// tiles of 8-64 rows ran within 3% of each other (22 ms) and larger ones
/// up to 17% slower (26 ms untiled); on four, tiles under 64 rows were
/// slower (26-36 ms) while 64-184 rows ran in 24-27 ms. 64 is the smallest
/// tile near the best on both. A tile's input is loaded in slices (below).
inline constexpr std::int64_t kVbfTileRows = 64;

/// Most input bytes loaded per slice: a slice holds as many whole depth
/// rows as fit, at least one and at most a tile. At paper scale (64 KB
/// cube rows, 67.5 KB slot tables) that is 8 or 7 rows, which stay in L2
/// between the load and the embed GEMM. One paper frame on one thread,
/// gathering (nx, nch) rows from the RF and embedding them (medians of
/// five interleaved runs, 4-vCPU Xeon): 64-row slices 17.4 ms, 8-row
/// 12.2 ms, 4-row 13.3 ms. Rows of 8 KB or less load a whole tile at once.
inline constexpr std::int64_t kVbfSliceBytes = 512 * 1024;

/// Tiny-VBF over an input of `shape` (nz, nx, nch) whose (nx, nch) rows
/// `load` writes, already scaled (a raw ToF cube times 1 / max|x| is the
/// network's [-1, 1] input). The engine asks for each row once, in order,
/// slice by slice, on the calling thread. With formats, each loaded slice
/// is rounded at the intermediate width and every datapath result at its
/// point. Returns the IQ image (nz, nx, 2).
Tensor run_tiny_vbf(const TinyVbfConfig& config, const TinyVbfWeights& weights,
                    const Shape& shape, const RowLoader& load,
                    const std::optional<kernels::DatapathFormats>& formats =
                        {});

/// run_tiny_vbf over rows `load` writes in `layout`, which each pool worker
/// loads for its own depth rows of a slice and embeds: `load` may run on
/// several threads at once, over disjoint row ranges, in any order.
Tensor run_tiny_vbf(const TinyVbfConfig& config, const TinyVbfWeights& weights,
                    const Shape& shape, const RowLayout& layout,
                    const RowLoader& load,
                    const std::optional<kernels::DatapathFormats>& formats =
                        {});

/// run_tiny_vbf over a (nz, nx, nch) tensor: the loader copies its rows,
/// every element multiplied by `input_scale` (an already normalized input
/// passes 1).
Tensor run_tiny_vbf(const TinyVbfConfig& config, const TinyVbfWeights& weights,
                    const Tensor& input, float input_scale,
                    const std::optional<kernels::DatapathFormats>& formats =
                        {});

}  // namespace tvbf::models
