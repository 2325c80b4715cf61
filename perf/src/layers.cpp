#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "accel/accelerator.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "dsp/hilbert.hpp"
#include "heap_counter.hpp"
#include "kernels/gemm.hpp"
#include "models/neural_beamformer.hpp"
#include "nn/ops.hpp"
#include "quant/scheme.hpp"
#include "stats.hpp"
#include "us/plan_cache.hpp"

namespace perf {

std::string op_group(const std::string& accel_op) {
  // Strip a "blkN." prefix (npos + 1 wraps to 0 when there is none).
  const std::string op = accel_op.substr(accel_op.find('.') + 1);
  if (op == "pos_add") return "embed";
  if (op == "ln1" || op == "ln2") return "ln";
  if (op == "wq" || op == "wk" || op == "wv") return "qkv";
  if (op == "skip1") return "wo";
  if (op == "fc1" || op == "relu1" || op == "fc2" || op == "skip2") return "mlp";
  if (op == "dec1" || op == "dec_relu" || op == "dec2") return "decoder";
  return op;  // embed, scores, softmax, attn_v, wo
}

tvbf::Tensor mirror_forward(
    const tvbf::models::TinyVbf& model, const tvbf::Tensor& input,
    const std::function<void(const std::string&, double, double)>& on_group) {
  namespace nn = tvbf::nn;
  using nn::Variable;
  const tvbf::models::TinyVbfConfig& c = model.config();
  const std::int64_t nz = input.dim(0);
  const std::int64_t np = c.num_patches();
  const std::int64_t d = c.d_model;
  double t0 = now_s();
  const auto done = [&](const std::string& group) {
    const double t1 = now_s();
    on_group(group, t0, t1);
    t0 = t1;
  };

  Variable h = nn::reshape(nn::constant(input),
                           {nz, np, c.patch_size * c.in_channels});
  h = model.embed().forward(h);
  h = nn::reshape(h, {nz, np * d});
  h = nn::add_bias(h, model.positional());
  h = nn::reshape(h, {nz, np, d});
  done("embed");
  for (const auto& block : model.blocks()) {
    const nn::MultiHeadAttention& mha = block->attention();
    const std::int64_t dk = mha.head_dim();
    const Variable n1 = block->norm1().forward(h);
    done("ln");
    const Variable q = mha.wq().forward(n1);
    const Variable k = mha.wk().forward(n1);
    const Variable v = mha.wv().forward(n1);
    done("qkv");
    const float inv_sqrt_dk = 1.0f / std::sqrt(static_cast<float>(dk));
    Variable heads;
    for (std::int64_t head = 0; head < mha.num_heads(); ++head) {
      const std::int64_t lo = head * dk;
      const std::int64_t hi = lo + dk;
      const Variable scores = nn::scale(
          nn::batched_matmul(nn::slice_last(q, lo, hi),
                             nn::transpose_last2(nn::slice_last(k, lo, hi))),
          inv_sqrt_dk);
      done("scores");
      const Variable attn = nn::softmax_last(scores);
      done("softmax");
      const Variable oh = nn::batched_matmul(attn, nn::slice_last(v, lo, hi));
      heads = head == 0 ? oh : nn::concat_last(heads, oh);
      done("attn_v");
    }
    const Variable a = nn::add(h, mha.wo().forward(heads));
    done("wo");
    const Variable n2 = block->norm2().forward(a);
    done("ln");
    h = nn::add(a, block->mlp_out().forward(
                       nn::relu(block->mlp_in().forward(n2))));
    done("mlp");
  }
  h = nn::relu(model.decoder_in().forward(h));
  h = model.decoder_out().forward(h);
  tvbf::Tensor out = nn::reshape(h, {nz, c.num_lateral, 2}).value();
  done("decoder");
  return out;
}

namespace {

/// Achieved GEMM rate with a pool of `threads`: 512^3 products (at 256^3 a
/// second thread gained little over one). The pool size in force is
/// restored afterwards.
Figure gemm_rate(SpanLog& log, const std::string& span, std::size_t threads) {
  const std::size_t pool = tvbf::hardware_threads();
  tvbf::set_thread_count(threads);
  constexpr std::int64_t n = 512;
  std::vector<float> a(n * n), b(n * n), c(n * n);
  tvbf::Rng rng(1);
  for (float& x : a) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (float& x : b) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  tvbf::kernels::gemm(a.data(), b.data(), c.data(), n, n, n);  // warm-up
  std::vector<double> ms;
  for (int r = 0; r < 15; ++r) {
    const double t0 = now_s();
    tvbf::kernels::gemm(a.data(), b.data(), c.data(), n, n, n);
    const double t1 = now_s();
    log.add(span, -1, r, t0, t1);
    ms.push_back((t1 - t0) * 1e3);
  }
  tvbf::set_thread_count(pool);
  return {2.0 * n * n * n / (median(ms) * 1e6), static_cast<std::int64_t>(ms.size())};
}

}  // namespace

bool layer_pass(const WorkloadSpec& spec, const Scene& scene,
                const std::vector<tvbf::Tensor>& refs, SpanLog& log,
                Figures& figures, std::string& mismatch) {
  using namespace tvbf;
  const rt::PipelineConfig config = pipeline_config(scene);
  const std::vector<us::Acquisition>& acqs = scene.acquisitions;
  bool exact = true;
  const auto fail = [&](const std::string& what) {
    if (exact) mismatch = what;
    exact = false;
  };
  // Per-call milliseconds by span name.
  std::map<std::string, std::vector<double>> ms;
  const auto timed = [&](const std::string& name, std::int64_t frame,
                         const auto& call) {
    const double t0 = now_s();
    auto result = call();
    const double t1 = now_s();
    log.add(name, -1, frame, t0, t1);
    ms[name].push_back((t1 - t0) * 1e3);
    return result;
  };

  us::PlanCache& cache = us::PlanCache::instance();
  std::shared_ptr<const us::TofPlan> plan;
  for (int r = 0; r < 3; ++r) {
    cache.clear();
    plan = timed("us.plan_build", r, [&] {
      return cache.get_for(acqs[0], scene.grid, config.tof.interp);
    });
  }

  const auto step = [&](const std::string& name, std::size_t k, bool timing,
                        const auto& call) {
    return timing ? timed(name, static_cast<std::int64_t>(k), call) : call();
  };
  // Runs body(k, timing) untimed on acquisition 0, then timed on each
  // acquisition. One sweep per call chain keeps each chain in its own
  // steady state: interleaving the autograd forward with the nn mirror,
  // for one, made every forward re-fault its ~120 MB of intermediates.
  const auto sweep = [&](const auto& body) {
    body(std::size_t{0}, false);
    for (std::size_t k = 0; k < acqs.size(); ++k) body(k, true);
  };
  us::TofCube cube;
  us::ChannelWorkspace workspace;
  const auto tof = [&](std::size_t k) {
    plan->apply(acqs[k], config.tof.analytic, cube, &workspace);
    return 0;
  };

  const std::map<Family, const char*> spans = {
      {Family::kDas, "beamform.das"},
      {Family::kTinyVbf, "models.vbf_forward"},
      {Family::kQuantTinyVbf, "quant.vbf_forward"}};
  std::vector<Tensor> vbf_iq(acqs.size());
  double vbf_heap_mb = 0.0;
  const auto forward = [&](Family family, const bf::Beamformer& beamformer,
                           std::size_t k, bool timing) {
    heap::reset_peak();
    const std::size_t live = heap::live_bytes();
    Tensor iq = step(spans.at(family), k, timing,
                     [&] { return beamformer.beamform(cube); });
    if (family == Family::kTinyVbf) {
      vbf_heap_mb = std::max(
          vbf_heap_mb, static_cast<double>(heap::peak_bytes() - live) / 1e6);
      vbf_iq[k] = iq;
    }
    return iq;
  };

  // The workload's own chain, as the stream runs each frame.
  const auto own = make_beamformer(spec.family, scene);
  sweep([&](std::size_t k, bool timing) {
    step("us.tof_apply", k, timing, [&] { return tof(k); });
    const Tensor iq = forward(spec.family, *own, k, timing);
    const Tensor db = step("dsp.post", k, timing, [&] {
      return dsp::log_compress(dsp::envelope_iq(iq), config.dynamic_range_db);
    });
    if (!same_bits(db, refs[k]))
      fail("one-by-one B-mode differs from the streamed one on acquisition " +
           std::to_string(k));
  });
  // The other families on the same cubes, and the quantized datapath's
  // float-reference twin (same GEMMs, no rounding).
  for (const auto& [family, span] : spans) {
    if (family == spec.family) continue;
    const auto beamformer = make_beamformer(family, scene);
    sweep([&](std::size_t k, bool timing) {
      tof(k);
      forward(family, *beamformer, k, timing);
    });
  }
  const auto float_ref = make_quantized(scene, quant::QuantScheme::float_reference());
  sweep([&](std::size_t k, bool timing) {
    tof(k);
    step("quant.float_forward", k, timing, [&] { return float_ref->beamform(cube); });
  });
  // The float forward once more, op group by op group.
  sweep([&](std::size_t k, bool timing) {
    tof(k);
    std::map<std::string, double> group_ms;
    const Tensor mirrored = mirror_forward(
        *scene.model, models::normalized_input(cube),
        [&](const std::string& group, double t0, double t1) {
          if (!timing) return;
          log.add("nn." + group, -1, static_cast<std::int64_t>(k), t0, t1);
          group_ms[group] += (t1 - t0) * 1e3;
        });
    for (const auto& [group, v] : group_ms) ms["nn." + group].push_back(v);
    if (!same_bits(mirrored, vbf_iq[k]))
      fail("nn mirror differs from TinyVbf::infer on acquisition " +
           std::to_string(k));
  });
  std::vector<double> rounding_ms;
  for (std::size_t k = 0; k < acqs.size(); ++k)
    rounding_ms.push_back(ms.at("quant.vbf_forward")[k] -
                          ms.at("quant.float_forward")[k]);

  const auto put = [&](const std::string& name, double value, std::size_t samples) {
    figures[name] = {value, static_cast<std::int64_t>(samples)};
  };
  const auto put_median = [&](const std::string& name, const std::string& span) {
    put(name, median(ms.at(span)), ms.at(span).size());
  };
  const std::size_t n = acqs.size();
  put_median("us.plan_build_ms", "us.plan_build");
  put_median("us.tof_apply_ms", "us.tof_apply");
  put("us.plan_mb", static_cast<double>(plan->bytes()) / 1e6, 1);
  put_median("beamform.das_ms", "beamform.das");
  put_median("dsp.post_ms", "dsp.post");
  put_median("models.vbf_forward_ms", "models.vbf_forward");
  put("models.vbf_heap_mb", vbf_heap_mb, n);
  put("models.vbf_gop_s",
      static_cast<double>(scene.model->ops_per_frame(scene.grid.nz)) / 1e9 /
          (figures.at("models.vbf_forward_ms").value / 1e3),
      n);
  put_median("quant.vbf_forward_ms", "quant.vbf_forward");
  put("quant.rounding_ms", median(rounding_ms), n);

  std::map<std::string, std::int64_t> macs;
  for (const auto& op :
       accel::AcceleratorSim().run_tiny_vbf(scene.model->config(), scene.grid.nz).ops)
    macs[op_group(op.name)] += op.macs;
  for (const std::string& group : kVbfOpGroups)
    put_median("nn." + group + "_ms", "nn." + group);
  for (const std::string& group : kVbfGemmGroups)
    put("nn." + group + "_gflops",
        2.0 * static_cast<double>(macs.at(group)) /
            (figures.at("nn." + group + "_ms").value * 1e6),
        n);

  figures["kernels.gemm_gflops"] = gemm_rate(log, "kernels.gemm", hardware_threads());
  figures["kernels.gemm_gflops_pool2"] = gemm_rate(log, "kernels.gemm_pool2", 2);

  const accel::AccelReport paper = accel::AcceleratorSim().run_tiny_vbf(
      models::TinyVbfConfig::paper(), us::ImagingGrid::paper(us::Probe::l11_5v()).nz);
  std::map<std::string, std::int64_t> cycles;
  for (const auto& op : paper.ops) cycles[op_group(op.name)] += op.cycles;
  for (const auto& [group, c] : cycles)
    put("accel." + group + "_cycles", static_cast<double>(c), 1);
  put("accel.vbf_cycles", static_cast<double>(paper.total_cycles), 1);
  return exact;
}

}  // namespace perf
