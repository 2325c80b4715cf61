// Micro-benchmarks of the substrate kernels: FFT, analytic signal, matmul,
// conv2d, ToF correction, PE dot products, fixed-point quantization.
#include <benchmark/benchmark.h>

#include "accel/pe.hpp"
#include "common/rng.hpp"
#include "dsp/fft.hpp"
#include "dsp/hilbert.hpp"
#include "kernels/conv.hpp"
#include "kernels/gemm.hpp"
#include "nn/modules.hpp"
#include "quant/fixed_point.hpp"
#include "tensor/tensor_ops.hpp"
#include "us/phantom.hpp"
#include "us/simulator.hpp"
#include "us/tof.hpp"

namespace {

using namespace tvbf;

void BM_Fft(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<std::complex<double>> x(n);
  for (auto& v : x) v = {rng.normal(), rng.normal()};
  for (auto _ : state) {
    auto y = x;
    dsp::fft_inplace(y);
    benchmark::DoNotOptimize(y);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Fft)->RangeMultiplier(4)->Range(256, 16384)->Complexity();

void BM_AnalyticSignal(benchmark::State& state) {
  Rng rng(2);
  std::vector<float> x(static_cast<std::size_t>(state.range(0)));
  for (auto& v : x) v = static_cast<float>(rng.normal());
  for (auto _ : state) benchmark::DoNotOptimize(dsp::analytic_signal(x));
}
BENCHMARK(BM_AnalyticSignal)->Arg(1024)->Arg(4096);

void BM_Matmul(benchmark::State& state) {
  const auto n = state.range(0);
  Rng rng(3);
  Tensor a({n, n}), b({n, n});
  for (auto& v : a.data()) v = static_cast<float>(rng.normal());
  for (auto& v : b.data()) v = static_cast<float>(rng.normal());
  for (auto _ : state) benchmark::DoNotOptimize(matmul(a, b));
  state.counters["GFLOPs"] = benchmark::Counter(
      2.0 * static_cast<double>(n) * n * n,
      benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1000);
}
BENCHMARK(BM_Matmul)->Arg(64)->Arg(128)->Arg(256);

// ---- blocked kernels vs the preserved reference implementations ----------
// Single-threaded by construction: the serial `_rows` entry points are
// invoked directly, so new-vs-reference is a pure kernel comparison with no
// pool scheduling in either lane.

void BM_GemmBlockedSingle(benchmark::State& state) {
  const auto n = state.range(0);
  Rng rng(30);
  Tensor a({n, n}), b({n, n}), c({n, n});
  for (auto& v : a.data()) v = static_cast<float>(rng.normal());
  for (auto& v : b.data()) v = static_cast<float>(rng.normal());
  for (auto _ : state) {
    kernels::gemm_rows(a.raw(), b.raw(), c.raw(), n, n, n, 0, n);
    benchmark::DoNotOptimize(c.raw());
  }
  state.counters["GFLOPs"] = benchmark::Counter(
      2.0 * static_cast<double>(n) * n * n,
      benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1000);
}
BENCHMARK(BM_GemmBlockedSingle)->Arg(128)->Arg(256);

void BM_GemmReferenceSingle(benchmark::State& state) {
  const auto n = state.range(0);
  Rng rng(30);
  Tensor a({n, n}), b({n, n}), c({n, n});
  for (auto& v : a.data()) v = static_cast<float>(rng.normal());
  for (auto& v : b.data()) v = static_cast<float>(rng.normal());
  for (auto _ : state) {
    kernels::gemm_reference_rows(a.raw(), b.raw(), c.raw(), n, n, n, 0, n);
    benchmark::DoNotOptimize(c.raw());
  }
  state.counters["GFLOPs"] = benchmark::Counter(
      2.0 * static_cast<double>(n) * n * n,
      benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1000);
}
BENCHMARK(BM_GemmReferenceSingle)->Arg(128)->Arg(256);

kernels::Conv2dShape conv_bench_shape() {
  return {.H = 96, .W = 64, .Ci = 32, .kh = 3, .kw = 3, .Co = 8};
}

void BM_Conv2dBlockedSingle(benchmark::State& state) {
  Rng rng(31);
  const kernels::Conv2dShape s = conv_bench_shape();
  Tensor x({s.H, s.W, s.Ci}), k({s.kh, s.kw, s.Ci, s.Co}),
      out({s.H, s.W, s.Co});
  for (auto& v : x.data()) v = static_cast<float>(rng.normal());
  for (auto& v : k.data()) v = static_cast<float>(rng.normal());
  for (auto _ : state) {
    kernels::conv2d_same_forward_rows(x.raw(), k.raw(), out.raw(), s, 0, s.H);
    benchmark::DoNotOptimize(out.raw());
  }
}
BENCHMARK(BM_Conv2dBlockedSingle)->Unit(benchmark::kMillisecond);

void BM_Conv2dReferenceSingle(benchmark::State& state) {
  Rng rng(31);
  const kernels::Conv2dShape s = conv_bench_shape();
  Tensor x({s.H, s.W, s.Ci}), k({s.kh, s.kw, s.Ci, s.Co}),
      out({s.H, s.W, s.Co});
  for (auto& v : x.data()) v = static_cast<float>(rng.normal());
  for (auto& v : k.data()) v = static_cast<float>(rng.normal());
  for (auto _ : state) {
    kernels::conv2d_same_forward_reference(x.raw(), k.raw(), out.raw(), s);
    benchmark::DoNotOptimize(out.raw());
  }
}
BENCHMARK(BM_Conv2dReferenceSingle)->Unit(benchmark::kMillisecond);

void BM_Conv2dForward(benchmark::State& state) {
  Rng rng(4);
  const nn::Conv2D conv(3, 3, 32, 8, rng);
  Tensor x({96, 64, 32});
  for (auto& v : x.data()) v = static_cast<float>(rng.normal());
  for (auto _ : state)
    benchmark::DoNotOptimize(conv.forward(nn::constant(x)).value());
}
BENCHMARK(BM_Conv2dForward)->Unit(benchmark::kMillisecond);

void BM_PlaneWaveSim(benchmark::State& state) {
  const us::Probe probe = us::Probe::test_probe(32);
  Rng rng(5);
  us::Region region;
  us::SpeckleOptions opt;
  opt.density_per_mm2 = 1.0;
  const us::Phantom ph = us::make_speckle(region, opt, rng);
  us::SimParams params = us::SimParams::in_silico();
  for (auto _ : state)
    benchmark::DoNotOptimize(us::simulate_plane_wave(probe, ph, 0.0, params));
  state.counters["scatterers"] = static_cast<double>(ph.size());
}
BENCHMARK(BM_PlaneWaveSim)->Unit(benchmark::kMillisecond);

void BM_TofCorrection(benchmark::State& state) {
  const us::Probe probe = us::Probe::test_probe(32);
  const us::ImagingGrid grid = us::ImagingGrid::reduced(probe, 192, 64);
  const us::Phantom ph = us::make_single_point(20e-3);
  const us::Acquisition acq =
      us::simulate_plane_wave(probe, ph, 0.0, us::SimParams::in_silico());
  const bool analytic = state.range(0) != 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        us::tof_correct(acq, grid, {.analytic = analytic}));
}
BENCHMARK(BM_TofCorrection)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_PeDot16(benchmark::State& state) {
  Rng rng(6);
  std::vector<float> a(16), b(16);
  for (int i = 0; i < 16; ++i) {
    a[static_cast<std::size_t>(i)] = static_cast<float>(rng.normal());
    b[static_cast<std::size_t>(i)] = static_cast<float>(rng.normal());
  }
  for (auto _ : state)
    benchmark::DoNotOptimize(accel::ProcessingElement::dot16(a, b));
}
BENCHMARK(BM_PeDot16);

void BM_QuantizeTensor(benchmark::State& state) {
  Rng rng(7);
  Tensor t({512, 512});
  for (auto& v : t.data()) v = static_cast<float>(rng.normal());
  const quant::FixedFormat fmt = quant::activation_format(16, 4);
  for (auto _ : state) {
    Tensor q = t;
    quant::quantize_tensor_inplace(q, fmt);
    benchmark::DoNotOptimize(q);
  }
}
BENCHMARK(BM_QuantizeTensor)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
