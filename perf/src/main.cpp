// tvbf_perf: the repository's benchmark command (see README.md).
//
//   tvbf_perf --workload <vbf_scan|quant_fleet> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Generates the workload's inputs from the seed, times it, checks every
// output frame bit for bit against a reference computed before timing, and
// prints one JSON line of context followed, as the last line of stdout, by
// the result: the end-to-end metrics (--trace 0) or the per-layer metrics
// of a separate traced run (--trace 1). Exits 1 when any frame fails.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <limits>
#include <map>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/parallel.hpp"
#include "layers.hpp"
#include "scene.hpp"
#include "serve/server.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

using namespace perf;

/// Pool size for every workload. On a shared host, CPU stolen from any one
/// thread stalls a parallel_for until its slowest chunk is done: over
/// interleaved runs the scans' fps spread 5-13% with one thread and 9-28%
/// with two, and float Tiny-VBF ran no faster on two. The pool's threaded
/// path is measured by kernels.gemm_gflops_pool2 alone.
constexpr std::size_t kPoolThreads = 1;
/// Cold set-ups per end-to-end run; setup_s is their median.
constexpr int kSetups = 9;

struct MetricDef {
  std::string name;
  std::string unit;
};

const std::vector<MetricDef> kEndToEnd = {
    {"fps", "1/s"},          {"latency_p50_ms", "ms"}, {"latency_p90_ms", "ms"},
    {"cpu_ms_per_frame", "ms"}, {"setup_s", "s"},      {"peak_heap_mb", "MB"},
    {"ok_frac", "ratio"},
};

std::vector<MetricDef> per_layer_defs() {
  std::vector<MetricDef> defs = {
      {"us.plan_build_ms", "ms"},      {"us.tof_apply_ms", "ms"},
      {"us.plan_mb", "MB"},            {"us.plan_hit_ratio", "ratio"},
      {"beamform.das_ms", "ms"},       {"dsp.post_ms", "ms"},
      {"models.vbf_forward_ms", "ms"}, {"models.vbf_heap_mb", "MB"},
      {"models.vbf_gop_s", "GOP/s"},
  };
  for (const std::string& g : kVbfOpGroups) defs.push_back({"nn." + g + "_ms", "ms"});
  for (const std::string& g : kVbfGemmGroups)
    defs.push_back({"nn." + g + "_gflops", "GFLOP/s"});
  for (const std::string& g : kVbfOpGroups)
    defs.push_back({"accel." + g + "_cycles", "cycles"});
  const std::vector<MetricDef> rest = {
      {"kernels.gemm_gflops", "GFLOP/s"}, {"kernels.gemm_gflops_pool2", "GFLOP/s"},
      {"accel.vbf_cycles", "cycles"},     {"quant.vbf_forward_ms", "ms"},
      {"quant.rounding_ms", "ms"},        {"runtime.driver_ms", "ms"},
      {"serve.batch_frames", "frames"},   {"serve.forward_ms", "ms"},
      {"serve.wait_ms", "ms"},            {"serve.late_ms", "ms"},
      {"trace.overhead_frac", "ratio"},
  };
  defs.insert(defs.end(), rest.begin(), rest.end());
  return defs;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      have_seed = *value != '\0' && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0') args.seconds = 0.0;
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") == 0 ? 0 : std::strcmp(value, "1") == 0 ? 1 : -1;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && args.seconds > 0.0 && args.trace >= 0 &&
         find_workload(args.workload) != nullptr;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004) return "unknown";
  for (unsigned i = 0; i < 3; ++i)
    __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                &regs[4 * i + 3]);
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s = brand;
  s.erase(0, s.find_first_not_of(' '));
  s.erase(s.find_last_not_of(' ') + 1);
  return s;
#else
  return "unknown";
#endif
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string env_or_unknown(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : "unknown";
}

/// What a run reports: metric values with their sample counts, and the
/// frame accounting of every phase it ran.
struct Outcome {
  Figures metrics;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;

  void account(const PhaseResult& phase, const char* what) {
    attempted += phase.attempted;
    failed += phase.failed();
    if (!phase.error.empty()) errors.push_back(std::string(what) + ": " + phase.error);
    if (phase.mismatched > 0)
      errors.push_back(std::string(what) + ": " + std::to_string(phase.mismatched) +
                       " frames differ from their reference");
  }
};

Outcome end_to_end(const WorkloadSpec& spec, const Scene& scene,
                   const std::vector<tvbf::Tensor>& refs,
                   std::shared_ptr<const tvbf::bf::Beamformer> beamformer,
                   double seconds) {
  Outcome o;
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    PhaseResult phase;
    setups.push_back(cold_setup(spec, scene, refs, phase));
    o.account(phase, "set-up");
  }
  const PhaseResult timed = run_phase(spec, scene, refs, beamformer, {.seconds = seconds});
  o.account(timed, "timed phase");

  // A frame that failed misses every latency limit.
  std::vector<double> latency = timed.latency_ms;
  latency.insert(latency.end(), static_cast<std::size_t>(timed.failed()),
                 std::numeric_limits<double>::infinity());
  const auto n = [](auto count) { return static_cast<std::int64_t>(count); };
  o.metrics["fps"] = {timed.fps(), n(timed.delivered)};
  o.metrics["latency_p50_ms"] = {percentile(latency, 50), n(latency.size())};
  o.metrics["latency_p90_ms"] = {percentile(latency, 90), n(latency.size())};
  o.metrics["cpu_ms_per_frame"] = {timed.cpu_ms_per_frame(), n(timed.delivered)};
  o.metrics["setup_s"] = {median(setups), n(setups.size())};
  o.metrics["peak_heap_mb"] = {static_cast<double>(timed.peak_heap_bytes) / 1e6, 1};
  o.metrics["ok_frac"] = {static_cast<double>(o.attempted - o.failed) /
                              static_cast<double>(o.attempted),
                          o.attempted};
  return o;
}

Outcome per_layer(const WorkloadSpec& spec, const Scene& scene,
                  const std::vector<tvbf::Tensor>& refs,
                  std::shared_ptr<const tvbf::bf::Beamformer> beamformer,
                  double seconds, const std::string& trace_path,
                  const std::string& context_json) {
  Outcome o;
  SpanLog log;
  // The one-by-one pass runs first, on a thread of its own and so in a
  // malloc arena of its own: after the streaming phases, the main arena's
  // history made every autograd forward re-fault its intermediates, which
  // doubled the layer times.
  std::string mismatch;
  bool exact = false;
  std::exception_ptr pass_error;
  std::thread([&] {
    try {
      exact = layer_pass(spec, scene, refs, log, o.metrics, mismatch);
    } catch (...) {
      pass_error = std::current_exception();
    }
  }).join();
  if (pass_error) std::rethrow_exception(pass_error);
  if (!exact) {
    ++o.failed;
    o.errors.push_back(mismatch);
  }

  // The same stream, untraced then traced, half the run each: the difference
  // between them is the tracing overhead.
  const PhaseResult plain =
      run_phase(spec, scene, refs, beamformer, {.seconds = seconds / 2});
  o.account(plain, "untraced phase");
  ForwardLedger ledger;
  const PhaseResult traced = run_phase(
      spec, scene, refs, beamformer, {.seconds = seconds / 2, .log = &log, .ledger = &ledger});
  o.account(traced, "traced phase");

  const auto n = [](auto count) { return static_cast<std::int64_t>(count); };
  const std::uint64_t lookups = traced.plan_hits + traced.plan_misses;
  o.metrics["us.plan_hit_ratio"] = {
      static_cast<double>(traced.plan_hits) / static_cast<double>(lookups), n(lookups)};
  const std::vector<ForwardCall> calls = ledger.calls();
  std::vector<double> forward_ms;
  std::int64_t frames = 0;
  for (const ForwardCall& c : calls) {
    forward_ms.push_back((c.t1_s - c.t0_s) * 1e3);
    frames += c.frames;
  }
  o.metrics["serve.batch_frames"] = {static_cast<double>(frames) / static_cast<double>(calls.size()),
                                     n(calls.size())};
  o.metrics["serve.forward_ms"] = {median(forward_ms), n(calls.size())};
  o.metrics["serve.wait_ms"] = {median(traced.wait_ms), n(traced.wait_ms.size())};
  o.metrics["serve.late_ms"] = {
      std::accumulate(traced.late_ms.begin(), traced.late_ms.end(), 0.0) /
          static_cast<double>(traced.late_ms.size()),
      n(traced.late_ms.size())};
  o.metrics["runtime.driver_ms"] = {plain.driver_ms, n(plain.delivered)};
  // In a closed loop tracing costs fps. In the open loop fps is the offered
  // rate, so tracing shows as CPU per frame.
  o.metrics["trace.overhead_frac"] = {
      spec.rate_hz > 0.0 ? traced.cpu_ms_per_frame() / plain.cpu_ms_per_frame() - 1.0
                         : 1.0 - traced.fps() / plain.fps(),
      n(traced.delivered)};

  std::filesystem::create_directories(std::filesystem::path(trace_path).parent_path());
  if (!log.write_chrome_trace(trace_path, context_json))
    o.errors.push_back("cannot write " + trace_path);
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <vbf_scan|quant_fleet> --seed <n> "
                 "--seconds <s> --trace <0|1>\n",
                 argv[0]);
    return 2;
  }
  try {
    tvbf::set_thread_count(kPoolThreads);
    tvbf::serve::tune_allocator();
    const WorkloadSpec& spec = *find_workload(args.workload);
    const Scene scene = make_scene(spec, args.seed);
    const auto beamformer = make_beamformer(spec.family, scene);
    const std::vector<tvbf::Tensor> refs = reference_bmodes(spec, scene, beamformer);

    const std::string trace_path = ".bench_out/trace-" + args.workload + "-seed" +
                                   std::to_string(args.seed) + ".json";
    std::string context =
        "{\"workload\": " + json_str(args.workload) + ", \"seed\": " + std::to_string(args.seed) +
        ", \"seconds\": " + num(args.seconds) + ", \"trace\": " + std::to_string(args.trace) +
        ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
        ", \"cpu_model\": " + json_str(cpu_model()) + ", \"compiler\": " + json_str(compiler()) +
        ", \"build_type\": " + json_str(PERF_BUILD_TYPE) +
        ", \"pool_threads\": " + std::to_string(tvbf::hardware_threads()) +
        ", \"git_commit\": " + json_str(env_or_unknown("PERF_GIT_COMMIT")) +
        ", \"source_digest\": " + json_str(env_or_unknown("PERF_SOURCE_DIGEST"));
    const Outcome outcome =
        args.trace == 0 ? end_to_end(spec, scene, refs, beamformer, args.seconds)
                        : per_layer(spec, scene, refs, beamformer, args.seconds, trace_path,
                                    context + "}");

    const std::vector<MetricDef> defs = args.trace == 0 ? kEndToEnd : per_layer_defs();
    std::string samples, metrics;
    for (const MetricDef& d : defs) {
      const Figure& m = outcome.metrics.at(d.name);
      const std::string sep = metrics.empty() ? "" : ", ";
      metrics += sep + json_str(d.name) + ": {\"value\": " + num(m.value) +
                 ", \"unit\": " + json_str(d.unit) + "}";
      samples += sep + json_str(d.name) + ": " + std::to_string(m.samples);
    }
    if (args.trace == 1) context += ", \"trace_file\": " + json_str(trace_path);
    std::printf("{\"context\": %s, \"samples\": {%s}}}\n", context.c_str(), samples.c_str());
    for (const std::string& e : outcome.errors) std::fprintf(stderr, "FAIL: %s\n", e.c_str());
    const bool correct = outcome.failed == 0 && outcome.errors.empty();
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}\n",
                correct ? "true" : "false", static_cast<long long>(outcome.attempted),
                static_cast<long long>(outcome.failed), metrics.c_str());
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tvbf_perf: %s\n", e.what());
    return 1;
  }
}
