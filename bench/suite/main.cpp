// Measured host-wall benchmark suite (see README.md).
//
//   taser_suite --workload <train-taser|train-mixer|serve-read|serve-ingest>
//               --seed <n> [--seconds <s>] [--trace <0|1>] [--result <path>]
//   taser_suite --sweep [--seed <n>]
//
// Prints every metric of the mode as `name value unit`, then one JSON line
// {"correct", "attempted", "failed", "metrics"} (last line of stdout), and
// writes the full result (all measured values, checks, fingerprints) as
// JSON to --result (default .bench_build/results/<workload>-seed<n>[-trace].json).
// Exits non-zero when any correctness check fails.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <thread>

#if defined(__SSE__)
#include <xmmintrin.h>
#endif

#include "obs/export.h"
#include "workloads.h"

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json ("end_to_end" / "per_layer").
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"}, {"peak_rss_mb", "MB"}, {"p50_ms", "ms"}, {"rate_per_s", "1/s"},
};

constexpr MetricDef kPerLayer[] = {
    {"sampling.nf_s", "s"},
    {"sampling.nf_ms", "ms"},
    {"cache.fs_s", "s"},
    {"cache.hit_ratio", "ratio"},
    {"core.build_s", "s"},
    {"core.build_ms.p50", "ms"},
    {"core.build_ms.p90", "ms"},
    {"core.as_fwd_s", "s"},
    {"core.as_bwd_s", "s"},
    {"core.overlap_ratio", "ratio"},
    {"models.fwd_s", "s"},
    {"models.bwd_s", "s"},
    {"nn.adam_s", "s"},
    {"tensor.gflop", "GFLOP"},
    {"tensor.gflops", "GFLOP/s"},
    {"tensor.launches", "count"},
    {"serve.p95_ms", "ms"},
    {"serve.p99_ms", "ms"},
    {"serve.session.forward_ms", "ms"},
    {"serve.session.forward_ms.b64", "ms"},
    {"serve.engine.batch_size.mean", "count"},
    {"serve.engine.p95_ms", "ms"},
    {"serve.engine.submit_us.p95", "us"},
    {"serve.slo_qps", "1/s"},
    {"serve.epoch.publish_ms.p50", "ms"},
    {"serve.epoch.publish_ms.p95", "ms"},
    {"serve.epoch.publish_ms.solo", "ms"},
    {"serve.epoch.publishes", "count"},
    {"serve.epoch.events_per_publish", "count"},
    {"serve.epoch.compactions", "count"},
    {"ingest.visible_p50_ms", "ms"},
    {"ingest.visible_p95_ms", "ms"},
    {"harness.gen_late_p99_ms", "ms"},
    {"harness.backlog_end", "count"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.dropped_spans", "count"},
    {"trace.unaccounted_ratio", "ratio"},
    {"train.epoch_p95_ms", "ms"},
    {"train.sim_s", "s"},
    {"train.val_mrr", "ratio"},
    {"train.eval_s", "s"},
};

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: taser_suite --workload <train-taser|train-mixer|serve-read|"
               "serve-ingest> --seed <n> [--seconds <s>] [--trace <0|1>] [--result <path>]\n"
               "       taser_suite --sweep [--seed <n>]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#if defined(__SSE__)
  // Denormal floats in the training math make host time depend on the
  // seed and the epoch: without flush-to-zero one train-taser epoch took
  // 2.9 s or 8.1 s on the same machine. The suite flushes them, as ML
  // runtimes commonly do on CPU. Set before any thread starts: threads
  // (std::thread and the OpenMP team) inherit the mode.
  constexpr unsigned kFlushToZero = 0x8000, kDenormalsAreZero = 0x0040;
  _mm_setcsr(_mm_getcsr() | kFlushToZero | kDenormalsAreZero);
#endif
  suite::Options opt;
  bool sweep = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--sweep") {
      sweep = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    if (arg == "--workload") {
      opt.workload = val;
    } else if (arg == "--seed") {
      char* end = nullptr;
      opt.seed = std::strtoull(val.c_str(), &end, 10);
      if (val.empty() || *end != '\0') return usage("--seed takes a whole number");
    } else if (arg == "--seconds") {
      char* end = nullptr;
      opt.seconds = std::strtod(val.c_str(), &end);
      if (val.empty() || *end != '\0') return usage("--seconds takes a number");
    } else if (arg == "--trace") {
      if (val != "0" && val != "1") return usage("--trace takes 0 or 1");
      opt.trace = val == "1";
    } else if (arg == "--result") {
      opt.result_path = val;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (sweep) {
    suite::sweep_train(opt.seed);
    suite::sweep_serve(opt.seed);
    return 0;
  }
  if (!(opt.seconds > 0)) return usage("--seconds must be positive");
  suite::Result res;
  if (suite::is_train_workload(opt.workload)) {
    res = suite::run_train(opt);
  } else if (suite::is_serve_workload(opt.workload)) {
    res = suite::run_serve(opt);
  } else {
    return usage(("unknown workload '" + opt.workload + "'").c_str());
  }

  using taser::obs::json_quote;
  // Appends `"key": value` to the body of a JSON object.
  auto add = [](std::string& body, const std::string& key, const std::string& value) {
    body += (body.empty() ? "" : ", ") + json_quote(key) + ": " + value;
  };
  const std::span<const MetricDef> defs = opt.trace ? std::span<const MetricDef>(kPerLayer)
                                                    : std::span<const MetricDef>(kEndToEnd);
  std::string metrics;
  for (const MetricDef& m : defs) {
    // Every workload measures every end-to-end metric; a per-layer metric
    // of a layer the workload does not run reads 0.
    const double value = res.get(m.name);
    res.check(std::string("metric.") + m.name,
              (opt.trace || res.has(m.name)) && std::isfinite(value));
    std::printf("%s %s %s\n", m.name, number(value).c_str(), m.unit);
    add(metrics, m.name,
        "{\"value\": " + number(value) + ", \"unit\": " + json_quote(m.unit) + "}");
  }
  const bool correct = res.all_checks_pass();
  for (const auto& [name, ok] : res.checks)
    if (!ok) std::fprintf(stderr, "check failed: %s\n", name.c_str());
  const std::string head = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                           ", \"attempted\": " + std::to_string(res.attempted) +
                           ", \"failed\": " + std::to_string(res.failed) + ", \"metrics\": {" +
                           metrics + "}";

  // Full record: every measured value (including ones outside the mode's
  // metric list), the checks, the bit fingerprints and the environment.
  std::string values, checks, prints;
  for (const auto& [name, value] : res.values) add(values, name, number(value));
  for (const auto& [name, ok] : res.checks) add(checks, name, ok ? "true" : "false");
  for (const auto& [name, bits] : res.fingerprints) add(prints, name, json_quote(bits));
  auto env = [](const char* name) {
    const char* v = std::getenv(name);
    return json_quote(v != nullptr ? v : "");
  };
  const std::string record =
      head + ", \"workload\": " + json_quote(opt.workload) +
      ", \"seed\": " + std::to_string(opt.seed) + ", \"trace\": " + (opt.trace ? "1" : "0") +
      ", \"seconds\": " + number(opt.seconds) + ", \"omp_num_threads\": " +
      env("OMP_NUM_THREADS") + ", \"malloc_arena_max\": " + env("MALLOC_ARENA_MAX") +
      ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"values\": {" + values + "}, \"checks\": {" + checks + "}, \"fingerprints\": {" +
      prints + "}}";
  const std::string path =
      !opt.result_path.empty()
          ? opt.result_path
          : ".bench_build/results/" + opt.workload + "-seed" + std::to_string(opt.seed) +
                (opt.trace ? "-trace" : "") + ".json";
  if (!suite::ensure_parent_dir(path) || !taser::obs::write_file(path, record + "\n"))
    std::fprintf(stderr, "warning: cannot write result file %s\n", path.c_str());

  std::printf("%s}\n", head.c_str());
  return correct ? 0 : 1;
}
