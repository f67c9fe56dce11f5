// KGRec benchmark program.
//
//   kgbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           --work-dir <dir> --trace-path <file>
//
// Runs one workload, prints the phase accounting, the correctness checks
// and every metric with its unit, then, as the last line of stdout, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end metrics (tracing off); with
// --trace 1 they are the per-layer metrics of a traced run, which also
// writes its spans to --trace-path. The metric names and units here are
// the ones BENCHMARK.json lists; kgbench/run.py checks that they agree.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "core/mem_stats.h"
#include "harness.h"

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},
    {"ok_frac", "frac"},
    {"throughput_per_s", "1/s"},
    {"p50_ms", "ms"},
};

// Printed, not in the result line: on the shared reference host a
// tail percentile of the serving workloads moved 2-5x between runs of
// the same code, so it cannot carry a bound.
constexpr MetricDef kUnbounded[] = {
    {"tail_ms", "ms"},
};

constexpr MetricDef kPerLayer[] = {
    {"loadgen.lag_p99_ms", "ms"},
    {"router.submit_us_p50", "us"},
    {"router.sojourn_ms_p50", "ms"},
    {"router.sojourn_ms_p99", "ms"},
    {"router.self_ms_p50", "ms"},
    {"router.coalesce_ratio", "frac"},
    {"router.batch_mean", "count"},
    {"router.rejected", "count"},
    {"router.swap_ms_p50", "ms"},
    {"handle.recommend_us_p50", "us"},
    {"handle.score_items_us_p50", "us"},
    {"handle.adopt_ms", "ms"},
    {"retrieval.query_us_p50", "us"},
    {"retrieval.fill_query_us_p50", "us"},
    {"retrieval.rows_per_query", "count"},
    {"retrieval.scan_bytes_per_query", "bytes"},
    {"model.score_us_per_candidate", "us"},
    {"model.update_ms_p50", "ms"},
    {"model.fit_s", "s"},
    {"serialize.save_ms_p50", "ms"},
    {"serialize.load_ms_p50", "ms"},
    {"serialize.checkpoint_bytes", "bytes"},
    {"data.world_s", "s"},
    {"data.apply_batch_ms_p50", "ms"},
    {"trainer.speedup_4t", "x"},
    {"trainer.param_floats", "count"},
    {"trace.overhead_p50_ms", "ms"},
    {"trace.overhead_throughput_frac", "frac"},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "kgbench: %s\nusage: kgbench --workload "
               "{recommend_scan|score_coalesce|stream_update|train_cfkg} "
               "--seed N --seconds S --trace {0|1} --work-dir DIR "
               "--trace-path FILE\n",
               why);
  return 2;
}

/// JSON has no infinity; a latency that is +inf (requests that never
/// completed) prints as the largest double, which every bound rejects.
double JsonSafe(double v) {
  if (std::isfinite(v)) return v;
  return v > 0 ? std::numeric_limits<double>::max()
               : std::numeric_limits<double>::lowest();
}

}  // namespace

int main(int argc, char** argv) {
  kgbench::Options options;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
      have_trace = true;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--trace-path") {
      options.trace_path = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1 || options.workload.empty() || !have_trace ||
      options.work_dir.empty() || options.trace_path.empty() ||
      !(options.seconds > 0.0)) {
    return Usage("missing or malformed arguments");
  }

  kgbench::Report report;
  bool ran = false;
  if (options.workload == "recommend_scan") {
    ran = kgbench::RunRecommendScan(options, &report);
  } else if (options.workload == "score_coalesce") {
    ran = kgbench::RunScoreCoalesce(options, &report);
  } else if (options.workload == "stream_update") {
    ran = kgbench::RunStreamUpdate(options, &report);
  } else if (options.workload == "train_cfkg") {
    ran = kgbench::RunTrainCfkg(options, &report);
  } else {
    return Usage(("unknown workload " + options.workload).c_str());
  }
  if (!ran) {
    std::fprintf(stderr, "kgbench: %s could not set up\n",
                 options.workload.c_str());
    return 1;
  }
  report.Set("peak_rss_mib",
             static_cast<double>(kgrec::PeakRssBytes()) / (1024.0 * 1024.0));
  const uint64_t attempted = report.attempted();
  const uint64_t failed = report.failed();
  report.Set("ok_frac",
             attempted > 0 ? static_cast<double>(attempted - failed) /
                                 static_cast<double>(attempted)
                           : 0.0);

  std::printf("workload %s  seed %llu  seconds %g  trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  report.PrintTables();

  const auto& metrics = report.metrics();
  auto print_table = [&](const char* title, const auto& defs) {
    std::printf("%s\n", title);
    for (const MetricDef& def : defs) {
      auto it = metrics.find(def.name);
      if (it == metrics.end()) {
        std::printf("  %-32s %18s %s\n", def.name, "(layer not called)",
                    def.unit);
      } else {
        std::printf("  %-32s %18.6f %s\n", def.name, it->second, def.unit);
      }
    }
  };
  print_table("end-to-end metrics", kEndToEnd);
  print_table("unbounded end-to-end figures", kUnbounded);
  if (options.trace) print_table("per-layer metrics (traced run)", kPerLayer);

  // End-to-end metrics are measured on every workload; a per-layer
  // metric of a layer the workload never calls reads 0.
  std::string json_metrics;
  auto emit = [&](const auto& defs, bool required) {
    for (const MetricDef& def : defs) {
      auto it = metrics.find(def.name);
      if (it == metrics.end() && required) {
        std::fprintf(stderr, "kgbench: %s did not measure %s\n",
                     options.workload.c_str(), def.name);
        return false;
      }
      const double value = it == metrics.end() ? 0.0 : JsonSafe(it->second);
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    json_metrics.empty() ? "" : ", ", def.name, value,
                    def.unit);
      json_metrics += buf;
    }
    return true;
  };
  if (!(options.trace ? emit(kPerLayer, false) : emit(kEndToEnd, true))) {
    return 1;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              report.correct() ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), json_metrics.c_str());
  return 0;
}
