// nsbench: the netsubspec benchmark program.
//
//   nsbench --workload <paper-cold|family-scale|serve-warm> --seed N
//           --seconds S --trace <0|1> --netsubspec PATH --out-dir DIR
//   nsbench --self-test
//
// Prints, as its last stdout line, one JSON object with `correct`,
// `attempted`, `failed` and `metrics`: the end-to-end metrics with
// --trace 0, the per-layer metrics of the traced run with --trace 1
// (a metric that has no layer call on the workload reads 0; the README
// lists which apply where).
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"

namespace {

using nsbench::Outcome;
using nsbench::RunOptions;

/// Every per-layer metric, in output order, with its unit.
const std::pair<const char*, const char*> kPerLayer[] = {
    {"synth.synthesize_ms", "ms"},      {"synth.encode_ms", "ms"},
    {"synth.seed_constraints", "count"}, {"synth.seed_size", "count"},
    {"explain.symbolize_ms", "ms"},     {"simplify.fixpoint_ms", "ms"},
    {"simplify.passes", "count"},       {"simplify.rule_hits", "count"},
    {"simplify.out_size", "count"},     {"explain.eliminate_ms", "ms"},
    {"explain.residual_size", "count"}, {"explain.lift_prefix_ms", "ms"},
    {"explain.lift_candidates", "count"}, {"explain.arena_build_ms", "ms"},
    {"explain.arena_hit_ms", "ms"},     {"explain.arena_reuse_ratio", "ratio"},
    {"explain.lift_suffix_ms", "ms"},   {"explain.compile_ms", "ms"},
    {"explain.assemble_ms", "ms"},
    {"explain.candidates_compiled", "count"},
    {"explain.compile_hit_ratio", "ratio"},
    {"explain.lift_complete_ratio", "ratio"},
    {"explain.render_ms", "ms"},        {"smt.queries", "count"},
    {"smt.z3_queries", "count"},        {"smt.solver_ms", "ms"},
    {"smt.fast_path_hit_ratio", "ratio"}, {"smt.frozen_nodes", "count"},
    {"smt.overlay_nodes", "count"},     {"serve.hit_ms_p50", "ms"},
    {"serve.miss_ms_p50", "ms"},        {"serve.miss_ms_p99", "ms"},
    {"serve.transport_ms_p50", "ms"},   {"serve.cache_hit_ratio", "ratio"},
    {"serve.cache_evictions", "count"}, {"trace.unaccounted_ms", "ms"},
    {"trace.overhead_ms", "ms"},
};

const std::pair<const char*, const char*> kEndToEnd[] = {
    {"setup_s", "s"},
    {"answers_per_s", "1/s"},
    {"answer_ms_p50", "ms"},
    {"peak_rss_mb", "MB"},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "nsbench: %s\nusage: nsbench --workload W --seed N --seconds S "
               "--trace 0|1 --netsubspec PATH --out-dir DIR\n"
               "       nsbench --self-test\n",
               why);
  return 2;
}

/// The result line, with the mode's metrics in canonical order.
void PrintResult(const RunOptions& options, const Outcome& outcome) {
  ns::util::Json metrics = ns::util::Json::MakeObject();
  auto emit = [&](const char* name, const char* unit) {
    double value = 0;
    for (const auto& [key, entry] : outcome.metrics) {
      if (key == name) value = entry;
    }
    ns::util::Json metric = ns::util::Json::MakeObject();
    metric.Set("value", value);
    metric.Set("unit", unit);
    metrics.Set(name, std::move(metric));
  };
  if (options.trace) {
    for (const auto& [name, unit] : kPerLayer) emit(name, unit);
  } else {
    for (const auto& [name, unit] : kEndToEnd) emit(name, unit);
  }
  ns::util::Json result = ns::util::Json::MakeObject();
  result.Set("correct", outcome.correct());
  result.Set("attempted", static_cast<std::int64_t>(outcome.attempted));
  result.Set("failed", static_cast<std::int64_t>(outcome.failed));
  result.Set("metrics", std::move(metrics));
  std::printf("%s\n", result.Dump(0).c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  ns::util::SetLogLevel(ns::util::LogLevel::kWarn);
  RunOptions options;
  bool trace_set = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") return nsbench::RunSelfTest();
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
      trace_set = true;
    } else if (flag == "--netsubspec") {
      options.netsubspec = value;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!trace_set || options.out_dir.empty()) {
    return Usage("--trace and --out-dir are required");
  }
  if (!(options.seconds > 0)) return Usage("--seconds must be positive");

  Outcome outcome;
  int status = 0;
  if (options.workload == "paper-cold") {
    status = nsbench::RunPaperCold(options, outcome);
  } else if (options.workload == "family-scale") {
    status = nsbench::RunFamilyScale(options, outcome);
  } else if (options.workload == "serve-warm") {
    if (options.netsubspec.empty()) {
      return Usage("serve-warm needs --netsubspec");
    }
    status = nsbench::RunServeWarm(options, outcome);
  } else {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }
  if (status != 0) return status;
  for (const std::string& error : outcome.errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", error.c_str());
  }
  PrintResult(options, outcome);
  return 0;
}
