// fbbench: runs one benchmark workload and prints one JSON line.
//
//   fbbench --workload <sim-paper|sim-cluster|live-invoke|live-http>
//           --seed N --seconds S --trace 0|1
//           [--cluster-mode push|pull] [--capacity N] [--crash-rate R]
//   fbbench --workload http-probe     (server fault probes)
//   fbbench --selftest                (checks reject corrupted results)
//
// With --trace 1 the workload runs twice, each for half of --seconds:
// once untraced and once with spans recorded around every call into the
// program. The traced half gives the per-layer figures; the difference in
// CPU per invocation between the halves is reported as the tracing
// overhead. perfbench/run.py builds this binary, adds the gprof profile
// and prints the benchmark's result line.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.hpp"

namespace {

void print_json_string(const std::string& s) {
  std::putchar('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      std::printf("\\%c", c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::printf("\\u%04x", c);
    } else {
      std::putchar(c);
    }
  }
  std::putchar('"');
}

void print_number(double v) {
  if (std::isfinite(v)) {
    std::printf("%.17g", v);
  } else {
    std::printf("null");
  }
}

void print_result(const fbbench::Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  for (const auto& [name, metric] : r.metrics) {
    std::printf("%s", first ? "" : ", ");
    first = false;
    print_json_string(name);
    std::printf(": {\"value\": ");
    print_number(metric.value);
    std::printf(", \"unit\": ");
    print_json_string(metric.unit);
    std::printf("}");
  }
  std::printf("}, \"detail\": {");
  first = true;
  for (const auto& [name, value] : r.detail) {
    std::printf("%s", first ? "" : ", ");
    first = false;
    print_json_string(name);
    std::printf(": ");
    print_number(value);
  }
  std::printf("}, \"error\": ");
  print_json_string(r.error);
  std::printf("}\n");
  std::fflush(stdout);
}

fbbench::Result run_workload(const fbbench::Options& options) {
  const std::string& w = options.workload;
  if (w == "sim-paper") return fbbench::run_sim_paper(options);
  if (w == "sim-cluster") return fbbench::run_sim_cluster(options);
  if (w == "live-invoke") return fbbench::run_live_invoke(options);
  if (w == "live-http") return fbbench::run_live_http(options);
  if (w == "http-probe") return fbbench::run_http_probe(options);
  std::fprintf(stderr, "fbbench: unknown workload '%s'\n", w.c_str());
  std::exit(2);
}

int usage() {
  std::fprintf(stderr,
               "usage: fbbench --workload W --seed N --seconds S --trace 0|1 "
               "[--cluster-mode push|pull] [--capacity N] [--crash-rate R] | --selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  fbbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") return fbbench::run_selftest();
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--cluster-mode") {
      options.cluster_mode = value;
    } else if (arg == "--crash-rate") {
      options.crash_rate = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--capacity") {
      options.capacity = std::strtoull(value.c_str(), nullptr, 10);
    } else {
      return usage();
    }
  }
  if (options.workload.empty() || !(options.seconds > 0.0)) return usage();

  if (!options.trace) {
    fbbench::Result result = run_workload(options);
    result.set("peak_rss_mib", fbbench::peak_rss_mib(), "MiB");
    print_result(result);
    if (!result.correct) std::fprintf(stderr, "fbbench: %s\n", result.error.c_str());
    return 0;
  }

  fbbench::Options half = options;
  half.seconds = options.seconds / 2.0;
  const fbbench::Result plain = run_workload(half);
  fbbench::Spans& spans = fbbench::Spans::instance();
  spans.enable(true);
  fbbench::Result traced = run_workload(half);
  spans.enable(false);
  traced.correct = traced.correct && plain.correct;
  if (traced.error.empty()) traced.error = plain.error;
  traced.attempted += plain.attempted;
  traced.failed += plain.failed;
  const double base = plain.metrics.at("cpu_us_per_inv").value;
  traced.set("trace.overhead_pct",
             100.0 * (traced.metrics.at("cpu_us_per_inv").value / base - 1.0), "%");
  traced.set("trace.spans", static_cast<double>(spans.count()), "count");
  traced.set("trace.synth_s", spans.total_s("trace.synthesize_workload"), "s");
  spans.write(".bench_build/spans/" + options.workload + "-" + std::to_string(options.seed) +
              ".json");
  print_result(traced);
  if (!traced.correct) std::fprintf(stderr, "fbbench: %s\n", traced.error.c_str());
  return 0;
}
