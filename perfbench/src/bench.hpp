// Shared pieces of the fbbench program: run options, the result every
// workload fills, the span recorder of the traced run, and process
// statistics read from getrusage and /proc/self.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace fbbench {

using SteadyClock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// sim-cluster overrides for the reference figures in README.md.
  std::string cluster_mode = "pull";
  std::size_t capacity = 0;  // 0 = the workload's default
  double crash_rate = 0.0;
};

/// One metric as printed: value and unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// First failed check, for the error stream.
  std::string error;
  std::map<std::string, Metric> metrics;
  /// Informational figures printed on their own line before the result.
  std::map<std::string, double> detail;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records a failed check; the first message is kept.
  void fail(const std::string& message) {
    if (correct) error = message;
    correct = false;
  }
};

/// Seconds since the process started (first static initialiser).
double since_process_start_s();

double seconds_between(SteadyClock::time_point a, SteadyClock::time_point b);

/// Linear-interpolated quantile of `values` (sorted in place), q in [0, 1].
double quantile(std::vector<double>& values, double q);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// Process CPU time (user + system) in seconds.
double process_cpu_s();
/// CPU time of the calling thread in seconds. Time the hypervisor takes
/// the vCPU away (steal) does not count, unlike wall-clock time.
double thread_cpu_s();
/// Peak resident set size in MiB.
double peak_rss_mib();

/// Sum over /proc/self/task/*/schedstat: time on CPU and time waiting on
/// a run queue, in milliseconds. Threads that already exited are gone.
struct SchedStat {
  double oncpu_ms = 0.0;
  double runq_wait_ms = 0.0;
};
SchedStat read_schedstat();

// ---- spans (traced run only) --------------------------------------------

/// In-memory span recorder around the benchmark's calls into the program.
/// Off in measured runs; begin()/end() then cost one branch. Thread-safe;
/// a span's parent is the innermost span still open on the same thread.
class Spans {
 public:
  static Spans& instance();

  void enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Opens a span; returns its index (or -1 when disabled).
  int begin(const char* name);
  void end(int index);

  /// Sum and list of durations (seconds) of the spans named `name`.
  double total_s(const std::string& name) const;
  std::vector<double> durations_s(const std::string& name) const;
  std::size_t count() const { return spans_.size(); }

  /// Writes every span as a Chrome trace_event JSON array.
  void write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Scoped span around one call into the program.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : index_(Spans::instance().begin(name)) {}
  ~ScopedSpan() { Spans::instance().end(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int index_;
};

// ---- workloads ----------------------------------------------------------

Result run_sim_paper(const Options& options);
Result run_sim_cluster(const Options& options);
Result run_live_invoke(const Options& options);
Result run_live_http(const Options& options);
/// Probes of the HTTP server faults listed in CHANGES.md (not a workload).
Result run_http_probe(const Options& options);
/// Feeds each output check a corrupted result; fails if one accepts it.
int run_selftest();

}  // namespace fbbench
