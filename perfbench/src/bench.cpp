#include "bench.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace fbbench {
namespace {

const SteadyClock::time_point g_process_start = SteadyClock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now().time_since_epoch())
      .count();
}

thread_local int t_open_span = -1;

}  // namespace

double since_process_start_s() {
  return seconds_between(g_process_start, SteadyClock::now());
}

double seconds_between(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double thread_cpu_s() {
  timespec t{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) / 1e9;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

SchedStat read_schedstat() {
  SchedStat total;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    std::ifstream in(entry.path() / "schedstat");
    std::uint64_t oncpu_ns = 0;
    std::uint64_t wait_ns = 0;
    if (in >> oncpu_ns >> wait_ns) {
      total.oncpu_ms += static_cast<double>(oncpu_ns) / 1e6;
      total.runq_wait_ms += static_cast<double>(wait_ns) / 1e6;
    }
  }
  return total;
}

Spans& Spans::instance() {
  static Spans spans;
  return spans;
}

int Spans::begin(const char* name) {
  if (!enabled_) return -1;
  const std::int64_t start = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, t_open_span, start, 0});
  t_open_span = static_cast<int>(spans_.size() - 1);
  return t_open_span;
}

void Spans::end(int index) {
  if (index < 0) return;
  const std::int64_t end = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end_ns = end;
  t_open_span = span.parent;
}

double Spans::total_s(const std::string& name) const {
  double total = 0.0;
  for (const double d : durations_s(name)) total += d;
  return total;
}

std::vector<double> Spans::durations_s(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name && span.end_ns >= span.start_ns) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e9);
    }
  }
  return out;
}

void Spans::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::filesystem::create_directories(std::filesystem::path(path).parent_path());
  std::ofstream out(path);
  out << "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << span.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << static_cast<double>(span.start_ns) / 1e3
        << ",\"dur\":" << static_cast<double>(span.end_ns - span.start_ns) / 1e3
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << span.parent << "}}";
  }
  out << "\n]\n";
}

}  // namespace fbbench
