#include "checks.hpp"

#include <algorithm>
#include <set>

namespace fbbench::checks {

using faasbatch::SimDuration;
using faasbatch::SimTime;
using faasbatch::core::InvocationRecord;
using faasbatch::core::Outcome;

namespace {

/// Clock tolerance of the live checks: both times come from
/// steady_clock, but through different subtractions.
constexpr double kLiveEpsilonMs = 0.001;

std::string at(std::size_t index, const std::string& what) {
  return "invocation " + std::to_string(index) + ": " + what;
}

}  // namespace

std::string all_completed(const std::vector<InvocationRecord>& records,
                          std::size_t expected) {
  if (records.size() != expected) {
    return std::to_string(records.size()) + " records for " +
           std::to_string(expected) + " invocations";
  }
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].id != i) return at(i, "record carries id " + std::to_string(records[i].id));
    if (records[i].outcome != Outcome::kCompleted || !records[i].completed) {
      return at(i, "did not complete");
    }
  }
  return {};
}

std::string stamps_ordered(const std::vector<InvocationRecord>& records) {
  for (std::size_t i = 0; i < records.size(); ++i) {
    const InvocationRecord& r = records[i];
    if (!r.completed) continue;
    if (!(r.arrival <= r.dispatched && r.dispatched <= r.exec_start &&
          r.exec_start <= r.exec_end)) {
      return at(i, "stamps out of order (arrival " + std::to_string(r.arrival) +
                       ", dispatched " + std::to_string(r.dispatched) +
                       ", exec " + std::to_string(r.exec_start) + ".." +
                       std::to_string(r.exec_end) + ")");
    }
  }
  return {};
}

SimDuration body_duration(const faasbatch::trace::Workload& workload,
                          std::size_t index) {
  const faasbatch::trace::TraceEvent& event = workload.events[index];
  const double ms = event.duration_ms > 0.0
                        ? event.duration_ms
                        : workload.functions[event.function].duration_ms;
  return faasbatch::from_millis(ms);
}

std::string exec_covers_body(const std::vector<InvocationRecord>& records,
                             const faasbatch::trace::Workload& workload) {
  for (std::size_t i = 0; i < records.size(); ++i) {
    const InvocationRecord& r = records[i];
    if (!r.completed) continue;
    const SimDuration body = body_duration(workload, i);
    if (r.exec_end - r.exec_start + 1 < body) {
      return at(i, "executed " + std::to_string(r.exec_end - r.exec_start) +
                       " us for a " + std::to_string(body) + " us body");
    }
  }
  return {};
}

double body_cpu_core_s(const faasbatch::trace::Workload& workload) {
  double total = 0.0;
  for (std::size_t i = 0; i < workload.events.size(); ++i) {
    if (workload.functions[workload.events[i].function].kind ==
        faasbatch::trace::FunctionKind::kCpuIntensive) {
      total += faasbatch::to_seconds(body_duration(workload, i));
    }
  }
  return total;
}

std::string busy_within(double busy_core_s, double lower_core_s, double cores,
                        SimTime makespan) {
  // Durations are whole microseconds, so sums may differ in the last bits.
  const double slack = 1e-6 * std::max(1.0, lower_core_s);
  if (busy_core_s + slack < lower_core_s) {
    return "busy " + std::to_string(busy_core_s) + " core-s below the " +
           std::to_string(lower_core_s) + " core-s of work";
  }
  const double capacity = cores * faasbatch::to_seconds(makespan);
  if (busy_core_s > capacity + slack) {
    return "busy " + std::to_string(busy_core_s) + " core-s above the " +
           std::to_string(capacity) + " core-s the cores offer";
  }
  return {};
}

std::size_t mapper_groups(const faasbatch::trace::Workload& workload,
                          SimDuration window) {
  std::size_t groups = 0;
  std::size_t i = 0;
  const auto& events = workload.events;
  while (i < events.size()) {
    const SimTime close = events[i].arrival + window;
    std::set<faasbatch::FunctionId> functions;
    for (; i < events.size() && events[i].arrival <= close; ++i) {
      functions.insert(events[i].function);
    }
    groups += functions.size();
  }
  return groups;
}

std::string containers_within_groups(std::uint64_t containers, std::size_t groups) {
  if (containers > groups) {
    return std::to_string(containers) + " containers for " +
           std::to_string(groups) + " (window, function) groups";
  }
  return {};
}

std::string creations_bounded(std::uint64_t creations, std::uint64_t containers,
                              std::size_t distinct_hashes) {
  if (creations > containers * distinct_hashes) {
    return std::to_string(creations) + " client creations for " +
           std::to_string(containers) + " containers x " +
           std::to_string(distinct_hashes) + " argument hashes";
  }
  return {};
}

std::size_t distinct_client_hashes(const faasbatch::trace::Workload& workload) {
  std::set<std::uint64_t> hashes;
  for (const auto& event : workload.events) {
    const auto& function = workload.functions[event.function];
    if (function.kind == faasbatch::trace::FunctionKind::kIo) {
      hashes.insert(function.client_args_hash);
    }
  }
  return hashes.size();
}

std::uint64_t fib_iterative(int n) {
  std::uint64_t a = 0;
  std::uint64_t b = 1;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t next = a + b;
    a = b;
    b = next;
  }
  return a;
}

std::string observed_not_faster(double observed_ms, double total_ms) {
  if (observed_ms + kLiveEpsilonMs < total_ms) {
    return "observed " + std::to_string(observed_ms) + " ms, shorter than total_ms " +
           std::to_string(total_ms);
  }
  return {};
}

std::string handler_within_exec(double handler_ms, double exec_ms) {
  if (handler_ms > exec_ms + kLiveEpsilonMs) {
    return "handler ran " + std::to_string(handler_ms) + " ms, longer than exec_ms " +
           std::to_string(exec_ms);
  }
  return {};
}

std::string ran_once(const std::vector<std::uint32_t>& runs) {
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (runs[i] != 1) {
      return "request " + std::to_string(i) + " ran its handler " +
             std::to_string(runs[i]) + " times";
    }
  }
  return {};
}

}  // namespace fbbench::checks
