// Output checks of the benchmark. Each returns an empty string when the
// property holds and a description of the first violation otherwise. They
// test properties the method must have, or compare with values the
// benchmark computes itself from the generated inputs; none compares with
// a stored copy of earlier output. selftest.cpp feeds each a corrupted
// result.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/invocation.hpp"
#include "trace/workload.hpp"

namespace fbbench::checks {

/// Every one of `expected` invocations has exactly one record, which
/// reached a terminal outcome, and that outcome is completion.
std::string all_completed(const std::vector<faasbatch::core::InvocationRecord>& records,
                          std::size_t expected);

/// arrival <= dispatched <= exec_start <= exec_end on every completed record.
std::string stamps_ordered(const std::vector<faasbatch::core::InvocationRecord>& records);

/// Body duration of invocation `index` as generated (per-event duration,
/// else the function's characteristic duration), in simulated time.
faasbatch::SimDuration body_duration(const faasbatch::trace::Workload& workload,
                                     std::size_t index);

/// Each completed execution lasts at least its body duration, within one
/// tick of the simulator's microsecond clock.
std::string exec_covers_body(const std::vector<faasbatch::core::InvocationRecord>& records,
                             const faasbatch::trace::Workload& workload);

/// Core-seconds of CPU the workload's bodies demand: CPU-kind bodies run
/// on one core for their duration.
double body_cpu_core_s(const faasbatch::trace::Workload& workload);

/// lower <= busy <= cores * makespan (seconds).
std::string busy_within(double busy_core_s, double lower_core_s, double cores,
                        faasbatch::SimTime makespan);

/// (window, function) groups the Invoke Mapper forms from the arrivals: a
/// window opens at the first arrival after the previous one closed and
/// takes every arrival up to and including open + window.
std::size_t mapper_groups(const faasbatch::trace::Workload& workload,
                          faasbatch::SimDuration window);

/// FaaSBatch places one group in one container: containers <= groups.
std::string containers_within_groups(std::uint64_t containers, std::size_t groups);

/// The multiplexer builds a client at most once per (container, argument
/// hash): creations <= containers * distinct hashes.
std::string creations_bounded(std::uint64_t creations, std::uint64_t containers,
                              std::size_t distinct_hashes);

/// Distinct client-argument hashes of the functions invoked in `workload`.
std::size_t distinct_client_hashes(const faasbatch::trace::Workload& workload);

// ---- live ---------------------------------------------------------------

/// fib(n) computed iteratively, independent of the program's recursive one.
std::uint64_t fib_iterative(int n);

/// A caller-observed time cannot be shorter than the program's total_ms.
std::string observed_not_faster(double observed_ms, double total_ms);

/// The handler's own run time (stamped inside it) fits inside exec_ms.
std::string handler_within_exec(double handler_ms, double exec_ms);

/// Every request index ran its handler exactly once.
std::string ran_once(const std::vector<std::uint32_t>& runs);

}  // namespace fbbench::checks
