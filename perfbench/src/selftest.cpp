// Self-test of the output checks: each check must accept a genuine result
// and reject the same result with one defect planted in it.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "eval/experiment.hpp"
#include "live/functions.hpp"
#include "trace/workload.hpp"

namespace fbbench {
namespace {

namespace fb = faasbatch;
using Records = std::vector<fb::core::InvocationRecord>;

struct Case {
  std::string name;
  std::function<std::string()> genuine;
  std::function<std::string()> corrupted;
};

}  // namespace

int run_selftest() {
  fb::trace::WorkloadSpec spec;
  spec.invocations = 200;
  spec.seed = 7;
  const fb::trace::Workload workload = fb::trace::synthesize_workload(spec);
  const fb::eval::ExperimentSpec experiment;  // FaaSBatch
  const fb::eval::ExperimentResult result = fb::eval::run_experiment(experiment, workload);
  const std::size_t groups =
      checks::mapper_groups(workload, experiment.scheduler_options.dispatch_window);
  const double work = checks::body_cpu_core_s(workload);
  const double cores = experiment.runtime.machine_cores;

  const auto with = [&result](const std::function<void(Records&)>& plant) {
    Records records = result.records;
    plant(records);
    return records;
  };
  std::vector<Case> cases = {
      {"dropped completion",
       [&] { return checks::all_completed(result.records, workload.events.size()); },
       [&] {
         const Records r = with([](Records& v) {
           v[17].completed = false;
           v[17].outcome = fb::core::Outcome::kPending;
         });
         return checks::all_completed(r, workload.events.size());
       }},
      {"stamps out of order", [&] { return checks::stamps_ordered(result.records); },
       [&] {
         return checks::stamps_ordered(
             with([](Records& v) { v[3].dispatched = v[3].arrival - 1; }));
       }},
      {"execution shorter than its body",
       [&] { return checks::exec_covers_body(result.records, workload); },
       [&] {
         return checks::exec_covers_body(with([&workload](Records& v) {
                                           v[5].exec_end = v[5].exec_start +
                                                           checks::body_duration(workload, 5) / 2;
                                         }),
                                         workload);
       }},
      {"busy core-seconds below the work",
       [&] { return checks::busy_within(result.busy_core_seconds, work, cores, result.makespan); },
       [&] { return checks::busy_within(0.9 * work, work, cores, result.makespan); }},
      {"one container too many",
       [&] { return checks::containers_within_groups(result.containers_provisioned, groups); },
       [&] { return checks::containers_within_groups(groups + 1, groups); }},
      {"one client creation too many", [&] { return checks::creations_bounded(6, 3, 2); },
       [&] { return checks::creations_bounded(7, 3, 2); }},
      {"HTTP reply faster than its total_ms",
       [] { return checks::observed_not_faster(2.5, 2.4); },
       [] { return checks::observed_not_faster(2.3, 2.4); }},
      {"handler longer than exec_ms", [] { return checks::handler_within_exec(0.8, 0.9); },
       [] { return checks::handler_within_exec(1.0, 0.9); }},
      {"handler ran twice", [] { return checks::ran_once({1, 1, 1}); },
       [] { return checks::ran_once({1, 2, 1}); }},
      {"handler never ran", [] { return checks::ran_once({1, 1, 1}); },
       [] { return checks::ran_once({1, 0, 1}); }},
      {"wrong fib result",
       [] {
         return fb::live::fib(20) == checks::fib_iterative(20) ? std::string() : "fib(20) differs";
       },
       [] {
         return fb::live::fib(20) + 1 == checks::fib_iterative(20) ? std::string()
                                                                    : "fib(20) differs";
       }},
  };

  int failures = 0;
  for (const Case& c : cases) {
    const std::string genuine = c.genuine();
    const std::string corrupted = c.corrupted();
    const bool ok = genuine.empty() && !corrupted.empty();
    if (!ok) ++failures;
    std::printf("%-36s %s  (genuine: %s; corrupted: %s)\n", c.name.c_str(),
                ok ? "ok  " : "FAIL", genuine.empty() ? "accepted" : genuine.c_str(),
                corrupted.empty() ? "ACCEPTED" : "rejected");
  }
  std::printf("selftest: %d of %zu checks failed\n", failures, cases.size());
  return failures == 0 ? 0 : 1;
}

}  // namespace fbbench
