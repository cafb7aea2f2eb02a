// sim-paper and sim-cluster: the discrete-event substrate.
//
// Both repeat whole rounds of identical simulations until --seconds of host
// time have passed. The simulated statistics come from the first round;
// every later round must reproduce them exactly (the program's
// determinism contract), and the host-side figures are medians over rounds.
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "cluster/cluster.hpp"
#include "cluster/dispatch_plane.hpp"
#include "common/hash.hpp"
#include "eval/experiment.hpp"
#include "sim/simulator.hpp"
#include "trace/workload.hpp"

namespace fbbench {
namespace {

namespace fb = faasbatch;
using fb::core::InvocationRecord;

/// Sub-seed for input `part` of a run seeded `seed`.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t part) {
  return fb::ArgsHasher()
      .add("seed", std::to_string(seed))
      .add("part", std::to_string(part))
      .digest();
}

/// Simulated latency components of completed records, in ms.
struct Components {
  std::vector<double> total, sched, cold, queue, exec;

  void add(const std::vector<InvocationRecord>& records) {
    for (const InvocationRecord& r : records) {
      if (!r.completed) continue;
      const fb::metrics::LatencyBreakdown b = r.breakdown();
      total.push_back(fb::to_millis(r.exec_end - r.arrival));
      sched.push_back(fb::to_millis(b.scheduling));
      cold.push_back(fb::to_millis(b.cold_start));
      queue.push_back(fb::to_millis(b.queuing));
      exec.push_back(fb::to_millis(b.execution));
    }
  }

  void report(Result& out) {
    const auto both = [&out](const std::string& name, std::vector<double>& v) {
      out.set(name + ".p50", quantile(v, 0.50), "ms");
      out.set(name + ".p99", quantile(v, 0.99), "ms");
    };
    both("sim.sched_ms", sched);
    both("sim.queue_ms", queue);
    both("sim.exec_ms", exec);
    both("sim.cold_start_ms", cold);
  }
};

/// FNV-style fold of every record's stamps: equal folds mean two runs
/// simulated the same history.
std::uint64_t fold_records(const std::vector<InvocationRecord>& records,
                           std::uint64_t h = 1469598103934665603ull) {
  const auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ull; };
  for (const InvocationRecord& r : records) {
    mix(static_cast<std::uint64_t>(r.dispatched));
    mix(static_cast<std::uint64_t>(r.cold_start));
    mix(static_cast<std::uint64_t>(r.exec_start));
    mix(static_cast<std::uint64_t>(r.exec_end));
    mix(static_cast<std::uint64_t>(r.outcome));
  }
  return h;
}

void check(Result& out, const std::string& where, const std::string& error) {
  if (!error.empty()) out.fail(where + ": " + error);
}

/// Checks shared by every simulated run; an invocation that did not
/// complete counts as a failed operation.
void check_records(Result& out, const std::string& where,
                   const std::vector<InvocationRecord>& records,
                   const fb::trace::Workload& workload) {
  for (const InvocationRecord& r : records) {
    if (r.outcome != fb::core::Outcome::kCompleted) ++out.failed;
  }
  if (records.size() < workload.events.size()) {
    out.failed += workload.events.size() - records.size();
  }
  check(out, where, checks::all_completed(records, workload.events.size()));
  check(out, where, checks::stamps_ordered(records));
  check(out, where, checks::exec_covers_body(records, workload));
}

// ---- sim-paper ------------------------------------------------------------

/// Azure-shaped minutes per run (each a CPU minute and an I/O minute).
constexpr std::size_t kPaperMinutes = 40;

struct PaperInput {
  std::string name;
  fb::trace::Workload workload;
  std::unordered_map<fb::FunctionId, double> kraken_slo_ms;
  std::size_t groups = 0;
  std::size_t client_hashes = 0;
  double body_cpu_core_s = 0.0;
};

constexpr fb::schedulers::SchedulerKind kSchedulers[] = {
    fb::schedulers::SchedulerKind::kVanilla, fb::schedulers::SchedulerKind::kKraken,
    fb::schedulers::SchedulerKind::kSfs, fb::schedulers::SchedulerKind::kFaasBatch};
constexpr const char* kSchedulerNames[] = {"vanilla", "kraken", "sfs", "faasbatch"};

/// Per-scheduler simulated figures of the first pass over the minutes.
struct PaperFigures {
  Components components;
  std::uint64_t containers = 0;
  std::uint64_t cold_starts = 0;
  std::uint64_t warm_hits = 0;
  std::uint64_t client_creations = 0;
  double memory_mib_sum = 0.0;
};

}  // namespace

Result run_sim_paper(const Options& options) {
  Result out;
  Spans& spans = Spans::instance();
  const fb::eval::ExperimentSpec base;  // one 32-core worker, 0.2 s window
  std::vector<PaperInput> inputs;
  for (std::size_t m = 0; m < kPaperMinutes; ++m) {
    for (const bool io : {false, true}) {
      fb::trace::WorkloadSpec spec;
      spec.kind = io ? fb::trace::FunctionKind::kIo : fb::trace::FunctionKind::kCpuIntensive;
      spec.invocations = io ? 400 : 800;
      spec.seed = sub_seed(options.seed, 2 * m + (io ? 1 : 0));
      PaperInput input;
      input.name = std::string(io ? "io" : "cpu") + std::to_string(m);
      {
        ScopedSpan span("trace.synthesize_workload");
        input.workload = fb::trace::synthesize_workload(spec);
      }
      {
        // Kraken's SLOs are an input of the Kraken run (the paper's
        // porting rule: P98 of a Vanilla calibration run).
        ScopedSpan span("eval.derive_kraken_slos");
        input.kraken_slo_ms = fb::eval::derive_kraken_slos(base, input.workload);
      }
      input.groups = checks::mapper_groups(input.workload,
                                           base.scheduler_options.dispatch_window);
      input.client_hashes = checks::distinct_client_hashes(input.workload);
      input.body_cpu_core_s = checks::body_cpu_core_s(input.workload);
      inputs.push_back(std::move(input));
    }
  }
  out.set("setup_s", since_process_start_s(), "s");

  // A round is one minute (its CPU and its I/O input) through all four
  // schedulers. The first pass over every minute gives the simulated
  // figures; later rounds cycle through the minutes again and must
  // reproduce their first pass exactly. Host figures are medians over
  // rounds, so a stretch of a run in which the host ran slow moves them
  // less than it moves a total.
  const std::size_t minutes = inputs.size() / 2;
  std::vector<PaperFigures> figures(4);
  std::vector<std::uint64_t> first_fold(inputs.size() * 4);
  std::vector<std::uint64_t> first_containers(inputs.size() * 4);
  std::vector<double> round_cpu_us, round_ips;
  double sim_s_total = 0.0;
  const auto start = SteadyClock::now();
  std::uint64_t simulated = 0;
  for (std::size_t r = 0;; ++r) {
    const std::size_t minute = r % minutes;
    const double cpu0 = process_cpu_s();
    double thread_s = 0.0;
    std::uint64_t in_round = 0;
    for (std::size_t i = 2 * minute; i < 2 * minute + 2; ++i) {
      const PaperInput& input = inputs[i];
      for (std::size_t k = 0; k < 4; ++k) {
        fb::eval::ExperimentSpec spec = base;
        spec.scheduler = kSchedulers[k];
        spec.scheduler_options.kraken_slo_ms = input.kraken_slo_ms;
        const auto t0 = SteadyClock::now();
        const double thread0 = thread_cpu_s();
        fb::eval::ExperimentResult result;
        {
          ScopedSpan span("eval.run_experiment");
          result = fb::eval::run_experiment(spec, input.workload);
        }
        thread_s += thread_cpu_s() - thread0;
        sim_s_total += seconds_between(t0, SteadyClock::now());
        in_round += input.workload.events.size();

        const std::string where = input.name + "/" + kSchedulerNames[k];
        check_records(out, where, result.records, input.workload);
        const double lower = input.body_cpu_core_s +
                             static_cast<double>(result.client_creations) *
                                 spec.client_model.creation_cpu_seconds;
        check(out, where,
              checks::busy_within(result.busy_core_seconds, lower,
                                  spec.runtime.machine_cores, result.makespan));
        if (kSchedulers[k] == fb::schedulers::SchedulerKind::kFaasBatch) {
          check(out, where,
                checks::containers_within_groups(result.containers_provisioned,
                                                 input.groups));
          check(out, where,
                checks::creations_bounded(result.client_creations,
                                          result.containers_provisioned,
                                          input.client_hashes));
        }
        const std::uint64_t fold = fold_records(result.records);
        const std::size_t slot = 4 * i + k;
        if (r < minutes) {
          PaperFigures& f = figures[k];
          f.components.add(result.records);
          f.containers += result.containers_provisioned;
          f.cold_starts += result.cold_starts;
          f.warm_hits += result.warm_hits;
          f.client_creations += result.client_creations;
          f.memory_mib_sum += result.memory_avg_mib;
          first_fold[slot] = fold;
          first_containers[slot] = result.containers_provisioned;
        } else if (fold != first_fold[slot] ||
                   result.containers_provisioned != first_containers[slot]) {
          out.fail("round " + std::to_string(r + 1) + " of " + where +
                   " differs from its first pass");
        }
      }
    }
    simulated += in_round;
    const double n = static_cast<double>(in_round);
    round_cpu_us.push_back((process_cpu_s() - cpu0) / n * 1e6);
    round_ips.push_back(n / thread_s);
    if (!out.correct) break;
    if (r + 1 >= minutes && seconds_between(start, SteadyClock::now()) >= options.seconds) {
      break;
    }
  }

  out.attempted = simulated;
  const double inputs_n = static_cast<double>(inputs.size());
  for (std::size_t k = 0; k < 4; ++k) {
    PaperFigures& f = figures[k];
    const std::string name = kSchedulerNames[k];
    out.detail[name + ".p50_ms"] = quantile(f.components.total, 0.50);
    out.detail[name + ".p99_ms"] = quantile(f.components.total, 0.99);
    out.detail[name + ".containers"] = static_cast<double>(f.containers);
    out.detail[name + ".memory_mib"] = f.memory_mib_sum / inputs_n;
  }
  out.detail["rounds"] = static_cast<double>(round_ips.size());
  PaperFigures& fb_figures = figures[3];
  out.set("ips", median(round_ips), "1/s");
  out.set("cpu_us_per_inv", median(round_cpu_us), "us");
  out.set("mean_ms", mean(fb_figures.components.total), "ms");
  out.set("lat.p50_ms", quantile(fb_figures.components.total, 0.50), "ms");
  out.set("p99_ms", quantile(fb_figures.components.total, 0.99), "ms");
  out.set("containers", static_cast<double>(fb_figures.containers), "count");
  out.set("memory_mib", fb_figures.memory_mib_sum / inputs_n, "MiB");
  if (spans.enabled()) {
    fb_figures.components.report(out);
    // Host time of one whole pass over the minutes.
    out.set("sim.run_s", sim_s_total * static_cast<double>(minutes) /
                               static_cast<double>(round_ips.size()),
            "s");
    out.set("runtime.cold_starts", static_cast<double>(fb_figures.cold_starts), "count");
    out.set("runtime.warm_hits", static_cast<double>(fb_figures.warm_hits), "count");
    out.set("sim.client_creations", static_cast<double>(fb_figures.client_creations),
            "count");
  }
  return out;
}

// ---- sim-cluster ------------------------------------------------------------

namespace {

constexpr std::size_t kClusterWorkers = 16;
constexpr std::size_t kClusterInvocations = 200'000;
/// Bounded, yet above what the hot keys need at this load: a binding
/// capacity (8) builds backlogs whose drain time depends on the seed far
/// beyond any usable bound (README.md, reference figures).
constexpr std::size_t kClusterCapacity = 64;
/// Horizon sized for a mean offered CPU well below the cluster's cores
/// (the run prints the figure as detail.offered_cpu).
constexpr fb::SimDuration kClusterHorizon = 1800 * fb::kSecond;

fb::cluster::ClusterSpec cluster_spec(const Options& options) {
  namespace cl = fb::cluster;
  cl::ClusterSpec spec;
  spec.workers = kClusterWorkers;
  spec.balancer = cl::BalancerKind::kFunctionAffinity;
  spec.mode = options.cluster_mode == "push" ? cl::SchedulingMode::kPush
                                             : cl::SchedulingMode::kPull;
  spec.pull.worker_capacity = options.capacity ? options.capacity : kClusterCapacity;
  spec.pull.pull_batch = 32;
  spec.pull.steal.min_victim_backlog = 4;
  spec.pull.steal.steal_fraction = 0.5;
  spec.pull.steal.max_steal = 16;
  spec.worker_spec.scheduler = fb::schedulers::SchedulerKind::kFaasBatch;
  // No worker faults by default: with any crash or stall plan tried, some
  // seeds leave an invocation failed after every retry (see CHANGES.md).
  // --crash-rate reproduces that.
  if (options.crash_rate > 0.0) {
    spec.detector.scan_interval = 500 * fb::kMillisecond;
    spec.detector.suspect_after = 3 * fb::kSecond;
    spec.detector.confirm_window = 2 * fb::kSecond;
    spec.worker_spec.fault_plan.seed = sub_seed(options.seed, 1000);
    spec.worker_spec.fault_plan.worker_crash_rate = options.crash_rate;
    spec.worker_spec.fault_plan.worker_stall_multiplier = 1.0;
    spec.worker_spec.fault_plan.worker_restart_latency = 2 * fb::kSecond;
  }
  return spec;
}

struct ClusterRound {
  std::unique_ptr<fb::sim::Simulator> sim;
  std::unique_ptr<fb::cluster::DispatchPlane> plane;
};

ClusterRound build_cluster(const fb::cluster::ClusterSpec& spec,
                           const fb::trace::Workload& workload) {
  ScopedSpan span("cluster.build");
  ClusterRound round;
  round.sim = std::make_unique<fb::sim::Simulator>();
  {
    ScopedSpan ctor("cluster.DispatchPlane");
    round.plane = std::make_unique<fb::cluster::DispatchPlane>(*round.sim, spec, workload);
  }
  {
    ScopedSpan start("cluster.DispatchPlane::start");
    round.plane->start();
  }
  return round;
}

}  // namespace

Result run_sim_cluster(const Options& options) {
  Result out;
  Spans& spans = Spans::instance();
  fb::trace::WorkloadSpec wspec;
  wspec.kind = fb::trace::FunctionKind::kCpuIntensive;
  wspec.invocations = kClusterInvocations;
  wspec.horizon = kClusterHorizon;
  wspec.num_functions = 64;
  wspec.hot_fraction = 0.2;
  wspec.hot_mass = 0.9;
  // One short burst per second on average: Azure-shaped burstiness that
  // a 16-worker plane absorbs without a backlog that outlives the burst.
  wspec.bursts.mean_bursts = fb::to_seconds(wspec.horizon);
  wspec.seed = sub_seed(options.seed, 0);
  fb::trace::Workload workload;
  {
    ScopedSpan span("trace.synthesize_workload");
    workload = fb::trace::synthesize_workload(wspec);
  }
  const fb::cluster::ClusterSpec spec = cluster_spec(options);
  const double body_core_s = checks::body_cpu_core_s(workload);
  const double cores = spec.worker_spec.runtime.machine_cores * kClusterWorkers;
  out.detail["offered_cpu"] = body_core_s / (fb::to_seconds(wspec.horizon) * cores);

  // A round builds a plane, runs it to the end and destroys it; the
  // first plane is built during set-up. Host figures are medians over
  // rounds: a round's process CPU (its build included) per invocation,
  // and invocations per CPU second of the simulating thread in run() and
  // finish().
  auto build_start = SteadyClock::now();
  double build_cpu0 = process_cpu_s();
  ClusterRound round = build_cluster(spec, workload);
  double build_cpu_s = process_cpu_s() - build_cpu0;
  std::vector<double> build_times{seconds_between(build_start, SteadyClock::now())};
  out.set("setup_s", since_process_start_s(), "s");

  std::vector<double> round_ips, round_cpu_us, run_s, finish_s;
  std::uint64_t first_fold = 0;
  fb::SimTime first_makespan = 0;
  std::uint64_t events = 0;
  const auto start = SteadyClock::now();
  std::uint64_t simulated = 0;
  for (std::size_t r = 0;; ++r) {
    if (!round.plane) {
      build_start = SteadyClock::now();
      build_cpu0 = process_cpu_s();
      round = build_cluster(spec, workload);
      build_cpu_s = process_cpu_s() - build_cpu0;
      build_times.push_back(seconds_between(build_start, SteadyClock::now()));
    }
    const double cpu0 = process_cpu_s();
    const double thread0 = thread_cpu_s();
    const auto t0 = SteadyClock::now();
    {
      ScopedSpan span("sim.Simulator::run");
      round.sim->run();
    }
    const auto t1 = SteadyClock::now();
    fb::cluster::ClusterResult result;
    {
      ScopedSpan span("cluster.DispatchPlane::finish");
      result = round.plane->finish();
    }
    const auto t2 = SteadyClock::now();
    const double n = static_cast<double>(workload.events.size());
    run_s.push_back(seconds_between(t0, t1));
    finish_s.push_back(seconds_between(t1, t2));
    round_ips.push_back(n / (thread_cpu_s() - thread0));
    simulated += workload.events.size();
    events = round.sim->processed_events();

    const std::vector<InvocationRecord>& records = round.plane->records();
    const std::string where = "cluster round " + std::to_string(r + 1);
    check_records(out, where, records, workload);
    std::size_t routed = 0;
    double busy_core_s = 0.0;
    const double worker_cores = spec.worker_spec.runtime.machine_cores;
    for (const fb::cluster::WorkerResult& w : result.workers) {
      routed += w.routed;
      busy_core_s += w.cpu_utilization * worker_cores * fb::to_seconds(result.makespan);
    }
    // Utilisation covers a worker's final incarnation only, so the busy
    // time adds up to all the work only when no worker restarted.
    if (options.crash_rate == 0.0) {
      check(out, where, checks::busy_within(busy_core_s, body_core_s, cores, result.makespan));
    }
    // Records do not say which worker ran them, so the Invoke Mapper's
    // groups cannot be recomputed per worker: one container per dispatch
    // at most.
    check(out, where, checks::containers_within_groups(result.total_containers(), routed));
    const std::uint64_t fold =
        fold_records(records, result.chaos_fingerprint ^ result.transfer.fingerprint());
    if (r == 0) {
      first_fold = fold;
      first_makespan = result.makespan;
      Components components;
      components.add(records);
      out.set("mean_ms", mean(components.total), "ms");
      out.set("lat.p50_ms", quantile(components.total, 0.50), "ms");
      out.set("p99_ms", quantile(components.total, 0.99), "ms");
      out.set("containers", static_cast<double>(result.total_containers()), "count");
      double memory = 0.0;
      for (const auto& w : result.workers) memory += w.memory_avg_mib;
      out.set("memory_mib", memory, "MiB");
      out.detail["makespan_s"] = fb::to_seconds(result.makespan);
      out.detail["busy_over_work"] = busy_core_s / body_core_s;
      out.detail["re_dispatched"] = static_cast<double>(result.re_dispatched);
      out.detail["requeued"] = static_cast<double>(result.transfer.requeued);
      out.detail["worker_crashes"] = static_cast<double>(result.fault_stats.worker_crashes);
      if (spans.enabled()) {
        components.report(out);
        out.set("sim.events", static_cast<double>(events), "count");
        out.set("cluster.pulls", static_cast<double>(result.transfer.pulls), "count");
        out.set("cluster.steals", static_cast<double>(result.transfer.steals), "count");
        out.set("cluster.stolen", static_cast<double>(result.transfer.stolen), "count");
        out.set("cluster.routing_imbalance", result.routing_imbalance(), "ratio");
      }
    } else if (fold != first_fold || result.makespan != first_makespan) {
      out.fail(where + ": differs from round 1");
    }
    round = ClusterRound{};
    round_cpu_us.push_back((build_cpu_s + process_cpu_s() - cpu0) / n * 1e6);
    if (!out.correct || seconds_between(start, SteadyClock::now()) >= options.seconds) break;
  }
  out.attempted = simulated;
  out.detail["rounds"] = static_cast<double>(round_ips.size());
  out.set("ips", median(round_ips), "1/s");
  out.set("cpu_us_per_inv", median(round_cpu_us), "us");
  if (spans.enabled()) {
    const double run = median(run_s);
    out.set("sim.run_s", run, "s");
    out.set("sim.events_per_s", static_cast<double>(events) / run, "1/s");
    out.set("cluster.build_s", median(build_times), "s");
    out.set("cluster.finish_s", median(finish_s), "s");
  }
  return out;
}

}  // namespace fbbench

