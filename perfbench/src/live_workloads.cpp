// live-invoke and live-http: the real-thread substrate, FaaSBatch policy.
//
// The benchmark registers its own handlers (fib and storage I/O bodies
// equal to the program's, plus a stamp of which request ran, when and with
// what result), so it can check every output after the run. Requests carry
// their index and input in the payload: "<index>|<fib n>" or
// "<index>|<object bytes>".

#include <algorithm>
#include <cmath>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "common/hash.hpp"
#include "http/client.hpp"
#include "live/functions.hpp"
#include "live/http_gateway.hpp"
#include "live/live_platform.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics_registry.hpp"

namespace fbbench {
namespace {

namespace fb = faasbatch;
namespace live = faasbatch::live;

double ms_between(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// What the benchmark's handlers saw, one slot per request index.
struct HandlerLog {
  explicit HandlerLog(std::size_t n)
      : runs(n), fib_result(n), handler_ms(n), invocation_id(n) {}
  std::vector<std::atomic<std::uint32_t>> runs;
  std::vector<std::atomic<std::uint64_t>> fib_result;
  std::vector<std::atomic<double>> handler_ms;
  std::vector<std::atomic<std::uint64_t>> invocation_id;

  /// Parses "<index>|rest" and counts the run; returns the index and rest.
  std::size_t begin(const std::string& payload, std::string_view& rest) {
    const std::size_t bar = payload.find('|');
    const std::size_t index = std::stoull(payload.substr(0, bar));
    rest = std::string_view(payload).substr(bar + 1);
    runs.at(index).fetch_add(1, std::memory_order_relaxed);
    return index;
  }
};

std::uint64_t account_hash(const std::string& account) {
  return fb::ArgsHasher().add("service", "s3").add("account", account).digest();
}

live::FunctionHandler fib_handler(HandlerLog& log) {
  return [&log](live::FunctionContext& ctx) {
    const auto start = SteadyClock::now();
    std::string_view rest;
    const std::size_t index = log.begin(ctx.payload, rest);
    const int n = std::stoi(std::string(rest));
    log.fib_result[index].store(live::fib(n), std::memory_order_relaxed);
    log.invocation_id[index].store(ctx.invocation_id, std::memory_order_relaxed);
    log.handler_ms[index].store(ms_between(start, SteadyClock::now()),
                                std::memory_order_relaxed);
  };
}

/// The paper's I/O body (Listing 1): a storage client through the
/// container's multiplexer, then one put and one get of the request's
/// object under "req/<index>".
live::FunctionHandler io_handler(HandlerLog& log, std::string account) {
  return [&log, account = std::move(account)](live::FunctionContext& ctx) {
    const auto start = SteadyClock::now();
    std::string_view rest;
    const std::size_t index = log.begin(ctx.payload, rest);
    const std::uint64_t hash = account_hash(account);
    auto client = ctx.mux.get_or_create<fb::storage::StorageClient>(
        "s3_client", hash, [&ctx, hash]() { return ctx.clients.create(hash); });
    const std::string key = "req/" + std::to_string(index);
    client->put(key, std::string(rest));
    (void)client->get(key);
    log.invocation_id[index].store(ctx.invocation_id, std::memory_order_relaxed);
    log.handler_ms[index].store(ms_between(start, SteadyClock::now()),
                                std::memory_order_relaxed);
  };
}

/// Resident bytes the platform's containers and storage clients hold.
double platform_memory_mib(const live::LivePlatform& platform) {
  const live::LivePlatformOptions& o = platform.options();
  return static_cast<double>(platform.containers_created()) *
             fb::to_mib(o.container.base_memory_bytes) +
         static_cast<double>(platform.client_creations()) *
             fb::to_mib(o.client_factory.client_buffer_bytes);
}

void report_dispatch(Result& out, const live::LivePlatform& platform) {
  const live::DispatchStats stats = platform.dispatch_stats();
  double windows = 0, enqueued = 0, overflow = 0, stolen = 0;
  for (const auto& shard : stats.shard_stats) {
    windows += static_cast<double>(shard.windows);
    enqueued += static_cast<double>(shard.enqueued);
    overflow += static_cast<double>(shard.overflow);
    stolen += static_cast<double>(shard.stolen);
  }
  out.set("dispatch.windows", windows, "count");
  out.set("dispatch.batch_mean", windows > 0 ? enqueued / windows : 0.0, "count");
  out.set("dispatch.overflow", overflow, "count");
  out.set("dispatch.stolen", stolen, "count");
}

void report_p50_p99(Result& out, const std::string& name, std::vector<double> v,
                    const std::string& unit) {
  out.set(name + ".p50", quantile(v, 0.50), unit);
  out.set(name + ".p99", quantile(v, 0.99), unit);
}

// ---- live-invoke --------------------------------------------------------------

/// Offered rate, requests per second: well below where a backlog grows on
/// a 4-core host (the run prints live.gen_late_ms as a guard).
constexpr double kInvokeRate = 400.0;
constexpr std::size_t kFibFunctions = 8;
constexpr std::size_t kIoFunctions = 4;

struct InvokeInput {
  std::size_t function = 0;
  int n = 0;  // fib input; 0 for I/O
  std::string payload;
};

}  // namespace

Result run_live_invoke(const Options& options) {
  Result out;
  Spans& spans = Spans::instance();
  std::mt19937_64 rng(options.seed);
  const std::size_t functions = kFibFunctions + kIoFunctions;

  const auto total = static_cast<std::size_t>(kInvokeRate * options.seconds);
  HandlerLog log(total);
  live::LivePlatformOptions popts;
  popts.policy = live::LivePolicy::kFaasBatch;
  std::unique_ptr<live::LivePlatform> platform;
  {
    ScopedSpan span("live.LivePlatform");
    platform = std::make_unique<live::LivePlatform>(popts);
  }
  std::vector<std::string> names(functions);
  for (std::size_t f = 0; f < functions; ++f) {
    names[f] = (f < kFibFunctions ? "fib" : "io") + std::to_string(f);
    ScopedSpan span("live.register_function");
    platform->register_function(
        names[f], f < kFibFunctions ? fib_handler(log)
                                    : io_handler(log, "account" + std::to_string(f)));
  }
  // Set-up is the program's: the platform and its functions. The inputs
  // are the benchmark's own and are generated after.
  out.set("setup_s", since_process_start_s(), "s");

  // Zipf(1.1) popularity over the functions, in a seeded order.
  std::vector<std::size_t> order(functions);
  for (std::size_t i = 0; i < functions; ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), rng);
  std::vector<double> weights(functions);
  for (std::size_t rank = 0; rank < functions; ++rank) {
    weights[order[rank]] = 1.0 / std::pow(static_cast<double>(rank + 1), 1.1);
  }
  std::discrete_distribution<std::size_t> pick(weights.begin(), weights.end());
  std::vector<int> fib_base(kFibFunctions);
  // Short bodies (fib 12..18 runs in microseconds), so the platform's own
  // work dominates each invocation.
  for (int& n : fib_base) n = 12 + static_cast<int>(rng() % 5);

  std::vector<InvokeInput> inputs(total);
  for (std::size_t i = 0; i < total; ++i) {
    InvokeInput& in = inputs[i];
    in.function = pick(rng);
    if (in.function < kFibFunctions) {
      in.n = fib_base[in.function] + static_cast<int>(rng() % 3);
      in.payload = std::to_string(i) + "|" + std::to_string(in.n);
    } else {
      // A seeded letter run of 64..256 bytes, tagged with the index.
      const std::string tag = "obj" + std::to_string(i) + ":";
      in.payload = std::to_string(i) + "|" + tag +
                   std::string(64 + rng() % 193, static_cast<char>('a' + rng() % 26));
    }
  }

  // One generator thread sends at the fixed rate; one collector thread
  // waits for the futures in order.
  std::vector<std::future<live::InvocationReport>> futures(total);
  std::vector<SteadyClock::time_point> submitted(total);
  std::vector<double> late_ms(total), from_due_ms(total), observed_ms(total);
  std::vector<live::InvocationReport> reports(total);
  std::vector<double> invoke_us;
  invoke_us.reserve(spans.enabled() ? total : 0);
  std::mutex mutex;
  std::condition_variable published_cv;
  std::size_t published = 0;

  const double cpu0 = process_cpu_s();
  const SchedStat sched0 = read_schedstat();
  const auto t0 = SteadyClock::now() + std::chrono::milliseconds(5);
  const auto period = std::chrono::duration<double>(1.0 / kInvokeRate);
  std::thread collector([&] {
    for (std::size_t j = 0; j < total; ++j) {
      {
        std::unique_lock<std::mutex> lock(mutex);
        published_cv.wait(lock, [&] { return published > j; });
      }
      reports[j] = futures[j].get();
      observed_ms[j] = ms_between(submitted[j], SteadyClock::now());
    }
  });
  for (std::size_t i = 0; i < total; ++i) {
    const auto due =
        t0 + std::chrono::duration_cast<SteadyClock::duration>(period * static_cast<double>(i));
    std::this_thread::sleep_until(due);
    const InvokeInput& in = inputs[i];
    submitted[i] = SteadyClock::now();
    late_ms[i] = ms_between(due, submitted[i]);
    const int span = spans.begin("live.LivePlatform::invoke");
    futures[i] = platform->invoke(names[in.function], in.payload);
    spans.end(span);
    if (span >= 0) invoke_us.push_back(ms_between(submitted[i], SteadyClock::now()) * 1e3);
    {
      std::lock_guard<std::mutex> lock(mutex);
      published = i + 1;
    }
    published_cv.notify_one();
  }
  collector.join();
  const auto t_end = SteadyClock::now();
  const double cpu_s = process_cpu_s() - cpu0;
  const SchedStat sched1 = read_schedstat();

  // ---- checks
  std::vector<double> queue_ms, exec_ms, handler_ms;
  std::vector<std::uint64_t> ids;
  std::size_t io_requests = 0;
  for (std::size_t i = 0; i < total; ++i) {
    const live::InvocationReport& r = reports[i];
    const std::string where = "request " + std::to_string(i) + ": ";
    if (!r.ok()) {
      ++out.failed;
      out.fail(where + "status " + std::to_string(static_cast<int>(r.status)));
      continue;
    }
    from_due_ms[i] = late_ms[i] + r.total_ms;
    const double h = log.handler_ms[i].load();
    if (auto e = checks::observed_not_faster(observed_ms[i], r.total_ms); !e.empty()) out.fail(where + e);
    if (auto e = checks::handler_within_exec(h, r.exec_ms); !e.empty()) out.fail(where + e);
    queue_ms.push_back(r.queue_ms);
    exec_ms.push_back(r.exec_ms);
    handler_ms.push_back(h);
    ids.push_back(log.invocation_id[i].load());
    const InvokeInput& in = inputs[i];
    if (in.function < kFibFunctions) {
      if (log.fib_result[i].load() != checks::fib_iterative(in.n)) {
        out.fail(where + "fib(" + std::to_string(in.n) + ") returned a wrong value");
      }
    } else {
      ++io_requests;
      const auto stored = platform->store().get("req/" + std::to_string(i));
      if (!stored || *stored != in.payload.substr(in.payload.find('|') + 1)) {
        out.fail(where + "object read back differs from the payload sent");
      }
    }
  }
  std::vector<std::uint32_t> runs(total);
  for (std::size_t i = 0; i < total; ++i) runs[i] = log.runs[i].load();
  if (auto e = checks::ran_once(runs); !e.empty()) out.fail(e);
  std::sort(ids.begin(), ids.end());
  if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
    out.fail("two requests ran under one invocation id");
  }

  out.attempted = total;
  out.set("ips", static_cast<double>(total) / seconds_between(t0, t_end), "1/s");
  out.set("mean_ms", mean(from_due_ms), "ms");
  out.set("lat.p50_ms", quantile(from_due_ms, 0.50), "ms");
  out.set("p99_ms", quantile(from_due_ms, 0.99), "ms");
  out.set("containers", static_cast<double>(platform->containers_created()), "count");
  out.set("memory_mib", platform_memory_mib(*platform), "MiB");
  out.set("cpu_us_per_inv", cpu_s / static_cast<double>(total) * 1e6, "us");
  if (spans.enabled()) {
    report_p50_p99(out, "live.invoke_us", invoke_us, "us");
    out.set("live.gen_late_ms.p99", quantile(late_ms, 0.99), "ms");
    report_p50_p99(out, "live.queue_ms", queue_ms, "ms");
    report_p50_p99(out, "live.exec_ms", exec_ms, "ms");
    report_p50_p99(out, "live.handler_ms", handler_ms, "ms");
    report_dispatch(out, *platform);
    out.set("live.client_creations", static_cast<double>(platform->client_creations()),
            "count");
    out.set("mux.io_inv_per_creation",
            static_cast<double>(io_requests) /
                std::max<double>(1.0, static_cast<double>(platform->client_creations())),
            "ratio");
    out.set("proc.oncpu_ms", sched1.oncpu_ms - sched0.oncpu_ms, "ms");
    out.set("proc.runq_wait_ms", sched1.runq_wait_ms - sched0.runq_wait_ms, "ms");
  }
  out.detail["gen_late_ms_p99"] = quantile(late_ms, 0.99);
  {
    ScopedSpan span("live.~LivePlatform");
    platform.reset();
  }
  return out;
}

// ---- live-http ----------------------------------------------------------------

namespace {

constexpr std::size_t kHttpClientsMax = 2;
/// Requests one client may send in a run (its index block).
constexpr std::size_t kHttpPerClient = 200'000;
/// Functions registered with the benchmark's stamping handler; the clients
/// cycle through them and the one registered over HTTP.
constexpr std::size_t kHttpStamped = 32;

/// Value of `"key": <number>` in a flat JSON reply; NaN when absent.
double json_number(const std::string& body, const std::string& key) {
  const std::size_t at = body.find("\"" + key + "\"");
  if (at == std::string::npos) return std::nan("");
  const std::size_t colon = body.find(':', at);
  return colon == std::string::npos ? std::nan("") : std::strtod(body.c_str() + colon + 1, nullptr);
}

struct ClientRecord {
  double sent_s = 0.0;  // since the clients started
  double rtt_ms = 0.0;
  double total_ms = 0.0;
  double exec_ms = 0.0;
  std::size_t index = 0;  // HandlerLog slot; SIZE_MAX for the builtin function
  int n = 0;
};

}  // namespace

Result run_live_http(const Options& options) {
  Result out;
  Spans& spans = Spans::instance();
  const std::size_t clients =
      std::min<std::size_t>(kHttpClientsMax, std::max(1u, std::thread::hardware_concurrency()));
  std::mt19937_64 rng(options.seed);
  // Per client, a cyclic list of fib inputs (short bodies: n in 10..14).
  std::vector<std::vector<int>> fib_inputs(clients, std::vector<int>(4096));
  for (auto& list : fib_inputs) {
    for (int& n : list) n = 10 + static_cast<int>(rng() % 5);
  }
  const int builtin_n = 10 + static_cast<int>(rng() % 5);

  HandlerLog log(clients * kHttpPerClient);
  live::LivePlatformOptions popts;
  popts.policy = live::LivePolicy::kFaasBatch;
  popts.window = std::chrono::milliseconds(1);
  auto platform = std::make_unique<live::LivePlatform>(popts);
  std::unique_ptr<live::HttpGateway> gateway;
  {
    ScopedSpan span("live.HttpGateway");
    gateway = std::make_unique<live::HttpGateway>(*platform);
  }
  // The gateway turns the process-wide recorders on; the benchmark
  // measures the serving path without them.
  fb::obs::metrics().set_enabled(false);
  fb::obs::flight().set_enabled(false);
  for (std::size_t f = 0; f < kHttpStamped; ++f) {
    platform->register_function("stamped" + std::to_string(f), fib_handler(log));
  }
  std::uint64_t sent = 0;
  {
    ScopedSpan span("http.Client");
    fb::http::Client admin(gateway->port());
    const fb::http::Response r =
        admin.post("/functions/builtin", "{\"type\":\"fib\",\"n\":" + std::to_string(builtin_n) + "}");
    ++sent;
    if (r.status != 200) out.fail("POST /functions returned " + std::to_string(r.status));
  }
  out.set("setup_s", since_process_start_s(), "s");

  std::vector<std::vector<ClientRecord>> records(clients);
  std::vector<std::string> errors(clients);
  // Requests answered with another status than 200, and clients whose
  // connection threw (that client stops; its last request counts as failed).
  std::vector<std::uint64_t> rejected(clients, 0);
  std::vector<bool> broken(clients, false);
  std::atomic<bool> stop{false};
  const double cpu0 = process_cpu_s();
  const SchedStat sched0 = read_schedstat();
  const auto t0 = SteadyClock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        std::unique_ptr<fb::http::Client> client;
        {
          ScopedSpan span("http.Client");
          client = std::make_unique<fb::http::Client>(gateway->port());
        }
        auto& mine = records[c];
        mine.reserve(65536);
        for (std::size_t k = 0; k < kHttpPerClient && !stop.load(std::memory_order_relaxed); ++k) {
          ClientRecord rec;
          rec.n = fib_inputs[c][k % fib_inputs[c].size()];
          const std::size_t function = (k + c) % (kHttpStamped + 1);
          std::string target = "/invoke/stamped" + std::to_string(function);
          std::string body;
          if (function == kHttpStamped) {
            target = "/invoke/builtin";
            rec.index = SIZE_MAX;
            rec.n = builtin_n;
          } else {
            rec.index = c * kHttpPerClient + k;
            body = std::to_string(rec.index) + "|" + std::to_string(rec.n);
          }
          const auto start = SteadyClock::now();
          fb::http::Response reply;
          {
            ScopedSpan span("http.Client::post");
            reply = client->post(target, std::move(body), "text/plain");
          }
          rec.rtt_ms = ms_between(start, SteadyClock::now());
          rec.sent_s = seconds_between(t0, start);
          if (reply.status != 200) {
            if (errors[c].empty()) errors[c] = target + " returned " + std::to_string(reply.status);
            ++rejected[c];
            continue;
          }
          rec.total_ms = json_number(reply.body, "total_ms");
          rec.exec_ms = json_number(reply.body, "exec_ms");
          mine.push_back(rec);
        }
        // Close the connection before the gateway is torn down: the server
        // joins connection threads still parked in recv().
        client.reset();
      } catch (const std::exception& e) {
        errors[c] = e.what();
        broken[c] = true;
      }
    });
  }
  std::this_thread::sleep_until(
      t0 + std::chrono::duration_cast<SteadyClock::duration>(
               std::chrono::duration<double>(options.seconds)));
  stop.store(true);
  for (std::thread& t : threads) t.join();
  const auto t_end = SteadyClock::now();
  const double cpu_s = process_cpu_s() - cpu0;
  const SchedStat sched1 = read_schedstat();

  // ---- checks
  std::vector<double> rtt, platform_total, overhead;
  std::vector<std::uint32_t> runs;
  std::vector<std::uint64_t> ids;
  std::uint64_t completed = 0;
  bool any_broken = false;
  for (std::size_t c = 0; c < clients; ++c) {
    if (!errors[c].empty()) out.fail("client " + std::to_string(c) + ": " + errors[c]);
    out.failed += rejected[c] + (broken[c] ? 1 : 0);
    any_broken = any_broken || broken[c];
    for (const ClientRecord& rec : records[c]) {
      ++completed;
      rtt.push_back(rec.rtt_ms);
      platform_total.push_back(rec.total_ms);
      overhead.push_back(rec.rtt_ms - rec.total_ms);
      if (auto e = checks::observed_not_faster(rec.rtt_ms, rec.total_ms); !e.empty()) out.fail(e);
      if (rec.index == SIZE_MAX) continue;
      runs.push_back(log.runs[rec.index].load());
      ids.push_back(log.invocation_id[rec.index].load());
      if (auto e = checks::handler_within_exec(log.handler_ms[rec.index].load(), rec.exec_ms);
          !e.empty()) {
        out.fail(e);
      }
      if (log.fib_result[rec.index].load() != checks::fib_iterative(rec.n)) {
        out.fail("fib(" + std::to_string(rec.n) + ") returned a wrong value");
      }
    }
  }
  if (auto e = checks::ran_once(runs); !e.empty()) out.fail(e);
  std::sort(ids.begin(), ids.end());
  if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
    out.fail("two requests ran under one invocation id");
  }
  // Rejected requests were served too; a broken connection leaves its
  // last request's fate unknown, and the run has already failed.
  for (const std::uint64_t r : rejected) sent += r;
  sent += completed;
  if (!any_broken && gateway->requests_served() != sent) {
    out.fail("gateway served " + std::to_string(gateway->requests_served()) + " requests, clients sent " +
             std::to_string(sent));
  }

  const double elapsed = seconds_between(t0, t_end);
  out.attempted = completed + out.failed;
  out.set("ips", static_cast<double>(completed) / elapsed, "1/s");
  out.set("mean_ms", mean(rtt), "ms");
  out.set("lat.p50_ms", quantile(rtt, 0.50), "ms");
  {
    // Typical-second p99: the p99 of each whole second's replies, then the
    // median over seconds. The p99 over all replies moves with the host's
    // steal time more than with the program (README.md), so it is only
    // printed as a detail.
    const auto seconds = std::max<std::size_t>(1, static_cast<std::size_t>(elapsed));
    std::vector<std::vector<double>> per_second(seconds);
    for (std::size_t c = 0; c < clients; ++c) {
      for (const ClientRecord& rec : records[c]) {
        const auto second = static_cast<std::size_t>(rec.sent_s);
        if (second < per_second.size()) per_second[second].push_back(rec.rtt_ms);
      }
    }
    std::vector<double> p99s;
    for (auto& v : per_second) p99s.push_back(quantile(v, 0.99));
    out.set("p99_ms", median(p99s), "ms");
  }
  out.detail["p99_all_ms"] = quantile(rtt, 0.99);
  out.set("containers", static_cast<double>(platform->containers_created()), "count");
  out.set("memory_mib", platform_memory_mib(*platform), "MiB");
  out.set("cpu_us_per_inv", cpu_s / static_cast<double>(std::max<std::uint64_t>(1, completed)) * 1e6,
          "us");
  if (spans.enabled()) {
    report_p50_p99(out, "http.platform_total_ms", platform_total, "ms");
    report_p50_p99(out, "http.overhead_ms", overhead, "ms");
    report_dispatch(out, *platform);
    out.set("proc.oncpu_ms", sched1.oncpu_ms - sched0.oncpu_ms, "ms");
    out.set("proc.runq_wait_ms", sched1.runq_wait_ms - sched0.runq_wait_ms, "ms");
  }
  out.detail["clients"] = static_cast<double>(clients);
  {
    ScopedSpan span("live.~HttpGateway");
    gateway.reset();
  }
  platform.reset();
  return out;
}

// ---- http-probe ----------------------------------------------------------------

namespace {

/// Virtual memory size of this process in MiB (VmSize, /proc/self/status).
double vm_size_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::strtod(line.c_str() + 7, nullptr) / 1024.0;
  }
  return 0.0;
}

}  // namespace

Result run_http_probe(const Options&) {
  Result out;
  live::LivePlatformOptions popts;
  popts.window = std::chrono::milliseconds(1);
  live::LivePlatform platform(popts);
  auto gateway = std::make_unique<live::HttpGateway>(platform);

  // Connections ever accepted keep their std::thread (and its stack) until
  // the server is destroyed: open and close a batch and watch VmSize.
  constexpr int kConnections = 64;
  const double vm0 = vm_size_mib();
  for (int i = 0; i < kConnections; ++i) {
    fb::http::Client client(gateway->port());
    if (client.get("/healthz").status != 200) out.fail("GET /healthz failed");
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  out.detail["vm_growth_mib_per_closed_connection"] = (vm_size_mib() - vm0) / kConnections;
  out.attempted = kConnections;

  // Tear the gateway down while one keep-alive client stays connected.
  auto idle = std::make_unique<fb::http::Client>(gateway->port());
  if (idle->get("/healthz").status != 200) out.fail("GET /healthz failed");
  std::atomic<bool> torn_down{false};
  const auto start = SteadyClock::now();
  std::thread teardown([&] {
    gateway.reset();
    torn_down.store(true);
  });
  while (!torn_down.load() && seconds_between(start, SteadyClock::now()) < 2.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  out.detail["teardown_blocked_by_idle_client"] = torn_down.load() ? 0.0 : 1.0;
  idle.reset();  // hanging up releases the blocked teardown
  teardown.join();
  out.detail["teardown_s"] = seconds_between(start, SteadyClock::now());
  out.set("setup_s", since_process_start_s(), "s");
  return out;
}

}  // namespace fbbench
