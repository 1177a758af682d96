// Serving throughput/latency vs. worker count.
//
// A fixed replay workload — generated cascades streamed through concurrent
// sessions (create, appends with periodic mid-stream predicts, final
// predict, close) — is driven against PredictionService instances with 1,
// 2, 4, and 8 workers. Reports requests/sec, latency percentiles from the
// service's own histogram, and batching counters, as JSON on stdout.
//
//   ./bench_serve_throughput [--sessions=400] [--clients=8]
//                            [--workers_list=1,2,4,8]
//                            [--shards=2] [--tenants=2]
//                            [--debug_port=N]
//
// --debug_port=N (or CASCN_DEBUG_PORT) starts the live introspection server
// on 127.0.0.1 for the duration of the bench (0 = ephemeral port) and turns
// the cluster section into an introspection drill: all six debug endpoints
// are fetched while the healthy run is under load, then a deterministic
// slow-shard stall trips the watchdog and the bench CHECKs that the dump it
// wrote names the stalled request's trace id. Left unset, the bench instead
// emits the "serve/debug_off" guard row and CHECKs that no debug-server
// thread was ever started — introspection must cost nothing when off.
//
// Cluster scenarios (--shards >= 2; 0 disables): the same replay workload
// is driven through a cluster::ShardRouter — consistent-hash routed shards
// with admission control — producing per-shard rows, an aggregate
// "cluster/shards:N" row, and a "cluster/p99" guard row. A deterministic
// overload run follows: the "cluster.slow_shard.0" fault slows shard 0
// while 2x the sessions are offered; admission control must shed
// (ResourceExhausted, distinct from queue-full Unavailable) while the
// accepted-request p99 stays within 2x the healthy cluster baseline —
// checked in-process and guarded by the "cluster/overload_p99" row.
//
// Also writes the machine-readable BENCH_serve_throughput.json
// (obs/bench_report.h); --bench_out=PATH overrides its location. Each
// result row carries "benchmark" ("serve/workers:N") and "real_ns_per_iter"
// (ns per request) so tools/bench_guard.py can diff runs against the
// checked-in baseline, calibration-normalized on the 1-worker row.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/shard_router.h"
#include "common/cli_flags.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "data/cascade_generator.h"
#include "fault/fault.h"
#include "obs/bench_report.h"
#include "obs/debug_server.h"
#include "obs/shutdown.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "serve/checkpoint.h"
#include "serve/prediction_service.h"

namespace cascn::serve {
namespace {

constexpr double kWindow = 60.0;

std::vector<std::vector<AdoptionEvent>> MakeWorkload(int sessions) {
  GeneratorConfig config = WeiboLikeConfig();
  config.num_cascades = sessions * 2;
  config.user_universe = 500;
  config.max_size = 40;
  Rng rng(11);
  std::vector<std::vector<AdoptionEvent>> replays;
  for (const Cascade& cascade : GenerateCascades(config, rng)) {
    const Cascade prefix = cascade.Prefix(kWindow);
    if (prefix.size() < 3) continue;
    replays.push_back(prefix.events());
    if (static_cast<int>(replays.size()) == sessions) break;
  }
  return replays;
}

struct RunResult {
  double seconds = 0.0;
  uint64_t requests = 0;
  ServeMetrics::Snapshot snapshot;
};

/// Drives the replay workload. `predict_deadline_ms` > 0 attaches that
/// deadline to every async predict (the degraded-mode scenario); expired
/// predicts resolve with DeadlineExceeded, which the driver tolerates —
/// that is the degraded service surviving, not the benchmark failing.
RunResult RunWorkload(PredictionService& service,
                      const std::vector<std::vector<AdoptionEvent>>& replays,
                      int clients, double predict_deadline_ms = 0.0) {
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> drivers;
  for (int c = 0; c < clients; ++c) {
    drivers.emplace_back([&, c] {
      std::vector<size_t> mine;
      for (size_t i = static_cast<size_t>(c); i < replays.size();
           i += static_cast<size_t>(clients)) {
        mine.push_back(i);
        CASCN_CHECK(Wait(service.Submit(Request::Create(
                             "s" + std::to_string(i), replays[i][0].user)))
                        .status.ok());
      }
      // Round r appends event r to every session this client owns, then
      // fans the round's predictions out asynchronously: every session has
      // fresh events, so each predict is a real forward pass, and the
      // in-flight depth (one predict per live session) is what lets extra
      // workers help.
      std::vector<std::future<ServeResponse>> pending;
      bool progressed = true;
      for (size_t step = 1; progressed; ++step) {
        progressed = false;
        pending.clear();
        for (size_t i : mine) {
          if (step >= replays[i].size()) continue;
          progressed = true;
          const AdoptionEvent& event = replays[i][step];
          const std::string id = "s" + std::to_string(i);
          CASCN_CHECK(Wait(service.Submit(Request::Append(
                               id, event.user, event.parents[0], event.time)))
                          .status.ok());
          auto submitted =
              service.Submit(Request::Predict(id, predict_deadline_ms));
          CASCN_CHECK(submitted.ok()) << submitted.status();
          pending.push_back(std::move(submitted).value());
        }
        for (auto& future : pending) {
          const ServeResponse response = future.get();
          CASCN_CHECK(response.status.ok() ||
                      response.status.code() == StatusCode::kDeadlineExceeded)
              << response.status;
        }
      }
      for (size_t i : mine)
        CASCN_CHECK(
            Wait(service.Submit(Request::Close("s" + std::to_string(i))))
                .status.ok());
    });
  }
  for (auto& d : drivers) d.join();
  const auto end = std::chrono::steady_clock::now();

  RunResult result;
  result.seconds = std::chrono::duration<double>(end - start).count();
  result.snapshot = service.metrics().TakeSnapshot();
  result.requests = result.snapshot.counter(Counter::kRequestsTotal);
  return result;
}

struct ClusterRunResult {
  double seconds = 0.0;
  uint64_t requests = 0;            // accepted into shard queues
  uint64_t deadline_exceeded = 0;   // summed across shards
  uint64_t driver_shed = 0;         // ResourceExhausted seen by drivers
  uint64_t driver_unavailable = 0;  // queue-full Unavailable seen by drivers
  cluster::ShardRouter::Snapshot snapshot;
};

/// The replay workload from RunWorkload, driven through a ShardRouter with
/// tenants assigned round-robin by session index. Admission rejections are
/// flow control, not failures: shed mutations are retried with a 1 ms
/// backoff (a replay client must not drop cascade events), shed predicts
/// are skipped (a lost forecast is recoverable), and both are counted.
ClusterRunResult RunClusterWorkload(
    cluster::ShardRouter& router,
    const std::vector<std::vector<AdoptionEvent>>& replays, int clients,
    int tenants, double predict_deadline_ms = 0.0) {
  std::atomic<uint64_t> shed{0};
  std::atomic<uint64_t> unavailable{0};
  const auto tenant_of = [tenants](size_t i) {
    return "tenant-" +
           std::to_string(i % static_cast<size_t>(std::max(1, tenants)));
  };
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> drivers;
  for (int c = 0; c < clients; ++c) {
    drivers.emplace_back([&, c] {
      const auto must = [&](auto&& op) {
        for (int attempt = 0;; ++attempt) {
          const ServeResponse response = op();
          if (response.status.ok()) return;
          if (response.status.code() == StatusCode::kResourceExhausted)
            shed.fetch_add(1, std::memory_order_relaxed);
          else if (response.status.code() == StatusCode::kUnavailable)
            unavailable.fetch_add(1, std::memory_order_relaxed);
          else
            CASCN_CHECK(false) << response.status;
          CASCN_CHECK(attempt < 10000)
              << "retry budget exhausted: " << response.status;
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      };
      std::vector<size_t> mine;
      for (size_t i = static_cast<size_t>(c); i < replays.size();
           i += static_cast<size_t>(clients)) {
        mine.push_back(i);
        must([&] {
          return Wait(router.Submit(
              tenant_of(i),
              Request::Create("s" + std::to_string(i), replays[i][0].user)));
        });
      }
      // Submission with the same flow-control policy as `must`, but
      // non-blocking: a rejected submit is retried until it enqueues, and
      // the future is collected for an end-of-round wait. Appends and
      // predicts both go out async — each shard's FIFO queue preserves
      // per-session order — so every client keeps 2x its session count in
      // flight and the offered load actually reaches the admission gate.
      const auto submit = [&](auto&& op) {
        for (int attempt = 0;; ++attempt) {
          auto submitted = op();
          if (submitted.ok()) return std::move(submitted).value();
          if (submitted.status().code() == StatusCode::kResourceExhausted)
            shed.fetch_add(1, std::memory_order_relaxed);
          else if (submitted.status().code() == StatusCode::kUnavailable)
            unavailable.fetch_add(1, std::memory_order_relaxed);
          else
            CASCN_CHECK(false) << submitted.status();
          CASCN_CHECK(attempt < 10000)
              << "retry budget exhausted: " << submitted.status();
          // Back off hard: a rejected client yielding the core is what lets
          // the shards drain (and is what a well-behaved client does).
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      };
      std::vector<std::future<ServeResponse>> pending;
      const auto drain = [&pending] {
        for (auto& future : pending) {
          const ServeResponse response = future.get();
          CASCN_CHECK(response.status.ok() ||
                      response.status.code() == StatusCode::kDeadlineExceeded)
              << response.status;
        }
        pending.clear();
      };
      bool progressed = true;
      for (size_t step = 1; progressed; ++step) {
        progressed = false;
        for (size_t i : mine) {
          if (step >= replays[i].size()) continue;
          progressed = true;
          const AdoptionEvent& event = replays[i][step];
          const std::string id = "s" + std::to_string(i);
          pending.push_back(submit([&] {
            return router.Submit(
                tenant_of(i),
                Request::Append(id, event.user, event.parents[0], event.time));
          }));
          pending.push_back(submit([&] {
            return router.Submit(tenant_of(i),
                                 Request::Predict(id, predict_deadline_ms));
          }));
          // Cap this client's in-flight window so queue pressure (and the
          // contention it adds on small hosts) doesn't scale with
          // --sessions: the offered load stays a property of the scenario,
          // not of the workload size.
          if (pending.size() >= 48) drain();
        }
        drain();
      }
      for (size_t i : mine)
        must([&] {
          return Wait(router.Submit(tenant_of(i),
                                    Request::Close("s" + std::to_string(i))));
        });
    });
  }
  for (auto& d : drivers) d.join();
  const auto end = std::chrono::steady_clock::now();

  ClusterRunResult result;
  result.seconds = std::chrono::duration<double>(end - start).count();
  result.snapshot = router.TakeSnapshot();
  for (const auto& shard : result.snapshot.shards) {
    if (!shard.active) continue;
    result.requests += shard.metrics.counter(Counter::kRequestsTotal);
    result.deadline_exceeded +=
        shard.metrics.counter(Counter::kDeadlineExceeded);
  }
  result.driver_shed = shed.load();
  result.driver_unavailable = unavailable.load();
  return result;
}

int Main(int argc, char** argv) {
  CliFlags flags;
  CASCN_CHECK(flags.Parse(argc, argv).ok());
  const int sessions = static_cast<int>(flags.GetInt("sessions", 400));
  const int clients = static_cast<int>(flags.GetInt("clients", 8));
  const int shards = static_cast<int>(flags.GetInt("shards", 2));
  const int tenants = static_cast<int>(flags.GetInt("tenants", 2));
  const std::string workers_list = flags.GetString("workers_list", "1,2,4,8");
  // --trace_out=PATH records the healthy cluster run with request tracing
  // enabled and writes the Chrome trace there (open in chrome://tracing;
  // flow arrows link each request's spans across threads).
  const std::string trace_out = flags.GetString("trace_out", "");
  // --flight_dir=DIR arms the cluster runs' flight recorders (per-shard +
  // router JSON-lines dumps) and dumps them on demand after each run.
  const std::string flight_dir = flags.GetString("flight_dir", "");
  // --debug_port=N starts the introspection server; defaults to the
  // CASCN_DEBUG_PORT environment variable, -1 (off) when neither is set.
  const int debug_port =
      static_cast<int>(flags.GetInt("debug_port", obs::DebugServer::EnvPort()));
  std::string bench_out = flags.GetString("bench_out", "");
  if (bench_out.empty())
    bench_out = obs::BenchReport::DefaultPath("serve_throughput");
  const auto bench_start = std::chrono::steady_clock::now();

  // One tiny deterministic model checkpoint shared by all runs.
  CascnConfig config;
  config.padded_size = 16;
  config.hidden_dim = 6;
  config.cheb_order = 2;
  CascnModel model(config);
  const std::string ckpt = "/tmp/cascn_bench_serve.ckpt";
  CASCN_CHECK(SaveCascnCheckpoint(ckpt, model).ok());

  const auto replays = MakeWorkload(sessions);
  const unsigned cores = std::thread::hardware_concurrency();
  std::fprintf(stderr,
               "[serve_throughput] %zu sessions, %d clients, %u cores\n",
               replays.size(), clients, cores);
  if (cores < 2)
    std::fprintf(stderr,
                 "[serve_throughput] WARNING: single-core host — worker "
                 "counts beyond 1 cannot speed up compute-bound predicts\n");

  obs::BenchReport report("serve_throughput");
  report.AddConfig("sessions", static_cast<int64_t>(replays.size()))
      .AddConfig("clients", clients)
      .AddConfig("workers_list", workers_list)
      .AddConfig("hardware_concurrency", static_cast<int64_t>(cores));

  // Live introspection server, opt-in. allow_quit is deliberate here: the
  // bench doubles as the end-to-end exercise of the quit endpoint's gating.
  std::unique_ptr<obs::DebugServer> debug_server;
  if (debug_port >= 0) {
    obs::DebugServerOptions server_options;
    server_options.port = debug_port;
    server_options.allow_quit = true;
    auto started = obs::DebugServer::Start(server_options);
    CASCN_CHECK(started.ok()) << started.status();
    debug_server = std::move(started).value();
    debug_server->AddConfig("bench", "serve_throughput");
    debug_server->AddConfig("sessions", std::to_string(replays.size()));
    debug_server->AddConfig("clients", std::to_string(clients));
  }

  std::vector<int> worker_counts;
  for (const std::string& field : Split(workers_list, ',')) {
    const long value = std::strtol(field.c_str(), nullptr, 10);
    CASCN_CHECK(value >= 1) << "bad --workers_list entry: " << field;
    worker_counts.push_back(static_cast<int>(value));
  }
  CASCN_CHECK(!worker_counts.empty());

  std::string results_json;
  // Emits one run's stderr line, report rows (throughput plus a "p95:"
  // guard row so latency-tail regressions trip bench_guard, not just
  // throughput ones), and its entry in the human-readable results array.
  auto record_run = [&](const std::string& label, int workers,
                        const RunResult& run, const std::string& obs_json) {
    const double rps =
        run.seconds > 0.0 ? static_cast<double>(run.requests) / run.seconds
                          : 0.0;
    const uint64_t expired = run.snapshot.counter(Counter::kDeadlineExceeded);
    std::fprintf(stderr,
                 "[serve_throughput] %s requests=%llu seconds=%.3f "
                 "rps=%.0f p50=%.0fus p95=%.0fus p99=%.0fus batched=%llu "
                 "deadline_exceeded=%llu health=%s\n",
                 label.c_str(), static_cast<unsigned long long>(run.requests),
                 run.seconds, rps, run.snapshot.latency_p50_us,
                 run.snapshot.latency_p95_us, run.snapshot.latency_p99_us,
                 static_cast<unsigned long long>(
                     run.snapshot.counter(Counter::kBatchedRequests)),
                 static_cast<unsigned long long>(expired),
                 std::string(HealthName(run.snapshot.health)).c_str());

    const double ns_per_request =
        run.requests > 0 ? run.seconds * 1e9 / static_cast<double>(run.requests)
                         : 0.0;
    report.AddResult(
        obs::JsonObjectBuilder()
            .Add("benchmark", "serve/" + label)
            .Add("real_ns_per_iter", ns_per_request)
            .Add("workers", workers)
            .Add("requests", run.requests)
            .Add("seconds", run.seconds)
            .Add("requests_per_sec", rps)
            .Add("p50_us", run.snapshot.latency_p50_us)
            .Add("p95_us", run.snapshot.latency_p95_us)
            .Add("p99_us", run.snapshot.latency_p99_us)
            .Add("batches", run.snapshot.counter(Counter::kBatches))
            .Add("batched_requests",
                 run.snapshot.counter(Counter::kBatchedRequests))
            .Add("deadline_exceeded", expired)
            .Build());
    report.AddResult(
        obs::JsonObjectBuilder()
            .Add("benchmark", "serve/p95:" + label)
            .Add("real_ns_per_iter", run.snapshot.latency_p95_us * 1000.0)
            .Build());

    char entry[704];
    std::snprintf(
        entry, sizeof(entry),
        "%s\n    {\"run\": \"%s\", \"workers\": %d, \"requests\": %llu, "
        "\"seconds\": %.4f, "
        "\"requests_per_sec\": %.1f, \"p50_us\": %.1f, \"p95_us\": %.1f, "
        "\"p99_us\": %.1f, "
        "\"batches\": %llu, \"batched_requests\": %llu, "
        "\"deadline_exceeded\": %llu, \"obs\": ",
        results_json.empty() ? "" : ",", label.c_str(), workers,
        static_cast<unsigned long long>(run.requests), run.seconds, rps,
        run.snapshot.latency_p50_us, run.snapshot.latency_p95_us,
        run.snapshot.latency_p99_us,
        static_cast<unsigned long long>(
            run.snapshot.counter(Counter::kBatches)),
        static_cast<unsigned long long>(
            run.snapshot.counter(Counter::kBatchedRequests)),
        static_cast<unsigned long long>(expired));
    results_json += entry;
    results_json += obs_json;
    results_json += "}";
  };

  auto make_options = [&](int workers) {
    ServiceOptions options;
    options.num_workers = workers;
    options.queue_capacity = 16384;
    options.max_batch = 16;
    options.sessions.capacity = replays.size() + 16;
    options.sessions.observation_window = kWindow;
    return options;
  };

  for (int workers : worker_counts) {
    auto service =
        PredictionService::CreateFromCheckpoint(make_options(workers), ckpt);
    CASCN_CHECK(service.ok()) << service.status();

    const RunResult run = RunWorkload(**service, replays, clients);
    (*service)->Shutdown();
    // Unified observability snapshot for this run: queue-depth gauge and
    // batch-size histogram maintained by the service, plus the serve
    // counters bridged in.
    ExportToRegistry(run.snapshot, (*service)->registry());
    record_run("workers:" + std::to_string(workers), workers, run,
               (*service)->registry().JsonSnapshot());
    if (workers == 2) {
      // Guard row: serve throughput with tracing disabled. The request
      // context, flight-recorder append, and SLI hooks are always on, so
      // this row is what catches the hot-path cost of the observability
      // plumbing itself creeping up.
      CASCN_CHECK(!obs::Tracer::Get().enabled())
          << "tracing_off row measured with tracing enabled";
      report.AddResult(
          obs::JsonObjectBuilder()
              .Add("benchmark", "serve/tracing_off")
              .Add("real_ns_per_iter",
                   run.requests > 0
                       ? run.seconds * 1e9 / static_cast<double>(run.requests)
                       : 0.0)
              .Build());
      if (debug_port < 0) {
        // Guard row: serve throughput with the introspection control plane
        // never brought up. The CHECKs are the contract — no --debug_port
        // means no accept thread and no span sampling, so a regression here
        // is hot-path cost leaking out of an "off" debug server.
        CASCN_CHECK(obs::DebugServer::servers_started() == 0)
            << "debug server started without --debug_port";
        CASCN_CHECK(!obs::Tracer::Get().sampling())
            << "span sampling enabled without --debug_port";
        report.AddResult(
            obs::JsonObjectBuilder()
                .Add("benchmark", "serve/debug_off")
                .Add("real_ns_per_iter",
                     run.requests > 0
                         ? run.seconds * 1e9 /
                               static_cast<double>(run.requests)
                         : 0.0)
                .Build());
      }
    }
  }

  // Degraded-mode scenario: a slice of predicts stalls inside the worker
  // (the "serve.slow_predict" fault, armed deterministically) while every
  // async predict carries a deadline. The service must keep draining —
  // expired requests fail fast with DeadlineExceeded instead of piling onto
  // workers — and the p95 guard row keeps the degraded latency tail honest.
  {
    const int workers = 2;
    auto service =
        PredictionService::CreateFromCheckpoint(make_options(workers), ckpt);
    CASCN_CHECK(service.ok()) << service.status();
    CASCN_CHECK(fault::FaultRegistry::Get()
                    .Configure("serve.slow_predict=every:16@2")
                    .ok());
    const RunResult run =
        RunWorkload(**service, replays, clients, /*predict_deadline_ms=*/10.0);
    fault::FaultRegistry::Get().Clear();
    (*service)->Shutdown();
    ExportToRegistry(run.snapshot, (*service)->registry());
    record_run("degraded", workers, run,
               (*service)->registry().JsonSnapshot());
  }

  // Sharded cluster scenarios (--shards=0 disables). Latency percentiles
  // here are merged across shards from the router snapshot; the driver
  // counters separate admission sheds (ResourceExhausted) from queue-full
  // backpressure (Unavailable).
  if (shards >= 2) {
    // Emits one cluster run: stderr line, aggregate row, optional per-shard
    // rows, a p99 guard row under `guard`, and the human-readable entry.
    auto record_cluster_run = [&](const std::string& label,
                                  const std::string& guard,
                                  const ClusterRunResult& run,
                                  bool per_shard_rows) {
      const double rps =
          run.seconds > 0.0 ? static_cast<double>(run.requests) / run.seconds
                            : 0.0;
      std::fprintf(
          stderr,
          "[serve_throughput] %s requests=%llu seconds=%.3f rps=%.0f "
          "p50=%.0fus p95=%.0fus p99=%.0fus shed=%llu unavailable=%llu "
          "deadline_exceeded=%llu health=%s\n",
          label.c_str(), static_cast<unsigned long long>(run.requests),
          run.seconds, rps, run.snapshot.latency_p50_us,
          run.snapshot.latency_p95_us, run.snapshot.latency_p99_us,
          static_cast<unsigned long long>(run.driver_shed),
          static_cast<unsigned long long>(run.driver_unavailable),
          static_cast<unsigned long long>(run.deadline_exceeded),
          std::string(HealthName(run.snapshot.health)).c_str());
      const double ns_per_request =
          run.requests > 0
              ? run.seconds * 1e9 / static_cast<double>(run.requests)
              : 0.0;
      report.AddResult(obs::JsonObjectBuilder()
                           .Add("benchmark", label)
                           .Add("real_ns_per_iter", ns_per_request)
                           .Add("shards", shards)
                           .Add("tenants", tenants)
                           .Add("requests", run.requests)
                           .Add("seconds", run.seconds)
                           .Add("requests_per_sec", rps)
                           .Add("p50_us", run.snapshot.latency_p50_us)
                           .Add("p95_us", run.snapshot.latency_p95_us)
                           .Add("p99_us", run.snapshot.latency_p99_us)
                           .Add("shed", run.driver_shed)
                           .Add("unavailable", run.driver_unavailable)
                           .Add("deadline_exceeded", run.deadline_exceeded)
                           .Build());
      if (per_shard_rows) {
        for (const auto& shard : run.snapshot.shards) {
          if (!shard.active) continue;
          const uint64_t shard_requests =
              shard.metrics.counter(Counter::kRequestsTotal);
          report.AddResult(
              obs::JsonObjectBuilder()
                  .Add("benchmark",
                       "cluster/shard:" + std::to_string(shard.shard_id))
                  .Add("real_ns_per_iter",
                       shard_requests > 0
                           ? run.seconds * 1e9 /
                                 static_cast<double>(shard_requests)
                           : 0.0)
                  .Add("requests", shard_requests)
                  .Add("sessions", static_cast<uint64_t>(shard.num_sessions))
                  .Add("p99_us", shard.metrics.latency_p99_us)
                  .Build());
        }
      }
      report.AddResult(obs::JsonObjectBuilder()
                           .Add("benchmark", guard)
                           .Add("real_ns_per_iter",
                                run.snapshot.latency_p99_us * 1000.0)
                           .Build());
      char entry[512];
      std::snprintf(
          entry, sizeof(entry),
          "%s\n    {\"run\": \"%s\", \"shards\": %d, \"requests\": %llu, "
          "\"seconds\": %.4f, \"requests_per_sec\": %.1f, \"p50_us\": %.1f, "
          "\"p95_us\": %.1f, \"p99_us\": %.1f, \"shed\": %llu, "
          "\"unavailable\": %llu, \"deadline_exceeded\": %llu}",
          results_json.empty() ? "" : ",", label.c_str(), shards,
          static_cast<unsigned long long>(run.requests), run.seconds, rps,
          run.snapshot.latency_p50_us, run.snapshot.latency_p95_us,
          run.snapshot.latency_p99_us,
          static_cast<unsigned long long>(run.driver_shed),
          static_cast<unsigned long long>(run.driver_unavailable),
          static_cast<unsigned long long>(run.deadline_exceeded));
      results_json += entry;
    };

    // Healthy cluster baseline at 1x load. When --trace_out is set this run
    // doubles as the tracing demo: every request carries a trace id minted
    // at the router, and the written Chrome trace links each request's
    // spans across the client and worker threads with flow events.
    cluster::ShardRouterOptions healthy_opts;
    healthy_opts.num_shards = shards;
    healthy_opts.shard = make_options(/*workers=*/2);
    healthy_opts.flight_dir = flight_dir;
    auto router = cluster::ShardRouter::CreateFromCheckpoint(healthy_opts,
                                                             ckpt);
    CASCN_CHECK(router.ok()) << router.status();
    if (debug_server) (*router)->RegisterDebugEndpoints(*debug_server);
    // With the debug server up, fetch every endpoint mid-run: the server
    // must answer with real payloads while the workers are saturated, not
    // just on an idle process. (If the workload finishes before the checker
    // wakes, the fetches still validate payloads — just not under load.)
    std::thread endpoint_checker;
    if (debug_server) {
      endpoint_checker = std::thread([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        const auto fetch = [&](const std::string& path) {
          auto result = obs::HttpGet(debug_server->port(), path);
          CASCN_CHECK(result.ok()) << path << ": " << result.status();
          CASCN_CHECK(result->status == 200)
              << path << " -> HTTP " << result->status;
          return result->body;
        };
        CASCN_CHECK(fetch("/statusz").find("[cluster]") != std::string::npos)
            << "/statusz missing the router's status section";
        CASCN_CHECK(fetch("/metricsz").find("# TYPE") != std::string::npos)
            << "/metricsz text exposition missing OpenMetrics headers";
        const std::string metrics_json = fetch("/metricsz?format=json");
        CASCN_CHECK(metrics_json.find("\"counters\"") != std::string::npos &&
                    metrics_json.find("cluster_health") != std::string::npos)
            << "/metricsz?format=json missing the router's exported series";
        CASCN_CHECK(fetch("/tracez").find("\"span_stats\"") !=
                    std::string::npos)
            << "/tracez missing span statistics";
        CASCN_CHECK(fetch("/flightz").find("flight_dump") != std::string::npos)
            << "/flightz missing flight-recorder dump headers";
        CASCN_CHECK(fetch("/sloz").find("\"tenants\"") != std::string::npos)
            << "/sloz missing the per-tenant SLO table";
        std::fprintf(stderr,
                     "[serve_throughput] debug endpoints answered under load "
                     "(port %d)\n",
                     debug_server->port());
      });
    }
    if (!trace_out.empty()) obs::Tracer::Get().Enable();
    const ClusterRunResult healthy =
        RunClusterWorkload(**router, replays, clients, tenants);
    if (endpoint_checker.joinable()) endpoint_checker.join();
    if (!trace_out.empty()) {
      obs::Tracer::Get().Disable();
      CASCN_CHECK(obs::Tracer::Get().WriteChromeTrace(trace_out).ok());
      std::fprintf(stderr,
                   "[serve_throughput] chrome trace written to %s "
                   "(%zu events, %llu spans dropped)\n",
                   trace_out.c_str(), obs::Tracer::Get().event_count(),
                   static_cast<unsigned long long>(
                       obs::Tracer::Get().dropped_count()));
    }
    CASCN_CHECK((*router)->ClusterHealth() == Health::kHealthy);
    if (!flight_dir.empty())
      CASCN_CHECK((*router)->DumpFlightRecorders("bench_on_demand").ok());
    record_cluster_run("cluster/shards:" + std::to_string(shards),
                       "cluster/p99", healthy, /*per_shard_rows=*/true);
    // Guard row: the healthy run above used default router options, so the
    // resilience control plane was never constructed — the CHECK is that
    // contract, and the row is what catches the disabled plane's cost (one
    // relaxed pointer load per request) creeping up.
    CASCN_CHECK((*router)->resilience() == nullptr)
        << "resilience control plane constructed without being enabled";
    report.AddResult(
        obs::JsonObjectBuilder()
            .Add("benchmark", "cluster/resilience_off")
            .Add("real_ns_per_iter",
                 healthy.requests > 0
                     ? healthy.seconds * 1e9 /
                           static_cast<double>(healthy.requests)
                     : 0.0)
            .Build());

    // Deterministic stall drill (debug server only): wedge one shard of a
    // dedicated drill router and prove the watchdog chain end to end — the
    // stall is declared, the self-dump lands on disk, and it names the
    // trace id of the request that was actually stuck on the worker.
    if (debug_server) {
      cluster::ShardRouterOptions drill_opts;
      drill_opts.num_shards = 2;
      drill_opts.shard = make_options(/*workers=*/1);
      // One request per micro-batch: the pile-up behind the wedged predict
      // must stay IN the queue (visibly busy) rather than being drained
      // into a single batch, or the watchdog has nothing to see.
      drill_opts.shard.max_batch = 1;
      auto drill = cluster::ShardRouter::CreateFromCheckpoint(drill_opts, ckpt);
      CASCN_CHECK(drill.ok()) << drill.status();
      CASCN_CHECK(Wait((*drill)->Submit("drill", Request::Create("wedged", 1)))
                      .status.ok());
      CASCN_CHECK(
          Wait((*drill)->Submit("drill", Request::Append("wedged", 2, 0, 1.0)))
              .status.ok());
      const int victim = (*drill)->ShardOf("wedged");
      CASCN_CHECK(victim >= 0);

      obs::WatchdogOptions watchdog_options;
      watchdog_options.poll_ms = 5.0;
      watchdog_options.stall_ms = 50.0;
      watchdog_options.anomaly_dir = "/tmp";
      obs::Watchdog watchdog(watchdog_options);
      (*drill)->RegisterWatchdogTargets(watchdog);
      watchdog.Start();

      CASCN_CHECK(fault::FaultRegistry::Get()
                      .Configure(cluster::SlowShardFaultPoint(victim) +
                                 "=always@500")
                      .ok());
      std::vector<std::future<ServeResponse>> wedged;
      for (int i = 0; i < 3; ++i) {
        auto submitted = (*drill)->Submit("drill", Request::Predict("wedged"));
        CASCN_CHECK(submitted.ok()) << submitted.status();
        wedged.push_back(std::move(submitted).value());
      }
      const auto drill_deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(20);
      while (watchdog.stalls_total() == 0 &&
             std::chrono::steady_clock::now() < drill_deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      CASCN_CHECK(watchdog.stalls_total() >= 1)
          << "watchdog never declared the drill stall";
      fault::FaultRegistry::Get().Clear();
      // FIFO + max_batch=1: the first submit is the predict that was on the
      // worker when the stall fired, so its trace id is the one the dump's
      // open-span table must carry.
      const ServeResponse stalled = wedged[0].get();
      CASCN_CHECK(stalled.status.ok()) << stalled.status;
      for (size_t i = 1; i < wedged.size(); ++i) (void)wedged[i].get();
      watchdog.Stop();

      const std::string dump_path = watchdog.last_dump_path();
      CASCN_CHECK(!dump_path.empty()) << "stall fired but wrote no dump";
      std::ifstream dump(dump_path);
      CASCN_CHECK(dump.good()) << "cannot read watchdog dump " << dump_path;
      std::stringstream dump_body;
      dump_body << dump.rdbuf();
      const std::string stalled_trace = StrFormat(
          "%llx", static_cast<unsigned long long>(stalled.trace_id));
      CASCN_CHECK(dump_body.str().find(stalled_trace) != std::string::npos)
          << "watchdog dump " << dump_path
          << " does not name the stalled request's trace id "
          << stalled_trace;
      std::fprintf(stderr,
                   "[serve_throughput] watchdog drill: stall on shard %d "
                   "detected, dump %s names trace %s\n",
                   victim, dump_path.c_str(), stalled_trace.c_str());

      // Last endpoint: the opt-in quit answers 200 and latches the flag.
      auto quit = obs::HttpGet(debug_server->port(), "/quitquitquit");
      CASCN_CHECK(quit.ok()) << quit.status();
      CASCN_CHECK(quit->status == 200) << "/quitquitquit -> " << quit->status;
      CASCN_CHECK(debug_server->quit_requested());
      drill->reset();
    }

    // The debug handlers registered above capture the healthy router; stop
    // the server before the router goes away.
    if (debug_server) debug_server->Stop();
    router->reset();

    // Deterministic overload: shard 0 is slowed by the shard-scoped fault
    // while 2x the sessions are offered against shrunken shard queues.
    // Admission control must shed with ResourceExhausted before the slow
    // shard's queue collapses into Unavailable for everyone, and the
    // accepted-request p99 (execution time, merged across shards) must stay
    // within 2x the healthy baseline — the slow shard hurts its own queue,
    // not the latency of the requests the cluster chose to accept.
    const auto overload_replays = MakeWorkload(sessions * 2);
    cluster::ShardRouterOptions overload_opts;
    overload_opts.num_shards = shards;
    // One worker per shard: the scenario is about queue pressure, and extra
    // worker threads on an oversubscribed host only add preemption noise to
    // the execution-time percentiles the CHECK below compares.
    overload_opts.shard = make_options(/*workers=*/1);
    // Queue small enough that the drivers' bounded in-flight window (48 ops
    // per client) pushes past the shed threshold on every round, at any
    // --sessions.
    overload_opts.shard.queue_capacity = 32;
    overload_opts.shard.sessions.capacity = overload_replays.size() + 16;
    // Shed early (25% of capacity): the point of the scenario is that
    // admission turns excess load into ResourceExhausted *before* queues
    // deepen enough to distort the accepted requests' latency.
    overload_opts.admission.shed_queue_fraction = 0.25;
    overload_opts.flight_dir = flight_dir;
    auto overload_router =
        cluster::ShardRouter::CreateFromCheckpoint(overload_opts, ckpt);
    CASCN_CHECK(overload_router.ok()) << overload_router.status();
    CASCN_CHECK(fault::FaultRegistry::Get()
                    .Configure(cluster::SlowShardFaultPoint(0) + "=every:256@2")
                    .ok());
    const ClusterRunResult overload = RunClusterWorkload(
        **overload_router, overload_replays, std::min(clients, 2), tenants,
        /*predict_deadline_ms=*/50.0);
    fault::FaultRegistry::Get().Clear();
    CASCN_CHECK(overload.snapshot.total_shed > 0)
        << "overload scenario shed nothing: admission control never engaged";
    // The floor keeps the bound meaningful when the healthy p99 is down in
    // scheduling-noise territory: on oversubscribed hosts (this bench's
    // driver threads timeslice with the shard workers) a preempted worker
    // records wall time in the low milliseconds regardless of load.
    const double p99_budget_us =
        2.0 * std::max(healthy.snapshot.latency_p99_us, 2500.0);
    CASCN_CHECK(overload.snapshot.latency_p99_us <= p99_budget_us)
        << "accepted-request p99 " << overload.snapshot.latency_p99_us
        << "us exceeds 2x healthy baseline ("
        << healthy.snapshot.latency_p99_us << "us)";
    if (!flight_dir.empty())
      CASCN_CHECK(
          (*overload_router)->DumpFlightRecorders("bench_on_demand").ok());
    record_cluster_run("cluster/overload", "cluster/overload_p99", overload,
                       /*per_shard_rows=*/false);
    overload_router->reset();
  }

  std::printf(
      "{\n  \"bench\": \"serve_throughput\",\n  \"sessions\": %zu,\n"
      "  \"clients\": %d,\n  \"hardware_concurrency\": %u,\n"
      "  \"results\": [%s\n  ]\n}\n",
      replays.size(), clients, cores, results_json.c_str());

  report
      .SetWallClockSeconds(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - bench_start)
                               .count())
      .CaptureProfile();
  const Status write_status = report.WriteFile(bench_out);
  CASCN_CHECK(write_status.ok()) << write_status;
  std::fprintf(stderr, "[serve_throughput] benchmark report written to %s\n",
               bench_out.c_str());
  CASCN_CHECK(obs::ShutdownDump().ok());
  return 0;
}

}  // namespace
}  // namespace cascn::serve

int main(int argc, char** argv) { return cascn::serve::Main(argc, argv); }
