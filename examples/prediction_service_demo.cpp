// Prediction-service demo: the full serving lifecycle.
//
//   1. Train a small CasCN on simulated Weibo-like cascades.
//   2. Write it to a checkpoint file.
//   3. Bring up a PredictionService that loads the checkpoint from disk
//      (one model, shared by its workers — nothing is shared with
//      training).
//   4. Replay a fresh stream of simulated cascades as thousands of
//      concurrent sessions: create / append / predict / close, driven from
//      several client threads.
//   5. Print the metrics snapshot and a few live forecasts.
//
//   ./prediction_service_demo [--cascades=300] [--epochs=4] [--workers=4]
//                             [--sessions=1200] [--clients=8] [--threads=N]
//                             [--shards=1] [--tenants=2]
//
// --shards >= 2 serves through the sharded cluster tier instead of a single
// PredictionService: sessions are consistent-hash routed across shards
// (tenant labels round-robin across --tenants), and after the replay the
// demo performs a live rebalance — draining one shard and handing its
// sessions off to the survivors — then keeps predicting to show nothing
// was lost.
//
// Resilience control plane (cluster mode only):
//   --allow_stale=1   enable the resilience plane with degraded-mode stale
//                     reads: when a pinned shard is open or dead and the
//                     retry budget is spent, predicts answer from the
//                     last-good cache (marked stale) instead of erroring
//   --supervisor=1    run a ShardSupervisor thread and stage a self-healing
//                     drill after the rebalance: one shard is crashed under
//                     the supervisor's watch, auto-restarts on its backoff
//                     schedule, and the lost sessions re-create
//                     bit-identical. Counters (cluster_stale_serves_total,
//                     cluster_supervisor_restarts_total, breaker states)
//                     land on /metricsz when --debug_port is set.
//
// --threads (default: the CASCN_THREADS environment variable, else all
// cores) sets the shared-pool size used for intra-batch parallel training;
// 1 forces the serial path.
//
// Observability outputs (all optional):
//   --trace_out=trace.json       enable tracing, dump a Chrome trace-event
//                                file (open in chrome://tracing / Perfetto)
//   --telemetry_out=t.jsonl      per-epoch training telemetry (JSON lines)
//   --metrics_out=metrics.json   unified metrics-registry snapshot
//   --flight_dir=DIR             arm the black-box flight recorders: runs an
//                                anomaly drill (a fault-stalled worker makes
//                                a deadlined request expire, triggering a
//                                deadline_exceeded dump to
//                                DIR/flight_demo.jsonl), and in cluster mode
//                                dumps every shard's ring plus the router's
//                                to DIR/flight_*.jsonl on demand
//
// Live introspection (all optional; see src/obs/debug_server.h):
//   --debug_port=N           serve /statusz /metricsz /tracez /flightz /sloz
//                            on 127.0.0.1:N (0 = ephemeral; defaults to the
//                            CASCN_DEBUG_PORT environment variable). A stall
//                            watchdog rides along, watching the trainer's
//                            batch heartbeat and every serving worker.
//   --debug_allow_quit=1     un-gate /quitquitquit (403 otherwise)
//   --debug_linger_ms=MS     keep the process alive up to MS after the
//                            replay so the endpoints can be curled; a
//                            /quitquitquit (when allowed) ends the linger
//   --watchdog_drill=1       deterministically wedge a drill shard, let the
//                            watchdog catch it, and print the dump path

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/shard_router.h"
#include "common/cli_flags.h"
#include "common/logging.h"
#include "core/cascn_model.h"
#include "core/trainer.h"
#include "data/cascade_generator.h"
#include "data/dataset.h"
#include "fault/fault.h"
#include "obs/debug_server.h"
#include "obs/metrics_registry.h"
#include "obs/shutdown.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "parallel/parallel_for.h"
#include "serve/checkpoint.h"
#include "serve/prediction_service.h"

int main(int argc, char** argv) {
  using namespace cascn;
  using serve::Request;
  using serve::Wait;
  CliFlags flags;
  CASCN_CHECK(flags.Parse(argc, argv).ok());
  const double window = 60.0;  // observe 1 hour of each cascade

  const int64_t threads = flags.GetInt("threads", 0);
  if (threads > 0) parallel::SetThreads(static_cast<size_t>(threads));
  std::printf("training threads: %zu\n", parallel::ConfiguredThreads());

  const std::string trace_out = flags.GetString("trace_out", "");
  const std::string metrics_out = flags.GetString("metrics_out", "");
  const std::string telemetry_out = flags.GetString("telemetry_out", "");
  const std::string flight_dir = flags.GetString("flight_dir", "");
  if (!trace_out.empty()) obs::Tracer::Get().Enable();
  std::unique_ptr<obs::FileTelemetrySink> telemetry;
  if (!telemetry_out.empty()) {
    auto sink = obs::FileTelemetrySink::Open(telemetry_out);
    CASCN_CHECK(sink.ok()) << sink.status();
    telemetry = std::move(sink).value();
  }

  // Live introspection server + stall watchdog, both opt-in via
  // --debug_port / CASCN_DEBUG_PORT. The watchdog shares the server's
  // lifetime: it watches the trainer's batch heartbeat during training and
  // (below) every serving worker during the replay.
  const int debug_port =
      static_cast<int>(flags.GetInt("debug_port", obs::DebugServer::EnvPort()));
  const int64_t debug_linger_ms = flags.GetInt("debug_linger_ms", 0);
  std::unique_ptr<obs::DebugServer> debug_server;
  std::unique_ptr<obs::Watchdog> watchdog;
  if (debug_port >= 0) {
    obs::DebugServerOptions server_options;
    server_options.port = debug_port;
    server_options.allow_quit = flags.GetInt("debug_allow_quit", 0) != 0;
    auto started = obs::DebugServer::Start(server_options);
    CASCN_CHECK(started.ok()) << started.status();
    debug_server = std::move(started).value();
    debug_server->AddConfig("binary", "prediction_service_demo");

    obs::WatchdogOptions watchdog_options;
    watchdog_options.anomaly_dir = flight_dir.empty() ? "/tmp" : flight_dir;
    watchdog = std::make_unique<obs::Watchdog>(watchdog_options);
    debug_server->AddStatusSection(
        "watchdog", [&watchdog] { return watchdog->StatusJson() + "\n"; });
    std::printf("debug server on http://127.0.0.1:%d (statusz metricsz "
                "tracez flightz sloz%s)\n",
                debug_server->port(),
                server_options.allow_quit ? " quitquitquit" : "");
  }
  // Keeps the endpoints curl-able after the replay: sleeps until
  // --debug_linger_ms elapses or /quitquitquit is accepted.
  const auto linger = [&] {
    if (!debug_server || debug_linger_ms <= 0) return;
    std::printf("lingering up to %lld ms on port %d...\n",
                static_cast<long long>(debug_linger_ms), debug_server->port());
    std::fflush(stdout);
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(debug_linger_ms);
    while (!debug_server->quit_requested() &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
  };

  // 1. Train.
  GeneratorConfig gen = WeiboLikeConfig();
  gen.num_cascades = static_cast<int>(flags.GetInt("cascades", 300));
  gen.user_universe = 1000;
  Rng rng(42);
  DatasetOptions data_opts;
  data_opts.observation_window = window;
  data_opts.min_observed_size = 5;
  auto dataset = BuildDataset(GenerateCascades(gen, rng), data_opts);
  CASCN_CHECK(dataset.ok()) << dataset.status();

  CascnConfig config;
  config.padded_size = 24;
  config.hidden_dim = 8;
  CascnModel model(config);
  TrainerOptions trainer;
  trainer.max_epochs = static_cast<int>(flags.GetInt("epochs", 4));
  trainer.telemetry = telemetry.get();
  // Under the watchdog, the training loop is just another worker: it beats
  // once per batch and a wedged batch shows up as a stall on "trainer".
  obs::WorkerHeartbeat train_heartbeat;
  std::atomic<bool> training{false};
  if (watchdog) {
    trainer.heartbeat = &train_heartbeat;
    obs::WatchTarget target;
    target.name = "trainer";
    target.progress = [&train_heartbeat] { return train_heartbeat.count(); };
    target.busy = [&training] { return training.load(); };
    watchdog->Watch(target);
    watchdog->Start();
  }
  training.store(true);
  const TrainResult train = TrainRegressor(model, *dataset, trainer);
  training.store(false);
  std::printf("trained CasCN: best validation MSLE %.3f (epoch %d)\n",
              train.best_validation_msle, train.best_epoch);

  // 2. Checkpoint.
  const std::string ckpt = "/tmp/cascn_demo.ckpt";
  CASCN_CHECK(serve::SaveCascnCheckpoint(ckpt, model).ok());
  std::printf("checkpoint written to %s\n", ckpt.c_str());

  // 2b. Anomaly drill (--flight_dir): stall a single-worker service with an
  // injected 80ms predict, let a 5ms-deadline request expire behind it, and
  // let the flight recorder dump the evidence on its own — the black box
  // working exactly as it would after a real incident.
  if (!flight_dir.empty()) {
    serve::ServiceOptions drill_opts;
    drill_opts.num_workers = 1;
    drill_opts.sessions.observation_window = window;
    drill_opts.flight_dump_path = flight_dir + "/flight_demo.jsonl";
    auto drill =
        serve::PredictionService::CreateFromCheckpoint(drill_opts, ckpt);
    CASCN_CHECK(drill.ok()) << drill.status();
    CASCN_CHECK(
        Wait(drill.value()->Submit(Request::Create("drill", 1))).status.ok());
    CASCN_CHECK(fault::FaultRegistry::Get()
                    .Configure("serve.slow_predict=always@80")
                    .ok());
    auto blocker = drill.value()->Submit(Request::Predict("drill", -1.0));
    CASCN_CHECK(blocker.ok()) << blocker.status();
    auto doomed = drill.value()->Submit(Request::Predict("drill", 5.0));
    CASCN_CHECK(doomed.ok()) << doomed.status();
    const serve::ServeResponse r = doomed.value().get();
    CASCN_CHECK(r.status.code() == StatusCode::kDeadlineExceeded) << r.status;
    (void)blocker.value().get();
    fault::FaultRegistry::Get().Clear();
    std::printf("anomaly drill: deadline miss (trace %llx) dumped to %s\n",
                static_cast<unsigned long long>(r.trace_id),
                drill_opts.flight_dump_path.c_str());
  }

  // 2c. Watchdog drill (--watchdog_drill=1, needs --debug_port): wedge one
  // shard of a throwaway two-shard cluster with the slow-shard fault while
  // requests queue behind it. A dedicated fast-poll watchdog declares the
  // stall, self-dumps the open-span table, and the router's on_stall hook
  // dumps every flight recorder — the whole incident pipeline, on demand.
  if (debug_server && flags.GetInt("watchdog_drill", 0) != 0) {
    cluster::ShardRouterOptions drill_opts;
    drill_opts.num_shards = 2;
    drill_opts.shard.num_workers = 1;
    // One request per micro-batch so the backlog stays visibly queued
    // behind the wedged predict instead of draining into a single batch.
    drill_opts.shard.max_batch = 1;
    drill_opts.shard.sessions.observation_window = window;
    drill_opts.flight_dir = flight_dir;
    auto drill = cluster::ShardRouter::CreateFromCheckpoint(drill_opts, ckpt);
    CASCN_CHECK(drill.ok()) << drill.status();
    CASCN_CHECK(
        Wait(drill.value()->Submit("drill", Request::Create("wedged", 1)))
            .status.ok());
    const int victim = drill.value()->ShardOf("wedged");
    CASCN_CHECK(victim >= 0);

    obs::WatchdogOptions drill_watchdog_options;
    drill_watchdog_options.poll_ms = 5.0;
    drill_watchdog_options.stall_ms = 50.0;
    drill_watchdog_options.anomaly_dir =
        flight_dir.empty() ? "/tmp" : flight_dir;
    obs::Watchdog drill_watchdog(drill_watchdog_options);
    drill.value()->RegisterWatchdogTargets(drill_watchdog);
    drill_watchdog.Start();

    CASCN_CHECK(
        fault::FaultRegistry::Get()
            .Configure(cluster::SlowShardFaultPoint(victim) + "=always@500")
            .ok());
    std::vector<std::future<serve::ServeResponse>> wedged;
    for (int i = 0; i < 3; ++i) {
      auto submitted =
          drill.value()->Submit("drill", Request::Predict("wedged"));
      CASCN_CHECK(submitted.ok()) << submitted.status();
      wedged.push_back(std::move(submitted).value());
    }
    const auto drill_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (drill_watchdog.stalls_total() == 0 &&
           std::chrono::steady_clock::now() < drill_deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    CASCN_CHECK(drill_watchdog.stalls_total() >= 1)
        << "watchdog drill: stall never declared";
    fault::FaultRegistry::Get().Clear();
    for (auto& future : wedged) (void)future.get();
    drill_watchdog.Stop();
    CASCN_CHECK(!drill_watchdog.last_dump_path().empty());
    std::printf("watchdog drill: stall on shard %d detected, dump at %s\n",
                victim, drill_watchdog.last_dump_path().c_str());
    drill.value().reset();
  }

  // 3. Build a fresh cascade stream to replay as concurrent sessions.
  const int target_sessions =
      static_cast<int>(flags.GetInt("sessions", 1200));
  GeneratorConfig live = WeiboLikeConfig();
  live.num_cascades = target_sessions * 2;
  live.user_universe = 1000;
  Rng live_rng(2024);
  std::vector<std::vector<AdoptionEvent>> replays;
  for (const Cascade& cascade : GenerateCascades(live, live_rng)) {
    const Cascade prefix = cascade.Prefix(window);
    if (prefix.size() < 3) continue;
    replays.push_back(prefix.events());
    if (static_cast<int>(replays.size()) == target_sessions) break;
  }

  const int clients = static_cast<int>(flags.GetInt("clients", 8));
  const int workers = static_cast<int>(flags.GetInt("workers", 4));
  const int shards = static_cast<int>(flags.GetInt("shards", 1));
  const int tenants = static_cast<int>(flags.GetInt("tenants", 2));

  // Sharded serving path: the same lifecycle through the cluster tier,
  // finished with a live rebalance that proves session state survives a
  // shard being drained away.
  const bool allow_stale = flags.GetInt("allow_stale", 0) != 0;
  const bool run_supervisor = flags.GetInt("supervisor", 0) != 0;
  if (shards >= 2) {
    cluster::ShardRouterOptions cluster_opts;
    cluster_opts.num_shards = shards;
    cluster_opts.shard.num_workers = workers;
    cluster_opts.shard.queue_capacity = 8192;
    cluster_opts.shard.sessions.observation_window = window;
    cluster_opts.shard.sessions.capacity = 8192;
    cluster_opts.flight_dir = flight_dir;
    // Either resilience flag switches the control plane on; --allow_stale
    // additionally opens the degraded-mode stale-read path.
    cluster_opts.resilience.enabled = allow_stale || run_supervisor;
    cluster_opts.allow_stale = allow_stale;

    auto router =
        cluster::ShardRouter::CreateFromCheckpoint(cluster_opts, ckpt);
    CASCN_CHECK(router.ok()) << router.status();
    std::unique_ptr<cluster::ShardSupervisor> supervisor;
    if (run_supervisor) {
      supervisor =
          std::make_unique<cluster::ShardSupervisor>(*router.value());
      supervisor->Start();
      std::printf("shard supervisor up (auto-restart, capped backoff)\n");
    }
    if (debug_server) {
      router.value()->RegisterDebugEndpoints(*debug_server);
      router.value()->RegisterWatchdogTargets(*watchdog);
    }
    std::printf("cluster up: %d shards x %d workers, %d tenant labels\n",
                shards, workers, tenants);
    std::printf("replaying %zu live cascades...\n", replays.size());

    const auto tenant_of = [tenants](size_t i) {
      return "tenant-" +
             std::to_string(i % static_cast<size_t>(std::max(1, tenants)));
    };
    std::vector<double> forecasts(replays.size(), 0.0);
    std::vector<std::thread> cluster_drivers;
    for (int c = 0; c < clients; ++c) {
      cluster_drivers.emplace_back([&, c] {
        for (size_t i = static_cast<size_t>(c); i < replays.size();
             i += static_cast<size_t>(clients)) {
          const std::string id = "live-" + std::to_string(i);
          CASCN_CHECK(Wait(router.value()->Submit(
                               tenant_of(i),
                               Request::Create(id, replays[i][0].user)))
                          .status.ok());
          for (size_t step = 1; step < replays[i].size(); ++step) {
            const AdoptionEvent& e = replays[i][step];
            const auto append = Wait(router.value()->Submit(
                tenant_of(i),
                Request::Append(id, e.user, e.parents[0], e.time)));
            CASCN_CHECK(append.status.ok()) << append.status;
          }
          const auto p =
              Wait(router.value()->Submit(tenant_of(i), Request::Predict(id)));
          CASCN_CHECK(p.status.ok()) << p.status;
          forecasts[i] = p.log_prediction;
        }
      });
    }
    for (auto& d : cluster_drivers) d.join();

    auto snapshot = router.value()->TakeSnapshot();
    std::printf("\n%s", snapshot.ToString().c_str());

    // Live rebalance: drain the highest shard and hand its sessions to the
    // survivors, then re-predict — every forecast must be unchanged.
    const int victim = shards - 1;
    std::printf("\nrebalancing: draining shard %d...\n", victim);
    const Status removed = router.value()->RemoveShard(victim);
    CASCN_CHECK(removed.ok()) << removed;
    size_t checked = 0;
    for (size_t i = 0; i < replays.size(); ++i) {
      const auto p = Wait(router.value()->Submit(
          tenant_of(i), Request::Predict("live-" + std::to_string(i))));
      CASCN_CHECK(p.status.ok()) << p.status;
      CASCN_CHECK(p.log_prediction == forecasts[i])
          << "session live-" << i << " drifted across the rebalance: got "
          << p.log_prediction << " want " << forecasts[i]
          << " stale=" << (p.stale ? 1 : 0);
      ++checked;
    }
    std::printf("shard %d removed: %zu sessions re-verified bit-identical "
                "on %d surviving shards\n",
                victim, checked, router.value()->num_shards());

    // Self-healing drill (--supervisor): crash a surviving shard under the
    // supervisor's watch. With --allow_stale the outage is bridged by
    // last-good answers; either way the shard auto-restarts on its backoff
    // schedule and the lost sessions re-create bit-identical.
    if (supervisor) {
      const int crash_victim = router.value()->ShardIds().front();
      std::printf("\nsupervisor drill: crashing shard %d...\n", crash_victim);
      const auto crash_at = std::chrono::steady_clock::now();
      router.value()->CrashShard(crash_victim);
      if (allow_stale) {
        // A couple of reads against the dead shard: served stale from the
        // last-good cache (or honestly NotFound if the restart wins the
        // race and the revived shard is already empty).
        int stale_seen = 0;
        for (size_t i = 0; i < replays.size() && stale_seen < 2; ++i) {
          const auto p = Wait(router.value()->Submit(
              tenant_of(i), Request::Predict("live-" + std::to_string(i))));
          if (p.status.ok() && p.stale) ++stale_seen;
        }
        std::printf("degraded mode: %d predicts answered stale while the "
                    "shard was down\n",
                    stale_seen);
      }
      while (supervisor->restarts_total() == 0) {
        CASCN_CHECK(std::chrono::steady_clock::now() - crash_at <
                    std::chrono::seconds(10))
            << "supervisor never restarted shard " << crash_victim;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      const double healed_ms = std::chrono::duration<double, std::milli>(
                                   std::chrono::steady_clock::now() - crash_at)
                                   .count();
      size_t relearned = 0;
      for (size_t i = 0; i < replays.size(); ++i) {
        const std::string id = "live-" + std::to_string(i);
        auto p =
            Wait(router.value()->Submit(tenant_of(i), Request::Predict(id)));
        if (!p.status.ok() || p.stale) {
          // Lost with the crashed shard: replay its events and re-verify.
          CASCN_CHECK(Wait(router.value()->Submit(
                               tenant_of(i),
                               Request::Create(id, replays[i][0].user)))
                          .status.ok());
          for (size_t step = 1; step < replays[i].size(); ++step) {
            const AdoptionEvent& e = replays[i][step];
            CASCN_CHECK(Wait(router.value()->Submit(
                                 tenant_of(i),
                                 Request::Append(id, e.user, e.parents[0],
                                                 e.time)))
                            .status.ok());
          }
          p = Wait(router.value()->Submit(tenant_of(i), Request::Predict(id)));
          ++relearned;
        }
        CASCN_CHECK(p.status.ok() && !p.stale) << id << ": " << p.status;
        CASCN_CHECK(p.log_prediction == forecasts[i])
            << id << " drifted across the supervisor restart";
      }
      std::printf("supervisor drill: shard %d auto-restarted in %.0f ms, "
                  "%zu sessions re-created bit-identical\n",
                  crash_victim, healed_ms, relearned);
    }

    if (!flight_dir.empty()) {
      // On-demand black-box dump: every surviving shard's ring plus the
      // router's own, appended as JSON lines under --flight_dir.
      const Status dumped =
          router.value()->DumpFlightRecorders("demo_on_demand");
      CASCN_CHECK(dumped.ok()) << dumped;
      std::printf("flight recorders dumped to %s/flight_*.jsonl\n",
                  flight_dir.c_str());
    }

    obs::MetricsRegistry registry;
    router.value()->ExportToRegistry(registry);
    std::printf("\ncluster registry:\n%s", registry.TextSnapshot().c_str());
    const std::string cluster_metrics_json = registry.JsonSnapshot();
    linger();
    // The supervisor, watchdog targets and debug handlers all capture the
    // router; stop every one of them before it goes away.
    if (supervisor) supervisor->Stop();
    if (watchdog) watchdog->Stop();
    if (debug_server) debug_server->Stop();
    router.value().reset();

    obs::ShutdownDumpOptions dump;
    dump.trace_path = trace_out;
    dump.metrics_path = metrics_out;
    dump.metrics_json_override = cluster_metrics_json;
    dump.telemetry = {telemetry.get()};
    CASCN_CHECK(obs::ShutdownDump(dump).ok());
    if (!metrics_out.empty())
      std::printf("metrics snapshot written to %s\n", metrics_out.c_str());
    return 0;
  }

  // 4. Serve from the checkpoint (a fresh model, nothing reused).
  serve::ServiceOptions service_opts;
  service_opts.num_workers = workers;
  service_opts.queue_capacity = 8192;
  service_opts.sessions.observation_window = window;
  service_opts.sessions.capacity = 8192;
  auto service = serve::PredictionService::CreateFromCheckpoint(service_opts,
                                                                ckpt);
  CASCN_CHECK(service.ok()) << service.status();
  if (debug_server) {
    service.value()->RegisterDebugEndpoints(*debug_server);
    watchdog->Watch(service.value()->MakeWatchdogTarget("serve"));
  }
  std::printf("service up: %d workers, queue capacity %zu\n",
              service.value()->num_workers(), service_opts.queue_capacity);
  std::printf("replaying %zu live cascades...\n", replays.size());
  std::vector<double> final_counts(replays.size(), 0.0);
  std::vector<std::thread> drivers;
  for (int c = 0; c < clients; ++c) {
    drivers.emplace_back([&, c] {
      // Each client owns sessions c, c+clients, ...; all clients run
      // concurrently, so sessions from every client overlap in time.
      for (size_t i = static_cast<size_t>(c); i < replays.size();
           i += static_cast<size_t>(clients)) {
        const std::string id = "live-" + std::to_string(i);
        CASCN_CHECK(
            Wait(service.value()->Submit(
                     Request::Create(id, replays[i][0].user)))
                .status.ok());
      }
      bool progressed = true;
      for (size_t step = 1; progressed; ++step) {
        progressed = false;
        for (size_t i = static_cast<size_t>(c); i < replays.size();
             i += static_cast<size_t>(clients)) {
          if (step >= replays[i].size()) continue;
          progressed = true;
          const AdoptionEvent& e = replays[i][step];
          const auto append = Wait(service.value()->Submit(Request::Append(
              "live-" + std::to_string(i), e.user, e.parents[0], e.time)));
          CASCN_CHECK(append.status.ok()) << append.status;
        }
      }
      for (size_t i = static_cast<size_t>(c); i < replays.size();
           i += static_cast<size_t>(clients)) {
        const auto p = Wait(service.value()->Submit(
            Request::Predict("live-" + std::to_string(i))));
        CASCN_CHECK(p.status.ok()) << p.status;
        final_counts[i] = p.count_prediction;
      }
    });
  }
  for (auto& d : drivers) d.join();

  const size_t live_sessions = service.value()->sessions().size();
  std::printf("served %zu sessions (%zu still live)\n", replays.size(),
              live_sessions);
  std::printf("\nsample forecasts (observed first hour -> expected further "
              "adoptions):\n");
  for (size_t i = 0; i < std::min<size_t>(5, replays.size()); ++i)
    std::printf("  live-%zu: observed %zu, forecast %+.1f\n", i,
                replays[i].size(), final_counts[i]);

  // 5. Metrics: bridge the serve counters into the service's registry so
  // one snapshot carries everything (plus queue depth and batch sizes).
  service.value()->Shutdown();
  const auto snapshot = service.value()->metrics().TakeSnapshot();
  std::printf("\n%s", snapshot.ToString().c_str());
  serve::ExportToRegistry(snapshot, service.value()->registry());
  std::printf("\nunified registry:\n%s",
              service.value()->registry().TextSnapshot().c_str());
  std::printf("\ntrainer registry:\n%s",
              obs::MetricsRegistry::Get().TextSnapshot().c_str());
  // The service-local registry dies with the service; snapshot it now so
  // the exit-time dump can still write it.
  const std::string service_metrics_json =
      service.value()->registry().JsonSnapshot();

  // 6. Exit-time flush. Destroy the service *first* so the spans its
  // destructor records land in the trace instead of being dropped, then
  // dump every observability surface in one call.
  linger();
  if (watchdog) watchdog->Stop();  // its serve target captures the service
  if (debug_server) debug_server->Stop();
  service.value().reset();
  obs::ShutdownDumpOptions dump;
  dump.trace_path = trace_out;
  dump.metrics_path = metrics_out;
  dump.metrics_json_override = service_metrics_json;
  dump.telemetry = {telemetry.get()};
  CASCN_CHECK(obs::ShutdownDump(dump).ok());
  if (!metrics_out.empty())
    std::printf("metrics snapshot written to %s\n", metrics_out.c_str());
  if (!trace_out.empty())
    std::printf("trace with %zu events written to %s "
                "(open in chrome://tracing or ui.perfetto.dev)\n",
                obs::Tracer::Get().event_count(), trace_out.c_str());
  return 0;
}
