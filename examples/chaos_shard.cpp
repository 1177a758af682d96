// Chaos smoke: prove the sharded serving tier survives a shard kill.
//
// Drives a 3-shard ShardRouter through the full failure story:
//
//   1. Seed load: --sessions sessions with small cascades, one recorded
//      reference prediction each.
//   2. Tenant quota: a greedy tenant bursts past its token bucket and is
//      turned away with ResourceExhausted — distinct from every other
//      failure status in this file.
//   3. Shard kill mid-load: the "cluster.shard_crash" fault point destroys
//      one shard (no drain) while predicts are in flight. Cluster health
//      must degrade, requests pinned to the dead shard must fail, and every
//      survivor must still predict bit-identically to its reference.
//   4. Rejoin: RestartShard() brings the shard back, health recovers, and
//      the lost sessions are re-created from their event logs — after which
//      their predictions match the originals exactly.
//   5. Live rebalance: RemoveShard() drains a shard and moves every
//      session to the survivors; no session is lost and every one predicts
//      bit-identically.
//   6. Supervisor drill: a second router with the resilience control plane
//      on (--allow_stale semantics) loses a shard under sustained load.
//      Stale last-good answers bridge the outage with zero errors, the
//      ShardSupervisor auto-restarts the shard no earlier than its backoff
//      and within bounds, and every lost session re-creates bit-identical.
//      supervisor_restarts_total / stale_serves_total land in the metrics
//      registry.
//
// Every step is asserted with CASCN_CHECK, so the binary is its own test:
// exit status 0 means the whole story held together.
//
//   ./chaos_shard [--sessions=240] [--shards=3] [--out=/tmp/chaos_shard]

#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "cluster/shard_router.h"
#include "common/cli_flags.h"
#include "common/logging.h"
#include "core/cascn_model.h"
#include "fault/fault.h"
#include "serve/checkpoint.h"

namespace cascn {
namespace {

using serve::Request;
using serve::Wait;

int Main(int argc, char** argv) {
  CliFlags flags;
  CASCN_CHECK(flags.Parse(argc, argv).ok());
  const int sessions = static_cast<int>(flags.GetInt("sessions", 240));
  const int shards = static_cast<int>(flags.GetInt("shards", 3));
  const std::string out = flags.GetString("out", "/tmp/chaos_shard");
  CASCN_CHECK(shards >= 3) << "--shards must be >= 3 (one dies, one drains)";
  fault::FaultRegistry::Get().Clear();

  // A small untrained model is enough: the scenario tests serving
  // mechanics, and "bit-identical" only needs determinism, not accuracy.
  CascnConfig config;
  config.padded_size = 32;
  config.hidden_dim = 12;
  config.cheb_order = 2;
  config.seed = 42;
  CascnModel model(config);
  model.set_output_offset(2.0);
  const std::string ckpt = out + ".ckpt";
  CASCN_CHECK(serve::SaveCascnCheckpoint(ckpt, model).ok());

  cluster::ShardRouterOptions options;
  options.num_shards = shards;
  options.shard.num_workers = 2;
  options.shard.sessions.observation_window = 60.0;
  options.shard.sessions.capacity = static_cast<size_t>(sessions) + 64;
  options.admission.tokens_per_second = 1.0;  // named tenants: tiny rate...
  options.admission.burst = 8.0;              // ...and an 8-request burst
  // The whole chaos story runs in seconds of wall clock, so shrink the SLO
  // burn windows to the same timescale: a tenant that burns its error
  // budget degrades cluster health, and a couple of quiet seconds later the
  // burn ages out and health recovers.
  options.slo.fast_window_seconds = 1;
  options.slo.slow_window_seconds = 2;
  auto made = cluster::ShardRouter::CreateFromCheckpoint(options, ckpt);
  CASCN_CHECK(made.ok()) << made.status();
  auto router = std::move(made).value();
  std::printf("chaos_shard: %d shards up, seeding %d sessions\n", shards,
              sessions);

  // Phase 1: seed sessions (the empty tenant is quota-exempt bulk load)
  // and record each session's reference prediction and its pinned shard.
  const auto session_id = [](int i) { return "sess-" + std::to_string(i); };
  const auto replay_session_on = [&](cluster::ShardRouter& target, int i) {
    const std::string id = session_id(i);
    CASCN_CHECK(Wait(target.Submit("", Request::Create(id, i % 7))).status.ok())
        << id;
    for (int e = 0; e < 2 + i % 3; ++e) {
      CASCN_CHECK(Wait(target.Submit(
                           "", Request::Append(id, 10 + e + i, e,
                                               1.0 + e + 0.25 * (i % 4))))
                      .status.ok())
          << id << " event " << e;
    }
  };
  const auto replay_session = [&](int i) { replay_session_on(*router, i); };
  std::vector<double> forecasts(sessions);
  std::vector<int> home(sessions);
  for (int i = 0; i < sessions; ++i) {
    replay_session(i);
    const serve::ServeResponse r =
        Wait(router->Submit("", Request::Predict(session_id(i))));
    CASCN_CHECK(r.status.ok() && std::isfinite(r.log_prediction)) << r.status;
    forecasts[i] = r.log_prediction;
    home[i] = router->ShardOf(session_id(i));
  }

  // Phase 2: a greedy tenant bursts 32 predicts against its quota of 8.
  int quota_ok = 0, quota_rejected = 0;
  for (int i = 0; i < 32; ++i) {
    const serve::ServeResponse r =
        Wait(router->Submit("greedy", Request::Predict(session_id(0))));
    if (r.status.ok()) {
      ++quota_ok;
    } else {
      CASCN_CHECK(r.status.code() == StatusCode::kResourceExhausted)
          << r.status;
      ++quota_rejected;
    }
  }
  CASCN_CHECK(quota_ok >= 1 && quota_rejected >= 1)
      << "quota never engaged: ok=" << quota_ok
      << " rejected=" << quota_rejected;
  std::printf("greedy tenant: %d admitted, %d rejected ResourceExhausted\n",
              quota_ok, quota_rejected);

  // The burst burned the greedy tenant's error budget across both SLO
  // windows, so the cluster reports degraded — on SLO grounds alone, every
  // shard is still up. Waiting out the slow window clears the burn.
  CASCN_CHECK(router->ClusterHealth() == serve::Health::kDegraded);
  const auto wait_for_burn_to_clear = [&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(
        1000 * options.slo.slow_window_seconds + 200));
  };
  wait_for_burn_to_clear();
  CASCN_CHECK(router->ClusterHealth() == serve::Health::kHealthy);
  std::printf("greedy tenant burn degraded the cluster, then aged out of "
              "the %ds SLO window\n", options.slo.slow_window_seconds);

  // Phase 3: kill shard `victim` mid-load. The fault point is evaluated on
  // every routed request; the 40th one pulls the trigger.
  const int victim = 1;
  CASCN_CHECK(fault::FaultRegistry::Get()
                  .Configure(std::string(cluster::kFaultShardCrash) +
                             "=nth:40@" + std::to_string(victim))
                  .ok());
  int dead_session_failures = 0;
  for (int i = 0; i < sessions; ++i) {
    const serve::ServeResponse r =
        Wait(router->Submit("", Request::Predict(session_id(i))));
    if (r.status.ok()) {
      CASCN_CHECK(r.log_prediction == forecasts[i])
          << session_id(i) << " drifted mid-crash";
    } else {
      // Pinned to the crashed shard (predicts mutate nothing, so the only
      // failure cause in this wave is the shard dying underneath the pin).
      CASCN_CHECK(home[i] == victim) << session_id(i) << ": " << r.status;
      ++dead_session_failures;
    }
  }
  CASCN_CHECK(
      fault::FaultRegistry::Get().stats(cluster::kFaultShardCrash).fires >= 1)
      << "shard_crash fault never fired";
  fault::FaultRegistry::Get().Clear();
  CASCN_CHECK(dead_session_failures > 0)
      << "shard_crash fault never fired: no pinned session failed";
  CASCN_CHECK(router->ClusterHealth() == serve::Health::kDegraded);
  const auto crashed_snapshot = router->TakeSnapshot();
  CASCN_CHECK(crashed_snapshot.crashed_shards == 1);
  std::printf("shard %d crashed mid-load: %d pinned sessions unavailable, "
              "cluster degraded, survivors bit-identical\n",
              victim, dead_session_failures);

  // Phase 4: rejoin, then re-create the lost sessions from their event
  // logs. Every session pinned to the victim is gone — including the ones
  // that got a prediction out before the 40th request pulled the trigger.
  // Same events, same model => the exact same prediction bits.
  CASCN_CHECK(router->RestartShard(victim).ok());
  // The crash wave's Unavailable failures count against the default
  // tenant's SLO; age them out so the recovery check below sees shard
  // health alone.
  wait_for_burn_to_clear();
  CASCN_CHECK(router->ClusterHealth() == serve::Health::kHealthy);
  int recreated = 0;
  for (int i = 0; i < sessions; ++i) {
    if (home[i] != victim) continue;
    replay_session(i);
    const serve::ServeResponse r =
        Wait(router->Submit("", Request::Predict(session_id(i))));
    CASCN_CHECK(r.status.ok()) << r.status;
    CASCN_CHECK(r.log_prediction == forecasts[i])
        << session_id(i) << " drifted across crash + re-create";
    ++recreated;
  }
  CASCN_CHECK(recreated >= dead_session_failures)
      << recreated << " re-created vs " << dead_session_failures
      << " observed failures";
  std::printf("shard %d rejoined: healthy again, %d sessions re-created "
              "bit-identical\n",
              victim, recreated);

  // Phase 5: rebalance away the highest shard. Every session must survive
  // the move.
  const int drained = shards - 1;
  CASCN_CHECK(router->RemoveShard(drained).ok());
  CASCN_CHECK(router->num_shards() == shards - 1);
  CASCN_CHECK(router->ClusterHealth() == serve::Health::kHealthy);
  for (int i = 0; i < sessions; ++i) {
    const serve::ServeResponse r =
        Wait(router->Submit("", Request::Predict(session_id(i))));
    CASCN_CHECK(r.status.ok()) << session_id(i) << ": " << r.status;
    CASCN_CHECK(r.log_prediction == forecasts[i])
        << session_id(i) << " drifted across the rebalance";
  }
  std::printf("shard %d drained: all %d sessions predict bit-identical on "
              "%d shards\n",
              drained, sessions, router->num_shards());

  // Phase 6: supervisor drill on a fresh router with the resilience plane
  // on. A shard dies under sustained load; stale last-good answers bridge
  // the outage, the supervisor restarts the shard on its backoff schedule,
  // and the lost sessions re-create bit-identical — zero session loss.
  cluster::ShardRouterOptions drill_options = options;
  drill_options.resilience.enabled = true;
  drill_options.allow_stale = true;
  auto drill_made =
      cluster::ShardRouter::CreateFromCheckpoint(drill_options, ckpt);
  CASCN_CHECK(drill_made.ok()) << drill_made.status();
  auto drill = std::move(drill_made).value();
  for (int i = 0; i < sessions; ++i) {
    replay_session_on(*drill, i);
    // The predict both checks determinism across router instances and
    // primes the last-good cache the outage below will serve from.
    const serve::ServeResponse r =
        Wait(drill->Submit("", Request::Predict(session_id(i))));
    CASCN_CHECK(r.status.ok() && r.log_prediction == forecasts[i])
        << session_id(i) << " drifted across router instances";
  }

  cluster::SupervisorOptions sup_options;
  sup_options.poll_interval_ms = 5.0;
  sup_options.restart_backoff_ms = 100.0;
  cluster::ShardSupervisor supervisor(*drill, sup_options);
  supervisor.Start();

  const int drill_victim = 0;
  const auto crash_at = std::chrono::steady_clock::now();
  drill->CrashShard(drill_victim);
  CASCN_CHECK(drill->ClusterHealth() == serve::Health::kDegraded);
  // Sustained load across the outage: every predict must produce an
  // answer — fresh from a live shard or stale from the last-good cache —
  // never an error, until the supervisor has healed the cluster.
  int stale_bridged = 0, fresh_during_outage = 0;
  bool outage_over = false;
  while (!outage_over && supervisor.restarts_total() == 0) {
    CASCN_CHECK(std::chrono::steady_clock::now() - crash_at <
                std::chrono::seconds(5))
        << "supervisor never restarted shard " << drill_victim;
    for (int i = 0; i < sessions; ++i) {
      const serve::ServeResponse r =
          Wait(drill->Submit("", Request::Predict(session_id(i))));
      if (!r.status.ok()) {
        // While the shard is crashed, a lost session degrades to a stale
        // answer — so an honest NotFound can only mean RestartShard already
        // cleared the crashed set mid-pass and the revived (empty) shard
        // answered for a pin it no longer holds. The restart counter may
        // lag that clear by a beat; the wait below picks it up.
        CASCN_CHECK(r.status.code() == StatusCode::kNotFound)
            << session_id(i) << " errored mid-outage: " << r.status;
        outage_over = true;
        break;
      }
      CASCN_CHECK(r.log_prediction == forecasts[i]) << session_id(i);
      if (r.stale) {
        ++stale_bridged;
        CASCN_CHECK(r.stale_age_ms >= 0.0);
      } else {
        ++fresh_during_outage;
      }
    }
  }
  while (supervisor.restarts_total() == 0) {
    CASCN_CHECK(std::chrono::steady_clock::now() - crash_at <
                std::chrono::seconds(5))
        << "restart landed but the supervisor never counted it";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const double healed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - crash_at)
          .count();
  supervisor.Stop();
  CASCN_CHECK(supervisor.restarts_total() >= 1);
  // The restart respected the backoff floor and stayed within bounds (the
  // ceiling is generous: one backoff plus scheduling slack, far below the
  // 5 s watchdog above).
  CASCN_CHECK(healed_ms >= sup_options.restart_backoff_ms)
      << "restarted after " << healed_ms << " ms, before the "
      << sup_options.restart_backoff_ms << " ms backoff";
  CASCN_CHECK(stale_bridged >= 1)
      << "the outage was never bridged by a stale answer";
  CASCN_CHECK(fresh_during_outage >= 1)
      << "surviving shards went silent during the outage";

  // Zero session loss: sessions pinned to the restarted (now empty) shard
  // re-create from their event logs and predict bit-identical; everyone
  // else never noticed.
  int relearned = 0;
  for (int i = 0; i < sessions; ++i) {
    serve::ServeResponse r =
        Wait(drill->Submit("", Request::Predict(session_id(i))));
    if (!r.status.ok() || r.stale) {
      replay_session_on(*drill, i);
      r = Wait(drill->Submit("", Request::Predict(session_id(i))));
      ++relearned;
    }
    CASCN_CHECK(r.status.ok() && !r.stale) << session_id(i) << ": "
                                           << r.status;
    CASCN_CHECK(r.log_prediction == forecasts[i])
        << session_id(i) << " drifted across the supervisor restart";
  }
  CASCN_CHECK(relearned >= 1) << "no session was pinned to the victim";

  // The drill's counters are scrape-visible.
  cluster::ResilienceControl* rc = drill->resilience();
  CASCN_CHECK(rc != nullptr);
  CASCN_CHECK(rc->supervisor_restarts() >= 1);
  CASCN_CHECK(rc->stale_serves() >= static_cast<uint64_t>(stale_bridged));
  obs::MetricsRegistry registry;
  drill->ExportToRegistry(registry);
  const std::string scrape = registry.TextSnapshot();
  CASCN_CHECK(scrape.find("cluster_supervisor_restarts_total") !=
              std::string::npos);
  CASCN_CHECK(scrape.find("cluster_stale_serves_total") != std::string::npos);
  std::printf(
      "supervisor drill: shard %d healed in %.0f ms (backoff %.0f ms), "
      "%d stale-bridged predicts, %d sessions re-created, zero errors\n",
      drill_victim, healed_ms, sup_options.restart_backoff_ms, stale_bridged,
      relearned);

  const auto snapshot = router->TakeSnapshot();
  std::printf("%s", snapshot.ToString().c_str());
  std::printf("chaos_shard: OK\n");
  return 0;
}

}  // namespace
}  // namespace cascn

int main(int argc, char** argv) { return cascn::Main(argc, argv); }
