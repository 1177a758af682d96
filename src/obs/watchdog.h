// Stall watchdog: cheap per-worker heartbeats plus a background sampler
// that turns "a worker stopped making progress while work was queued" into
// a metric bump, a self-dump of diagnostics, and a health transition —
// instead of a silent wedge an operator discovers hours later.
//
//   obs::WorkerHeartbeat heartbeat;         // stamped by the worker loop
//   ...
//   obs::Watchdog watchdog({.poll_ms = 50, .stall_ms = 1000,
//                           .anomaly_dir = "anomalies"});
//   watchdog.Watch({.name = "shard-0",
//                   .progress = [&] { return heartbeat.count(); },
//                   .busy = [&] { return service.queue_depth() > 0; },
//                   .on_stall = [&] { /* degrade health, dump rings */ },
//                   .on_recover = [&] { /* restore health */ }});
//   watchdog.Start();
//
// Detection: a target is STALLED when its progress counter has not moved
// for longer than `stall_ms` while `busy()` reports pending work. An idle
// target (no work queued) re-arms continuously and can never false-
// positive. Each stall episode fires exactly once — on_stall runs when the
// stall is first detected, then the target stays latched until progress
// resumes, which fires on_recover and re-arms detection for the next
// episode. No re-fire spam while a long stall persists.
//
// Reaction: every stall bumps the global `watchdog_stalls_total` counter,
// writes the open-span table (see Tracer::OpenSpans — Start() enables span
// sampling so the table is populated) to a sequenced JSON file in
// `anomaly_dir`, and runs the target's on_stall hook — which is where the
// serving layer dumps flight recorders and flips shard health to Degraded.

#ifndef CASCN_OBS_WATCHDOG_H_
#define CASCN_OBS_WATCHDOG_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace cascn::obs {

/// Liveness stamp for a worker loop: one relaxed increment per unit of
/// progress (a drained request, a trained batch). The watchdog samples the
/// count; any change between samples is progress.
class WorkerHeartbeat {
 public:
  void Beat() { count_.fetch_add(1, std::memory_order_relaxed); }
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> count_{0};
};

/// One thing the watchdog watches. All callbacks run on the watchdog
/// thread; they must be thread-safe, must not block for long, and must
/// outlive the watchdog (Stop() the watchdog before destroying whatever
/// they capture).
struct WatchTarget {
  std::string name;
  /// Monotonic progress indicator (typically WorkerHeartbeat::count).
  std::function<uint64_t()> progress;
  /// Whether the target currently has pending work. Stalls are only
  /// declared while busy; an idle target re-arms continuously.
  std::function<bool()> busy;
  /// Fired once per stall episode, after the watchdog's own reaction
  /// (counter bump + open-span dump). Optional.
  std::function<void()> on_stall;
  /// Fired when progress resumes after a stall. Optional.
  std::function<void()> on_recover;
};

struct WatchdogOptions {
  /// Sampling period of the background thread.
  double poll_ms = 50.0;
  /// No progress for longer than this, while busy, declares a stall.
  double stall_ms = 1000.0;
  /// Directory stall dumps (open-span tables) are written to, as
  /// `watchdog_<target>.<seq>.json`. Empty disables file dumps (the
  /// counter and hooks still fire).
  std::string anomaly_dir;
  /// Injectable clock for deterministic tests.
  // knob: test-seam
  std::function<std::chrono::steady_clock::time_point()> clock;
};

/// Background stall detector. Thread-safe.
class Watchdog {
 public:
  explicit Watchdog(WatchdogOptions options);
  ~Watchdog();  // implies Stop()

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Registers a target. Safe while running.
  void Watch(WatchTarget target);

  /// Starts the sampling thread (idempotent). Also enables tracer span
  /// sampling so stall dumps contain the open-span table.
  void Start();
  /// Stops and joins the sampling thread (idempotent).
  void Stop();

  /// Runs one detection pass inline (what the background thread does every
  /// poll_ms). Exposed for deterministic tests with an injected clock.
  void PollOnce();

  /// Stall episodes detected since construction. Also exported as the
  /// global `watchdog_stalls_total` counter.
  uint64_t stalls_total() const {
    return stalls_.load(std::memory_order_relaxed);
  }
  /// Recoveries observed (progress resumed after a stall).
  uint64_t recoveries_total() const {
    return recoveries_.load(std::memory_order_relaxed);
  }
  /// Path of the most recent stall dump ("" before the first).
  std::string last_dump_path() const;

  /// Per-target state as a JSON array, for /statusz.
  std::string StatusJson() const;

 private:
  struct TargetState {
    WatchTarget target;
    uint64_t last_progress = 0;
    std::chrono::steady_clock::time_point last_change;
    bool stalled = false;
    uint64_t stalls = 0;
  };

  void Loop();
  void DumpStall(const std::string& name, uint64_t last_progress);

  const WatchdogOptions options_;
  std::atomic<uint64_t> stalls_{0};
  std::atomic<uint64_t> recoveries_{0};
  std::atomic<uint64_t> dump_seq_{0};

  mutable std::mutex mutex_;  // guards targets_, last_dump_path_, thread state
  std::vector<TargetState> targets_;
  std::string last_dump_path_;
  bool running_ = false;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;
  std::thread thread_;
};

}  // namespace cascn::obs

#endif  // CASCN_OBS_WATCHDOG_H_
