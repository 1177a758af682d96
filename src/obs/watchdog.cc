#include "obs/watchdog.h"

#include <cstdio>
#include <sstream>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace cascn::obs {

namespace {

// File-name-safe rendering of a target name.
std::string SanitizeName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                    c == '.';
    if (!ok) c = '_';
  }
  return out;
}

}  // namespace

Watchdog::Watchdog(WatchdogOptions options) : options_(std::move(options)) {}

Watchdog::~Watchdog() { Stop(); }

void Watchdog::Watch(WatchTarget target) {
  CASCN_CHECK(target.progress != nullptr)
      << "watch target '" << target.name << "' needs a progress function";
  TargetState state;
  state.target = std::move(target);
  state.last_progress = state.target.progress();
  state.last_change = options_.clock ? options_.clock()
                                     : std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mutex_);
  targets_.push_back(std::move(state));
}

void Watchdog::Start() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (running_) return;
    running_ = true;
    stop_requested_ = false;
  }
  // Stall dumps read the tracer's open-span table; without sampling the
  // table is empty and a dump says nothing about WHAT is stuck.
  Tracer::Get().EnableSampling();
  thread_ = std::thread([this] { Loop(); });
}

void Watchdog::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!running_) return;
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  std::lock_guard<std::mutex> lock(mutex_);
  running_ = false;
}

void Watchdog::Loop() {
  const auto period = std::chrono::duration<double, std::milli>(
      options_.poll_ms > 0.0 ? options_.poll_ms : 50.0);
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_requested_) {
    if (stop_cv_.wait_for(
            lock,
            std::chrono::duration_cast<std::chrono::milliseconds>(period),
            [this] { return stop_requested_; }))
      break;
    lock.unlock();
    PollOnce();
    lock.lock();
  }
}

void Watchdog::PollOnce() {
  const auto now = options_.clock ? options_.clock()
                                  : std::chrono::steady_clock::now();
  // Detection runs under the mutex (progress/busy are cheap atomic reads by
  // contract); reactions (dump + hooks) run unlocked so a slow on_stall
  // never blocks Watch()/StatusJson(). Reaction data is COPIED out — a
  // concurrent Watch() may reallocate targets_, so pointers into it must
  // not cross the unlock.
  struct Reaction {
    std::string name;
    uint64_t last_progress = 0;
    std::function<void()> hook;
  };
  std::vector<Reaction> fired;
  std::vector<Reaction> recovered;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (TargetState& state : targets_) {
      const uint64_t progress = state.target.progress();
      const bool busy = state.target.busy ? state.target.busy() : false;
      if (progress != state.last_progress) {
        state.last_progress = progress;
        state.last_change = now;
        if (state.stalled) {
          state.stalled = false;
          recoveries_.fetch_add(1, std::memory_order_relaxed);
          recovered.push_back(
              {state.target.name, progress, state.target.on_recover});
        }
      } else if (!busy) {
        // Idle: nothing to do is not a stall. Keep the window fresh so a
        // later busy period is measured from its own start.
        if (!state.stalled) state.last_change = now;
      } else if (!state.stalled) {
        const double quiet_ms =
            std::chrono::duration<double, std::milli>(now -
                                                      state.last_change)
                .count();
        if (quiet_ms > options_.stall_ms) {
          state.stalled = true;
          ++state.stalls;
          stalls_.fetch_add(1, std::memory_order_relaxed);
          fired.push_back(
              {state.target.name, progress, state.target.on_stall});
        }
      }
    }
  }
  for (const Reaction& reaction : fired) {
    MetricsRegistry::Get().GetCounter("watchdog_stalls_total").Increment();
    CASCN_LOG(WARNING) << "watchdog: target '" << reaction.name
                    << "' stalled (no progress for > " << options_.stall_ms
                    << " ms with work pending)";
    DumpStall(reaction.name, reaction.last_progress);
    if (reaction.hook) reaction.hook();
  }
  for (const Reaction& reaction : recovered) {
    MetricsRegistry::Get()
        .GetCounter("watchdog_recoveries_total")
        .Increment();
    CASCN_LOG(INFO) << "watchdog: target '" << reaction.name
                    << "' recovered";
    if (reaction.hook) reaction.hook();
  }
}

void Watchdog::DumpStall(const std::string& name, uint64_t last_progress) {
  if (options_.anomaly_dir.empty()) return;
  const uint64_t seq = dump_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  const std::string path = StrFormat(
      "%s/watchdog_%s.%05llu.json", options_.anomaly_dir.c_str(),
      SanitizeName(name).c_str(), static_cast<unsigned long long>(seq));
  std::ostringstream out;
  out << StrFormat(
      "{\"event\": \"watchdog_stall\", \"target\": \"%s\", "
      "\"stall_ms\": %.1f, \"last_progress\": %llu, \"open_spans\": ",
      JsonEscape(name).c_str(), options_.stall_ms,
      static_cast<unsigned long long>(last_progress));
  out << Tracer::Get().OpenSpansJson() << "}\n";
  const std::string body = out.str();
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    CASCN_LOG(WARNING) << "watchdog: cannot write stall dump " << path;
    return;
  }
  std::fwrite(body.data(), 1, body.size(), file);
  std::fclose(file);
  std::lock_guard<std::mutex> lock(mutex_);
  last_dump_path_ = path;
}

std::string Watchdog::last_dump_path() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return last_dump_path_;
}

std::string Watchdog::StatusJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  out << "[";
  bool first = true;
  for (const TargetState& state : targets_) {
    if (!first) out << ",";
    first = false;
    out << StrFormat(
        "\n{\"target\": \"%s\", \"stalled\": %s, \"stalls\": %llu, "
        "\"last_progress\": %llu}",
        JsonEscape(state.target.name).c_str(),
        state.stalled ? "true" : "false",
        static_cast<unsigned long long>(state.stalls),
        static_cast<unsigned long long>(state.last_progress));
  }
  out << "\n]";
  return out.str();
}

}  // namespace cascn::obs
