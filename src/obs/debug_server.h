// Live introspection server: a tiny, dependency-free HTTP/1.1 endpoint for
// looking inside a RUNNING process, the pull-side complement to the
// push-side artifacts (trace files, flight dumps, telemetry) that only
// materialize at exit or on anomaly triggers.
//
//   auto server = obs::DebugServer::Start({.port = 8080});
//   // curl http://127.0.0.1:8080/statusz
//
// Built-in endpoints:
//   /statusz   build sha, uptime, config, plus registered status sections
//   /metricsz  unified metrics exposition (text; ?format=json for JSON) —
//              the process-global MetricsRegistry merged with every
//              registered exporter's output in one scrape-local registry
//   /tracez    per-span-name count/p50/p95 aggregates + the table of spans
//              open right now across threads (Start() enables tracer span
//              sampling to feed both)
//   /quitquitquit  graceful-exit request; 403 unless opted in
//
// /flightz and /sloz are registered by the layers that own the data (the
// shard router / prediction service) via AddEndpoint — obs cannot depend on
// serve or cluster.
//
// Security posture: binds 127.0.0.1 by default — the server is a local
// operator tool, never an internet-facing surface. It speaks just enough
// HTTP/1.1 for curl and a browser (GET, Connection: close, no keep-alive,
// no TLS). /quitquitquit is additionally gated behind
// DebugServerOptions::allow_quit so a stray local scrape cannot stop a
// serving process.
//
// Implementation: one dedicated thread runs a blocking poll() accept loop
// and serves each connection to completion — introspection traffic is a
// human with curl, not a fleet of scrapers, so single-threaded accept keeps
// the server ~free when idle and trivially safe. When the server is never
// started, no thread, socket, or sampling cost exists at all
// (servers_started() lets benchmarks CHECK this).

#ifndef CASCN_OBS_DEBUG_SERVER_H_
#define CASCN_OBS_DEBUG_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "obs/metrics_registry.h"

namespace cascn::obs {

/// One parsed request, enough for debug endpoints.
struct HttpRequest {
  std::string method;
  std::string path;  // without the query string
  std::map<std::string, std::string> query;

  std::string QueryOr(const std::string& key,
                      const std::string& fallback) const {
    const auto it = query.find(key);
    return it == query.end() ? fallback : it->second;
  }
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

struct DebugServerOptions {
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  int port = 0;
  /// Listen address. Localhost by default; see the security posture above
  /// before binding anything wider.
  std::string bind_address = "127.0.0.1";  // knob: deployment
  /// Opt-in gate for /quitquitquit; while false the endpoint answers 403.
  bool allow_quit = false;
};

/// The introspection server. Thread-safe; endpoints/sections/exporters may
/// be registered while serving. Handlers run on the server thread and must
/// outlive the server — Stop() it before destroying anything they capture.
class DebugServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  /// Binds, listens, and starts the serving thread. Enables tracer span
  /// sampling (the /tracez feed). Fails if the address/port cannot be
  /// bound.
  static Result<std::unique_ptr<DebugServer>> Start(
      DebugServerOptions options);

  ~DebugServer();  // implies Stop()

  DebugServer(const DebugServer&) = delete;
  DebugServer& operator=(const DebugServer&) = delete;

  /// Stops the serving thread and closes the socket. Idempotent.
  void Stop();

  /// The bound port (the actual one when options.port was 0).
  int port() const { return port_; }

  /// Registers `handler` for exact-match `path` (e.g. "/flightz").
  /// Replaces any previous handler for the path.
  void AddEndpoint(const std::string& path, Handler handler);
  /// Appends a named section to /statusz; `render` is called per request.
  void AddStatusSection(const std::string& title,
                        std::function<std::string()> render);
  /// Adds a `key = value` line to the /statusz config block.
  void AddConfig(const std::string& key, const std::string& value);
  /// Registers a metrics exporter: on every /metricsz scrape it is invoked
  /// with a scrape-local registry that already holds the process-global
  /// metrics; whatever it writes appears in the same exposition.
  void AddMetricsExporter(std::function<void(MetricsRegistry&)> exporter);

  /// True once /quitquitquit has been accepted (allow_quit only). The
  /// owning binary polls this to exit gracefully.
  bool quit_requested() const {
    return quit_requested_.load(std::memory_order_relaxed);
  }

  /// Debug servers ever started in this process. Benchmarks CHECK this is
  /// zero on their no-introspection baselines: proof the control plane
  /// costs nothing when not asked for.
  static uint64_t servers_started();

  /// CASCN_DEBUG_PORT environment variable as an int, or -1 when unset /
  /// unparseable. Binaries use it as the default for --debug_port.
  static int EnvPort();

 private:
  explicit DebugServer(DebugServerOptions options);

  Status Listen();
  void Loop();
  void HandleConnection(int fd);
  HttpResponse Dispatch(const HttpRequest& request);

  HttpResponse Statusz(const HttpRequest& request);
  HttpResponse Metricsz(const HttpRequest& request);
  HttpResponse Tracez(const HttpRequest& request);
  HttpResponse Quitquitquit(const HttpRequest& request);
  HttpResponse Index(const HttpRequest& request);

  const DebugServerOptions options_;
  const std::chrono::steady_clock::time_point start_time_;
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};  // written by Stop() to unblock poll()
  int port_ = 0;
  std::atomic<bool> quit_requested_{false};

  mutable std::mutex mutex_;  // guards the registration tables below
  std::map<std::string, Handler> endpoints_;
  std::vector<std::pair<std::string, std::function<std::string()>>>
      sections_;
  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<std::function<void(MetricsRegistry&)>> exporters_;

  std::mutex lifecycle_mutex_;  // guards running_ / thread_
  bool running_ = false;
  std::thread thread_;
};

/// Minimal blocking HTTP GET against 127.0.0.1:`port`, for tests and bench
/// self-checks. Returns {status code, body} or an error if the connection
/// or read fails.
struct HttpResult {
  int status = 0;
  std::string body;
};
Result<HttpResult> HttpGet(int port, const std::string& path_and_query,
                           double timeout_ms = 5000.0);

}  // namespace cascn::obs

#endif  // CASCN_OBS_DEBUG_SERVER_H_
