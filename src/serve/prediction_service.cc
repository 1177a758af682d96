#include "serve/prediction_service.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/math_util.h"
#include "common/string_util.h"
#include "fault/fault.h"
#include "obs/trace.h"
#include "serve/checkpoint.h"

namespace cascn::serve {

PredictionService::PredictionService(const ServiceOptions& options)
    : options_(options),
      queue_depth_(registry_.GetGauge("serve_queue_depth")),
      batch_size_(
          registry_.GetHistogram("serve_batch_size", /*num_buckets=*/10)),
      unfinished_from_(static_cast<size_t>(std::max(options.num_workers, 1))) {
  CASCN_CHECK(options.num_workers >= 1);
  CASCN_CHECK(options.queue_capacity >= 1);
  CASCN_CHECK(options.max_batch >= 1);
  for (std::atomic<uint64_t>& from : unfinished_from_) from = kNoBatch;
  if (!options.flight_dump_path.empty())
    flight_.SetDumpPath(options.flight_dump_path);
  sessions_ = std::make_unique<SessionManager>(options.sessions, &metrics_);
}

Result<std::unique_ptr<PredictionService>> PredictionService::Start(
    std::unique_ptr<PredictionService> service, const ModelFactory& factory) {
  for (int i = 0; i < service->options_.num_workers; ++i) {
    CASCN_ASSIGN_OR_RETURN(auto model, factory());
    if (model == nullptr)
      return Status::InvalidArgument("model factory produced a null model");
    service->models_.push_back(std::move(model));
  }
  service->pool_ = std::make_unique<parallel::ThreadPool>(
      static_cast<size_t>(service->options_.num_workers));
  for (int i = 0; i < service->options_.num_workers; ++i)
    service->pool_->Submit([svc = service.get(), i] { svc->WorkerLoop(i); });
  return service;
}

Result<std::unique_ptr<PredictionService>> PredictionService::Create(
    const ServiceOptions& options, const ModelFactory& factory) {
  // No make_unique: the constructor is private.
  std::unique_ptr<PredictionService> service(new PredictionService(options));
  return Start(std::move(service), factory);
}

Result<std::unique_ptr<CascadeRegressor>>
PredictionService::LoadReplicaWithRetry(const std::string& checkpoint_path,
                                        const ServiceOptions& options,
                                        ServeMetrics* metrics) {
  Status last = Status::OK();
  for (int attempt = 0; attempt <= options.load_retries; ++attempt) {
    if (attempt > 0) {
      if (metrics != nullptr) metrics->Increment(Counter::kLoadRetries);
      const double backoff_ms =
          options.load_retry_backoff_ms * static_cast<double>(1 << (attempt - 1));
      std::this_thread::sleep_for(std::chrono::microseconds(
          static_cast<int64_t>(backoff_ms * 1000.0)));
    }
    Result<std::unique_ptr<CascnModel>> model =
        LoadCascnCheckpoint(checkpoint_path);
    if (model.ok())
      return std::unique_ptr<CascadeRegressor>(std::move(model).value());
    last = model.status();
    // Only transient failures are worth retrying; a structurally invalid
    // checkpoint (bad magic, wrong model type) will not heal with time.
    if (last.code() != StatusCode::kIoError) break;
  }
  return last;
}

Result<std::unique_ptr<PredictionService>>
PredictionService::CreateFromCheckpoint(const ServiceOptions& options,
                                        const std::string& checkpoint_path) {
  std::unique_ptr<PredictionService> service(new PredictionService(options));
  ServeMetrics* metrics = &service->metrics_;
  service->checkpoint_path_ = checkpoint_path;
  return Start(std::move(service),
               [checkpoint_path, &options,
                metrics]() -> Result<std::unique_ptr<CascadeRegressor>> {
                 return LoadReplicaWithRetry(checkpoint_path, options, metrics);
               });
}

Status PredictionService::ReloadCheckpoint(const std::string& checkpoint_path) {
  std::lock_guard<std::mutex> reload_lock(reload_mutex_);
  // Validate on one replica before touching the serving set: a corrupt or
  // torn checkpoint must leave the current version serving.
  std::vector<std::shared_ptr<CascadeRegressor>> fresh;
  for (int i = 0; i < options_.num_workers; ++i) {
    Result<std::unique_ptr<CascadeRegressor>> model =
        LoadReplicaWithRetry(checkpoint_path, options_, &metrics_);
    if (!model.ok()) {
      metrics_.Increment(Counter::kReloadFailures);
      metrics_.SetHealth(Health::kDegraded);
      CASCN_LOG(WARNING) << "checkpoint reload from " << checkpoint_path
                         << " failed (replica " << i
                         << "); keeping the current version serving: "
                         << model.status();
      flight_.TriggerDump("reload_rollback");
      return model.status();
    }
    fresh.push_back(std::move(model).value());
  }
  {
    std::lock_guard<std::mutex> lock(models_mutex_);
    models_ = std::move(fresh);
  }
  // Cached predictions were computed by the replaced version.
  sessions_->InvalidateCachedPredictions();
  checkpoint_path_ = checkpoint_path;
  metrics_.Increment(Counter::kReloads);
  metrics_.SetHealth(Health::kHealthy);
  return Status::OK();
}

PredictionService::~PredictionService() { Shutdown(); }

size_t PredictionService::queue_depth() const {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  return queue_.size();
}

uint64_t PredictionService::accepted() const {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  return accepted_;
}

uint64_t PredictionService::oldest_unfinished() const {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  uint64_t oldest = queue_.empty() ? accepted_ : queue_.front().number;
  for (const std::atomic<uint64_t>& from : unfinished_from_)
    oldest = std::min(oldest, from.load());
  return oldest;
}

void PredictionService::Shutdown() {
  {
    std::unique_lock<std::mutex> lock(shutdown_mutex_);
    if (shutdown_started_) {
      // A concurrent or repeated call: wait for the first one to finish.
      shutdown_cv_.wait(lock, [this] { return shutdown_done_; });
      return;
    }
    shutdown_started_ = true;
  }
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    shutting_down_ = true;
  }
  queue_cv_.notify_all();
  if (pool_ != nullptr) pool_->Wait();
  // Workers are gone; whatever is still queued was never executed. Fail
  // each request with a status naming the shutdown, so callers can tell a
  // drained request from backpressure.
  std::deque<Queued> drained;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    drained.swap(queue_);
    queue_depth_.Set(0.0);
  }
  for (Queued& request : drained)
    Finish(request,
           {Status::Unavailable("service shut down before executing this "
                                "request (drained from queue by Shutdown)")},
           End::kDrained);
  metrics_.SetHealth(Health::kUnhealthy);
  {
    std::lock_guard<std::mutex> lock(shutdown_mutex_);
    shutdown_done_ = true;
  }
  shutdown_cv_.notify_all();
}

void PredictionService::Finish(Queued& request, ServeResponse response,
                               End end, Clock::time_point start,
                               uint16_t fault_bits) {
  obs::FlightOp op = obs::FlightOp::kUnknown;
  switch (request.op) {
    case Request::Op::kCreate: op = obs::FlightOp::kCreate; break;
    case Request::Op::kAppend: op = obs::FlightOp::kAppend; break;
    case Request::Op::kPredict: op = obs::FlightOp::kPredict; break;
    case Request::Op::kClose: op = obs::FlightOp::kClose; break;
  }
  obs::FlightRecord record = obs::FlightRecord::Of(
      request.ctx, options_.shard_id, op, response.status.code());
  record.fault_bits = fault_bits;
  const auto ns = [](Clock::duration d) {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
  };
  const bool deadline_exceeded =
      end == End::kRan &&
      response.status.code() == StatusCode::kDeadlineExceeded;
  switch (end) {
    case End::kRan:
      record.queue_wait_ns = ns(start - request.enqueue_time);
      record.exec_ns = ns(Clock::now() - start);
      metrics_.RecordLatencyMicros(record.exec_ns / 1000);
      if (!response.status.ok()) metrics_.Increment(Counter::kErrors);
      if (deadline_exceeded) metrics_.Increment(Counter::kDeadlineExceeded);
      break;
    case End::kRejected:
      metrics_.Increment(Counter::kRequestsRejected);
      break;
    case End::kDrained:
      metrics_.Increment(Counter::kShutdownDrained);
      break;
  }
  // Everything is recorded before the promise is fulfilled, so a caller
  // that waits on the future observes the record (and any anomaly dump)
  // already written.
  flight_.Append(record);
  if (options_.on_complete) options_.on_complete(request.ctx, record);
  if (deadline_exceeded) flight_.TriggerDump("deadline_exceeded");
  response.trace_id = request.ctx.trace_id;
  request.promise.set_value(std::move(response));
}

Result<std::future<ServeResponse>> PredictionService::Submit(
    Request request, obs::RequestContext ctx) {
  // Every request carries a context from here on: the flight recorder and
  // SLI attribution need a trace id even when the caller (a bare service
  // user, not the cluster router) did not mint one. Minting here is that
  // caller's edge, so this is where its deadline is resolved.
  if (!ctx.valid()) {
    ctx.trace_id = obs::NewTraceId();
    ctx.ResolveDeadline(request.deadline_ms, options_.default_deadline_ms);
  }
  if (ctx.session_id.empty()) ctx.session_id = std::move(request.session_id);
  CASCN_TRACE_SPAN_ID("serve_enqueue", ctx.trace_id, obs::SpanFlow::kOut);
  Queued queued{request.op,
                request.user,
                request.parent_node,
                request.time,
                std::move(ctx),
                Clock::now(),
                {}};
  std::future<ServeResponse> future = queued.promise.get_future();
  {
    std::unique_lock<std::mutex> lock(queue_mutex_);
    if (shutting_down_ || queue_.size() >= options_.queue_capacity) {
      const Status status =
          Status::Unavailable(shutting_down_ ? "service is shutting down"
                                             : "request queue is full");
      lock.unlock();
      Finish(queued, {status}, End::kRejected);
      return status;
    }
    queued.number = accepted_++;
    queue_.push_back(std::move(queued));
    metrics_.Increment(Counter::kRequestsTotal);
    queue_depth_.Set(static_cast<double>(queue_.size()));
  }
  queue_cv_.notify_one();
  return future;
}

ServeResponse Wait(Result<std::future<ServeResponse>> submitted) {
  if (!submitted.ok()) return ServeResponse{submitted.status()};
  return submitted.value().get();
}

ServeResponse PredictionService::Execute(const Queued& request,
                                         CascadeRegressor& model,
                                         uint16_t& fault_bits) {
  const char* span_name = "serve_request";
  switch (request.op) {
    case Request::Op::kCreate:
      span_name = "serve_create";
      break;
    case Request::Op::kAppend:
      span_name = "serve_append";
      break;
    case Request::Op::kPredict:
      span_name = "serve_predict";
      break;
    case Request::Op::kClose:
      span_name = "serve_close";
      break;
  }
  // The execute span terminates the request's cross-thread flow chain
  // started by serve_enqueue (and stepped by serve_queue_wait).
  CASCN_TRACE_SPAN_ID(span_name, request.ctx.trace_id, obs::SpanFlow::kIn);
  const std::string& session_id = request.ctx.session_id;
  ServeResponse response;
  switch (request.op) {
    case Request::Op::kCreate:
      response.status = sessions_->Create(session_id, request.user);
      break;
    case Request::Op::kAppend:
      response.status = sessions_->Append(session_id, request.user,
                                          request.parent_node, request.time);
      break;
    case Request::Op::kPredict: {
      if (fault::MaybeDelay(kFaultServeSlowPredict))
        fault_bits |= obs::kFaultBitSlowPredict;
      if (!options_.extra_predict_fault_point.empty() &&
          fault::MaybeDelay(options_.extra_predict_fault_point))
        fault_bits |= obs::kFaultBitExtraPredict;
      auto prediction = sessions_->PredictLog(session_id, model);
      if (prediction.ok()) {
        response.log_prediction = prediction.value();
        response.count_prediction = Exp2m1(prediction.value());
      } else {
        response.status = prediction.status();
      }
      break;
    }
    case Request::Op::kClose:
      response.status = sessions_->Close(session_id);
      break;
  }
  return response;
}

void PredictionService::WorkerLoop(int worker_index) {
  std::vector<Queued> batch;
  while (true) {
    batch.clear();
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock,
                     [this] { return shutting_down_ || !queue_.empty(); });
      // Exit promptly on shutdown: whatever is still queued gets a named
      // shutdown status from Shutdown() instead of late execution.
      if (shutting_down_) return;
      const size_t take = std::min(queue_.size(),
                                   static_cast<size_t>(options_.max_batch));
      for (size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      queue_depth_.Set(static_cast<double>(queue_.size()));
      unfinished_from_[static_cast<size_t>(worker_index)] =
          batch.front().number;
    }
    // The replica is re-acquired per batch so a hot reload takes effect at
    // the next batch boundary without pausing serving.
    std::shared_ptr<CascadeRegressor> model;
    {
      std::lock_guard<std::mutex> lock(models_mutex_);
      model = models_[static_cast<size_t>(worker_index)];
    }
    obs::Tracer& tracer = obs::Tracer::Get();
    if (tracer.enabled()) {
      // Queue-wait spans land in the worker's buffer and step the request's
      // flow chain: enqueue (client thread) -> queue wait -> execute (here).
      // A span ends at the batch's dequeue; the flight record's queue wait
      // runs on to the request's own start.
      const auto dequeue_time = Clock::now();
      for (const Queued& request : batch)
        tracer.RecordSpan("serve_queue_wait", request.enqueue_time,
                          dequeue_time, request.ctx.trace_id,
                          obs::SpanFlow::kStep);
    }
    batch_size_.Record(batch.size());
    CASCN_TRACE_SPAN("serve_batch");
    if (batch.size() > 1) {
      metrics_.Increment(Counter::kBatches);
      metrics_.Increment(Counter::kBatchedRequests,
                         static_cast<uint64_t>(batch.size()));
    }
    for (size_t i = 0; i < batch.size(); ++i) {
      Queued& request = batch[i];
      const auto start = Clock::now();
      uint16_t fault_bits = 0;
      ServeResponse response;
      if (request.ctx.has_deadline && start > request.ctx.deadline) {
        // Fail fast: the caller has already given up; executing now would
        // only burn a worker on a dead request.
        response.status = Status::DeadlineExceeded(
            "deadline expired before execution for session " +
            request.ctx.session_id);
      } else {
        response = Execute(request, *model, fault_bits);
      }
      Finish(request, std::move(response), End::kRan, start, fault_bits);
      unfinished_from_[static_cast<size_t>(worker_index)] =
          i + 1 < batch.size() ? batch[i + 1].number : kNoBatch;
      // One beat per terminal request: the watchdog reads this as "the
      // drain loop is alive". Stamped after completion, so a request stuck
      // inside Execute() reads as a stall, not progress.
      heartbeat_.Beat();
    }
  }
}

obs::WatchTarget PredictionService::MakeWatchdogTarget(std::string name) {
  obs::WatchTarget target;
  target.name = std::move(name);
  target.progress = [this] { return heartbeat_.count(); };
  target.busy = [this] { return queue_depth() > 0; };
  target.on_stall = [this] { NoteWatchdogStall(); };
  target.on_recover = [this] { NoteWatchdogRecovery(); };
  return target;
}

void PredictionService::NoteWatchdogStall() {
  // Only a healthy service transitions: a reload-degraded or shut-down
  // service keeps its existing (more specific) state.
  if (metrics_.health() == Health::kHealthy) {
    metrics_.SetHealth(Health::kDegraded);
    watchdog_degraded_.store(true, std::memory_order_relaxed);
  }
  flight_.TriggerDump("watchdog_stall");
}

void PredictionService::NoteWatchdogRecovery() {
  if (watchdog_degraded_.exchange(false, std::memory_order_relaxed) &&
      metrics_.health() == Health::kDegraded)
    metrics_.SetHealth(Health::kHealthy);
}

void PredictionService::RegisterDebugEndpoints(obs::DebugServer& server) {
  server.AddStatusSection("serve", [this] {
    return StrFormat("queue_depth: %zu\nheartbeats: %llu\n",
                     queue_depth(),
                     static_cast<unsigned long long>(heartbeat_.count())) +
           metrics_.TakeSnapshot().ToString();
  });
  server.AddMetricsExporter([this](obs::MetricsRegistry& registry) {
    ExportToRegistry(metrics_.TakeSnapshot(), registry);
    registry_.ExportTo(registry);
  });
  server.AddEndpoint("/flightz", [this](const obs::HttpRequest&) {
    obs::HttpResponse response;
    response.content_type = "application/x-ndjson";
    response.body = flight_.ToJsonLines("flightz");
    return response;
  });
}

}  // namespace cascn::serve
