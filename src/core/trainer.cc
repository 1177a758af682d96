#include "core/trainer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <limits>
#include <numeric>

#include "common/logging.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "core/train_state.h"
#include "fault/fault.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "parallel/parallel_for.h"

namespace cascn {

namespace {

using Clock = std::chrono::steady_clock;

/// The non-finite guard multiplies the learning rate by this after a
/// skipped step.
constexpr double kNonfiniteLrBackoff = 0.5;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double SecondsBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

/// Whether per-sample work may be fanned out over the shared pool.
bool RunConcurrently(const CascadeRegressor& model) {
  return parallel::ConfiguredThreads() > 1 &&
         model.SupportsConcurrentForward();
}

}  // namespace

double EvaluateMsle(CascadeRegressor& model,
                    const std::vector<CascadeSample>& samples) {
  CASCN_CHECK(!samples.empty());
  std::vector<double> squared_error(samples.size());
  // PredictValue's NoGradGuard is per thread, so it must run inside each
  // task: pool threads keep recording graphs for the next training batch.
  auto eval_one = [&](size_t i) {
    const double err = model.PredictValue(samples[i]) - samples[i].log_label;
    squared_error[i] = err * err;
  };
  if (RunConcurrently(model)) {
    parallel::ParallelFor(samples.size(), eval_one);
  } else {
    for (size_t i = 0; i < samples.size(); ++i) eval_one(i);
  }
  double total = 0;  // summed in sample order: identical at any thread count
  for (const double sq : squared_error) total += sq;
  return total / static_cast<double>(samples.size());
}

std::string EpochStats::ToTelemetryJson(const std::string& model_name) const {
  return obs::JsonObjectBuilder()
      .Add("event", "epoch")
      .Add("model", model_name)
      .Add("epoch", epoch)
      .Add("train_loss", train_loss)
      .Add("validation_msle", validation_msle)
      .Add("epoch_seconds", epoch_seconds)
      .Add("forward_seconds", forward_seconds)
      .Add("backward_seconds", backward_seconds)
      .Add("reduce_seconds", reduce_seconds)
      .Add("optimizer_seconds", optimizer_seconds)
      .Add("validation_seconds", validation_seconds)
      .Add("grad_norm", grad_norm)
      .Add("learning_rate", learning_rate)
      .Add("num_batches", num_batches)
      .Add("skipped_steps", skipped_steps)
      .Add("threads", threads)
      .Build();
}

TrainResult TrainRegressor(CascadeRegressor& model,
                           const CascadeDataset& dataset,
                           const TrainerOptions& options) {
  CASCN_CHECK(!dataset.train.empty() && !dataset.validation.empty());
  CASCN_CHECK(options.max_epochs >= 1 && options.batch_size >= 1);

  double mean_label = 0;
  for (const auto& s : dataset.train) mean_label += s.log_label;
  model.set_output_offset(mean_label /
                          static_cast<double>(dataset.train.size()));

  std::vector<ag::Variable> params = model.TrainableParameters();
  nn::Adam::Options adam_opts;
  adam_opts.learning_rate = options.learning_rate;
  adam_opts.clip_norm = options.clip_norm;
  nn::Adam optimizer(params, adam_opts);

  Rng rng(options.seed);
  std::vector<size_t> order(dataset.train.size());
  std::iota(order.begin(), order.end(), 0);

  // Resolved once: registry lookups take a mutex and must stay off the
  // batch loop.
  obs::Counter& epochs_total =
      obs::MetricsRegistry::Get().GetCounter("train_epochs_total");
  obs::Counter& batches_total =
      obs::MetricsRegistry::Get().GetCounter("train_batches_total");
  obs::Counter& samples_total =
      obs::MetricsRegistry::Get().GetCounter("train_samples_total");
  obs::Counter& nonfinite_total =
      obs::MetricsRegistry::Get().GetCounter("train_nonfinite_steps_total");
  obs::Counter& lr_backoffs_total =
      obs::MetricsRegistry::Get().GetCounter("train_lr_backoffs_total");
  obs::Counter& state_writes_total =
      obs::MetricsRegistry::Get().GetCounter("train_state_writes_total");
  obs::Counter& state_write_failures_total = obs::MetricsRegistry::Get()
      .GetCounter("train_state_write_failures_total");
  obs::Counter& resumes_total =
      obs::MetricsRegistry::Get().GetCounter("train_resumes_total");
  obs::Gauge& grad_norm_gauge =
      obs::MetricsRegistry::Get().GetGauge("train_grad_norm");
  obs::Gauge& epoch_gauge =
      obs::MetricsRegistry::Get().GetGauge("train_epoch");

  TrainResult result;
  result.best_validation_msle = std::numeric_limits<double>::infinity();
  std::vector<Tensor> best_weights;
  int stagnant = 0;
  int start_epoch = 1;
  uint64_t global_step = 0;

  // Resume from a prior run's state, when asked and the file is usable. A
  // missing file is a silent fresh start; a corrupt or mismatched one is
  // logged and ignored, never fatal.
  if (!options.checkpoint_path.empty() && options.resume &&
      std::ifstream(options.checkpoint_path).good()) {
    Result<TrainState> loaded = LoadTrainState(options.checkpoint_path);
    Status restore_status = loaded.status();
    if (loaded.ok()) {
      TrainState& st = loaded.value();
      if (st.params.size() != params.size()) {
        restore_status = Status::InvalidArgument(StrFormat(
            "train state holds %zu parameters, model has %zu",
            st.params.size(), params.size()));
      } else {
        restore_status = optimizer.RestoreState(
            nn::Adam::State{st.adam_t, st.adam_m, st.adam_v});
      }
      if (restore_status.ok()) {
        for (size_t i = 0; i < params.size(); ++i)
          params[i].mutable_value() = st.params[i];
        optimizer.set_learning_rate(st.learning_rate);
        rng.RestoreState(st.rng);
        model.set_output_offset(st.output_offset);
        start_epoch = st.next_epoch;
        stagnant = st.stagnant;
        global_step = st.global_step;
        result.best_epoch = st.best_epoch;
        result.best_validation_msle = st.best_validation_msle;
        result.skipped_steps = st.skipped_steps;
        result.resumed_from_checkpoint = true;
        best_weights = std::move(st.best_weights);
        for (size_t i = 0; i < st.history_train_loss.size(); ++i) {
          EpochStats past;
          past.epoch = static_cast<int>(i) + 1;
          past.train_loss = st.history_train_loss[i];
          past.validation_msle = st.history_validation_msle[i];
          result.history.push_back(past);
        }
        // A state saved by an early-stopped run must not train further.
        if (stagnant > options.patience) start_epoch = options.max_epochs + 1;
        resumes_total.Increment();
        if (options.verbose) {
          CASCN_LOG(INFO) << model.name() << " resuming from "
                          << options.checkpoint_path << " at epoch "
                          << start_epoch;
        }
      }
    }
    if (!restore_status.ok()) {
      CASCN_LOG(WARNING) << model.name() << " ignoring unusable train state "
                         << options.checkpoint_path << ": "
                         << restore_status << "; starting fresh";
    }
  }

  // Last-good snapshot the non-finite guard rolls back to. Updated after
  // every successful optimizer step.
  std::vector<Tensor> good_params;
  good_params.reserve(params.size());
  for (const auto& p : params) good_params.push_back(p.value());
  nn::Adam::State good_adam = optimizer.SaveState();

  // Writes the resumable state for `completed_epoch`; failures are logged
  // and counted (training proceeds, the previous state file survives).
  auto write_state = [&](int completed_epoch) {
    TrainState st;
    st.next_epoch = completed_epoch + 1;
    st.learning_rate = optimizer.learning_rate();
    st.stagnant = stagnant;
    st.best_epoch = result.best_epoch;
    st.best_validation_msle = result.best_validation_msle;
    st.global_step = global_step;
    st.skipped_steps = result.skipped_steps;
    st.rng = rng.SaveState();
    st.output_offset = model.output_offset();
    for (const auto& p : params) st.params.push_back(p.value());
    nn::Adam::State adam = optimizer.SaveState();
    st.adam_t = adam.t;
    st.adam_m = std::move(adam.m);
    st.adam_v = std::move(adam.v);
    st.best_weights = best_weights;
    for (const EpochStats& past : result.history) {
      st.history_train_loss.push_back(past.train_loss);
      st.history_validation_msle.push_back(past.validation_msle);
    }
    const Status status = SaveTrainState(options.checkpoint_path, st);
    if (status.ok()) {
      state_writes_total.Increment();
    } else {
      state_write_failures_total.Increment();
      CASCN_LOG(WARNING) << model.name() << " failed writing train state: "
                         << status;
    }
  };

  for (int epoch = start_epoch; epoch <= options.max_epochs; ++epoch) {
    CASCN_TRACE_SPAN("train_epoch");
    epoch_gauge.Set(static_cast<double>(epoch));
    const auto epoch_start = Clock::now();
    // Re-derive the permutation from the identity so the epoch's order is a
    // pure function of the Rng state — the state file can then resume it.
    std::iota(order.begin(), order.end(), 0);
    rng.Shuffle(order);
    EpochStats stats;
    double epoch_loss = 0;
    double grad_norm_sum = 0;
    size_t processed = 0;
    size_t counted_samples = 0;  // samples in non-skipped batches
    const bool concurrent = RunConcurrently(model);
    while (processed < order.size()) {
      CASCN_TRACE_SPAN("train_batch");
      const size_t batch_end =
          std::min(processed + options.batch_size, order.size());
      const size_t bn = batch_end - processed;
      // Mean-loss gradient: every per-sample loss is scaled by 1/bn before
      // its own Backward(), which matches backpropping Mean(losses) once.
      const double inv = 1.0 / static_cast<double>(bn);

      // One gradient sink per sample: each forward+backward captures its
      // parameter gradients privately, so samples can run on any thread.
      std::vector<ag::GradSink> sinks(bn);
      std::vector<double> sample_loss(bn);
      std::vector<double> sample_forward_s(bn);
      std::vector<double> sample_backward_s(bn);
      auto run_sample = [&](size_t s) {
        const CascadeSample& sample = dataset.train[order[processed + s]];
        const auto t0 = Clock::now();
        ag::Variable loss;
        {
          CASCN_TRACE_SPAN("forward");
          loss = nn::SquaredError(model.PredictLogCalibrated(sample),
                                  sample.log_label);
        }
        sample_loss[s] = loss.value().At(0, 0);
        const auto t1 = Clock::now();
        {
          CASCN_TRACE_SPAN("backward");
          ag::ScopedGradCapture capture(&sinks[s]);
          ag::ScalarMul(loss, inv).Backward();
        }
        sample_forward_s[s] = SecondsBetween(t0, t1);
        sample_backward_s[s] = SecondsSince(t1);
      };

      const auto region_start = Clock::now();
      if (concurrent) {
        parallel::ParallelFor(bn, run_sample);
      } else {
        for (size_t s = 0; s < bn; ++s) run_sample(s);
      }
      const double region_seconds = SecondsSince(region_start);
      // Apportion the fused region's wall-clock between the two phases by
      // the per-sample time spent in each, keeping phase sums <= epoch
      // wall-clock even when many workers overlapped.
      double forward_total = 0, backward_total = 0, batch_loss_sum = 0;
      for (size_t s = 0; s < bn; ++s) {
        forward_total += sample_forward_s[s];
        backward_total += sample_backward_s[s];
        batch_loss_sum += sample_loss[s];
      }
      if (forward_total + backward_total > 0) {
        const double scale =
            region_seconds / (forward_total + backward_total);
        stats.forward_seconds += forward_total * scale;
        stats.backward_seconds += backward_total * scale;
      }

      // Fixed-order pairwise tree reduction over sample indices: the
      // floating-point combination order is a function of bn alone, never
      // of which thread produced which sink, so results are bit-identical
      // at any thread count. Pairs within a level are disjoint and may
      // themselves run on the pool.
      const auto reduce_start = Clock::now();
      for (size_t stride = 1; stride < bn; stride *= 2) {
        std::vector<size_t> lefts;
        for (size_t i = 0; i + stride < bn; i += 2 * stride)
          lefts.push_back(i);
        if (concurrent && lefts.size() > 1) {
          parallel::ParallelFor(lefts.size(), [&](size_t p) {
            sinks[lefts[p]].Merge(sinks[lefts[p] + stride]);
          });
        } else {
          for (const size_t i : lefts) sinks[i].Merge(sinks[i + stride]);
        }
      }
      sinks[0].Flush();
      stats.reduce_seconds += SecondsSince(reduce_start);

      const double batch_grad_norm = nn::GlobalGradNorm(params);
      // Non-finite guard. The injected poison (keyed by the global step so
      // a resumed run sees the identical fault schedule) and a genuinely
      // diverged batch take the same path: skip the optimizer step, roll
      // parameters and Adam state back to the last good step, and back the
      // learning rate off.
      const double batch_loss = fault::PoisonNaN(
          kFaultTrainerNanLoss, batch_loss_sum / static_cast<double>(bn),
          global_step);
      if (!std::isfinite(batch_loss) || !std::isfinite(batch_grad_norm)) {
        optimizer.ZeroGrad();
        for (size_t i = 0; i < params.size(); ++i)
          params[i].mutable_value() = good_params[i];
        CASCN_CHECK(optimizer.RestoreState(good_adam).ok());
        optimizer.set_learning_rate(optimizer.learning_rate() *
                                    kNonfiniteLrBackoff);
        nonfinite_total.Increment();
        lr_backoffs_total.Increment();
        ++stats.skipped_steps;
        ++result.skipped_steps;
        if (options.verbose) {
          CASCN_LOG(WARNING)
              << model.name() << " non-finite step " << global_step
              << " skipped (loss=" << batch_loss
              << " grad_norm=" << batch_grad_norm << "), lr backed off to "
              << optimizer.learning_rate();
        }
      } else {
        epoch_loss += batch_loss_sum;
        counted_samples += bn;
        grad_norm_sum += batch_grad_norm;
        grad_norm_gauge.Set(batch_grad_norm);
        const auto step_start = Clock::now();
        {
          CASCN_TRACE_SPAN("optimizer_step");
          optimizer.Step();
        }
        stats.optimizer_seconds += SecondsSince(step_start);
        for (size_t i = 0; i < params.size(); ++i)
          good_params[i] = params[i].value();
        good_adam = optimizer.SaveState();
      }
      ++global_step;
      ++stats.num_batches;
      batches_total.Increment();
      samples_total.Increment(static_cast<uint64_t>(bn));
      // Liveness for the stall watchdog: stamped once per batch so a hung
      // forward/backward reads as a stall, not as progress.
      if (options.heartbeat != nullptr) options.heartbeat->Beat();
      processed = batch_end;
    }
    stats.epoch = epoch;
    stats.train_loss = counted_samples == 0
                           ? 0.0
                           : epoch_loss / static_cast<double>(counted_samples);
    {
      CASCN_TRACE_SPAN("validate");
      const auto validation_start = Clock::now();
      stats.validation_msle = EvaluateMsle(model, dataset.validation);
      stats.validation_seconds = SecondsSince(validation_start);
    }
    stats.epoch_seconds = SecondsSince(epoch_start);
    const int stepped_batches = stats.num_batches - stats.skipped_steps;
    stats.grad_norm =
        stepped_batches == 0
            ? 0.0
            : grad_norm_sum / static_cast<double>(stepped_batches);
    stats.learning_rate = optimizer.learning_rate();
    stats.threads = static_cast<int>(parallel::ConfiguredThreads());
    epochs_total.Increment();
    result.history.push_back(stats);
    if (options.verbose) {
      CASCN_LOG(INFO) << model.name() << " epoch " << epoch
                      << " train_loss=" << stats.train_loss
                      << " val_msle=" << stats.validation_msle
                      << StrFormat(" time=%.2fs grad_norm=%.3g",
                                   stats.epoch_seconds, stats.grad_norm);
    }
    if (options.telemetry != nullptr)
      options.telemetry->Emit(stats.ToTelemetryJson(model.name()));
    bool stop = false;
    if (stats.validation_msle < result.best_validation_msle - 1e-9) {
      result.best_validation_msle = stats.validation_msle;
      result.best_epoch = epoch;
      stagnant = 0;
      best_weights.clear();
      for (const auto& p : params) best_weights.push_back(p.value());
    } else if (++stagnant > options.patience) {
      stop = true;
    }
    // Epoch boundary reached: persist the resumable state. The final or
    // stopping epoch's state lets a resumed process see a finished run
    // instead of redoing the last epoch.
    if (!options.checkpoint_path.empty()) write_state(epoch);
    if (stop) break;
  }
  // Restore the best-epoch weights.
  if (!best_weights.empty()) {
    for (size_t i = 0; i < params.size(); ++i)
      params[i].mutable_value() = best_weights[i];
  }
  return result;
}

}  // namespace cascn
