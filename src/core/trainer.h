// Shared training and evaluation loop (Algorithm 2). Any CascadeRegressor
// — CasCN, its variants, or the deep baselines — is trained with Adam on
// squared log error, with early stopping on validation MSLE and best-weight
// restoration.

#ifndef CASCN_CORE_TRAINER_H_
#define CASCN_CORE_TRAINER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/regressor.h"
#include "data/dataset.h"
#include "obs/telemetry.h"
#include "obs/watchdog.h"

namespace cascn {

/// Knobs of the training loop. The loop always shuffles the training order
/// per epoch, sets the model's output offset to the train-mean label before
/// training (see CascadeRegressor::set_output_offset), and, with a
/// checkpoint path, writes the state file at every epoch boundary.
struct TrainerOptions {
  int max_epochs = 12;
  int batch_size = 16;
  double learning_rate = 5e-3;
  double clip_norm = 5.0;
  /// Early stopping: epochs without validation improvement before halting
  /// (the paper stops after 10 stagnant iterations).
  int patience = 4;
  uint64_t seed = 7;
  /// Log per-epoch progress at INFO level.
  bool verbose = false;
  /// Receives one JSON object per epoch (timings, gradient norm, learning
  /// rate — every EpochStats field). Not owned; may be null (no streaming).
  obs::TelemetrySink* telemetry = nullptr;
  /// Liveness stamp for a stall watchdog: bumped once per completed batch,
  /// so a hung forward/backward/optimizer step reads as a stall. Not
  /// owned; may be null (no stamping).
  obs::WorkerHeartbeat* heartbeat = nullptr;
  /// Crash safety: when non-empty, the trainer writes a resumable state
  /// file (core/train_state.h) here at every epoch boundary.
  /// With `resume`, a valid existing file continues the run from its epoch;
  /// the resumed run's weights are bit-identical to an uninterrupted run at
  /// any thread count. A corrupt or mismatched file is logged and ignored
  /// (fresh start); a failed write is logged and counted, never fatal.
  std::string checkpoint_path;
  bool resume = true;
};

/// Fault-injection point (src/fault): poisons a batch loss with NaN, keyed
/// by the global step so interrupted-and-resumed runs see the identical
/// fault schedule.
inline constexpr char kFaultTrainerNanLoss[] = "trainer.nan_loss";

/// Per-epoch record, including wall-clock and optimization telemetry.
struct EpochStats {
  int epoch = 0;
  double train_loss = 0.0;
  double validation_msle = 0.0;
  /// Wall-clock of the whole epoch (training batches + validation pass).
  double epoch_seconds = 0.0;
  /// Per-phase wall-clock, summed over the epoch's batches. When the batch
  /// runs its samples concurrently, the fused forward+backward region's
  /// wall-clock is apportioned to the two phases in proportion to the
  /// per-sample time spent in each, so the phase columns still sum to at
  /// most epoch_seconds rather than to thread-count multiples of it.
  double forward_seconds = 0.0;    // loss-graph construction
  double backward_seconds = 0.0;   // backprop
  double reduce_seconds = 0.0;     // gradient tree reduction + flush
  double optimizer_seconds = 0.0;  // Adam step
  double validation_seconds = 0.0;
  /// Mean pre-clip global gradient L2 norm across the epoch's batches.
  double grad_norm = 0.0;
  double learning_rate = 0.0;
  int num_batches = 0;
  /// Batches whose optimizer step was skipped by the non-finite guard.
  int skipped_steps = 0;
  /// parallel::ConfiguredThreads() during this epoch (1 = serial path).
  int threads = 1;

  /// One flat JSON object with every field plus `"event": "epoch"` and the
  /// model name — the trainer's JSON-lines telemetry record.
  std::string ToTelemetryJson(const std::string& model_name) const;
};

/// Outcome of a training run.
struct TrainResult {
  std::vector<EpochStats> history;
  double best_validation_msle = 0.0;
  int best_epoch = 0;
  /// True when the run continued from TrainerOptions::checkpoint_path; the
  /// history then covers the whole run, with pre-resume epochs carrying
  /// losses only (no timings).
  bool resumed_from_checkpoint = false;
  /// Total batches skipped by the non-finite guard, across resumes.
  int64_t skipped_steps = 0;
};

/// MSLE (Eq. 20) of `model` over `samples`. When the model supports
/// concurrent forward and CASCN_THREADS > 1, per-sample errors are computed
/// on the shared pool; the final sum is always taken in sample order, so the
/// result is identical at any thread count.
double EvaluateMsle(CascadeRegressor& model,
                    const std::vector<CascadeSample>& samples);

/// Trains `model` on `dataset.train`, early-stopping on
/// `dataset.validation`, restoring the best-epoch weights before returning.
///
/// When `model.SupportsConcurrentForward()` and CASCN_THREADS > 1, each
/// batch's per-sample forward+backward passes run concurrently, every
/// worker capturing parameter gradients in its own ag::GradSink; the sinks
/// are then combined with a fixed-order tree reduction over sample indices
/// and flushed before the (single) Adam step. Because the floating-point
/// combination order depends only on sample indices, trained weights and
/// losses are bit-identical run-to-run at any thread count.
TrainResult TrainRegressor(CascadeRegressor& model,
                           const CascadeDataset& dataset,
                           const TrainerOptions& options);

}  // namespace cascn

#endif  // CASCN_CORE_TRAINER_H_
