// TrainState: everything TrainRegressor needs to continue a run from an
// epoch boundary as if it had never stopped — parameters, Adam moments and
// step count, the shuffle generator's state, early-stopping bookkeeping and
// the loss history.
//
// File layout, a sealed frame (common/sealed_frame.h):
//
//   uint32  magic 0x54535254 ("TRST")
//   uint32  version (kTrainStateVersion)
//   int32   next_epoch, stagnant, best_epoch
//   double  learning_rate, best_validation_msle, output_offset
//   uint64  global_step
//   int64   skipped_steps, adam_t
//   uint64  rng words s[0..3]; uint8 has_cached_normal; double cached_normal
//   tensor lists params, adam_m, adam_v, best_weights
//       (uint32 count; per tensor: int32 rows, int32 cols, rows*cols doubles)
//   double lists history_train_loss, history_validation_msle
//       (uint32 count, doubles)
//   uint32  CRC-32 of every preceding byte
//
// SaveTrainState serializes in memory and writes atomically
// (common/file_util.h), so a crash mid-write leaves the previous state file
// intact. LoadTrainState rejects a truncated, bit-flipped, version-skewed
// or internally inconsistent file with a Status, never a crash.

#ifndef CASCN_CORE_TRAIN_STATE_H_
#define CASCN_CORE_TRAIN_STATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "tensor/tensor.h"

namespace cascn {

inline constexpr uint32_t kTrainStateMagic = 0x54535254;  // "TRST"
inline constexpr uint32_t kTrainStateVersion = 1;

/// The trainer's resumable state after a completed epoch.
struct TrainState {
  int next_epoch = 1;
  double learning_rate = 0.0;
  /// Epochs since the last validation improvement.
  int stagnant = 0;
  int best_epoch = 0;
  double best_validation_msle = 0.0;
  uint64_t global_step = 0;
  int64_t skipped_steps = 0;
  Rng::State rng;
  double output_offset = 0.0;
  std::vector<Tensor> params;
  int64_t adam_t = 0;
  std::vector<Tensor> adam_m;
  std::vector<Tensor> adam_v;
  /// Parameters at the best epoch so far; empty before any improvement.
  std::vector<Tensor> best_weights;
  /// Per completed epoch, equal lengths.
  std::vector<double> history_train_loss;
  std::vector<double> history_validation_msle;
};

/// Writes `state` to `path` atomically with a trailing CRC-32.
Status SaveTrainState(const std::string& path, const TrainState& state);

/// Reads a state file written by SaveTrainState. IoError for an unreadable,
/// truncated or corrupt file (bad CRC); InvalidArgument for a foreign or
/// version-mismatched file, or one whose tensor lists disagree in count or
/// shape.
Result<TrainState> LoadTrainState(const std::string& path);

}  // namespace cascn

#endif  // CASCN_CORE_TRAIN_STATE_H_
