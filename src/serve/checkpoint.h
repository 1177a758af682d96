// Checkpoint files: durable serialization of trained models, so a model can
// be trained once (e.g. by examples/quickstart) and served later from disk
// by a different process.
//
// A checkpoint is a sealed frame (common/sealed_frame.h):
//
//   uint32  magic          0x4E435343 ("CSCN")
//   uint32  format version (kCheckpointVersion)
//   string  model type               e.g. "cascn"
//   string  config block             key=value lines, one per line
//   double  output offset            (CascadeRegressor calibration)
//   ----    Module::Save payload     (named parameter tensors)
//   uint32  footer magic   0x4E444E45 ("ENDN")
//   uint32  CRC-32 of every preceding byte   (version >= 2)
//
// Version 2 (current) appends a CRC-32 of the whole file, so a single
// flipped bit — not just truncation — is detected; version 1 files (no
// checksum) are still read. The footer magic distinguishes a cleanly
// written file from one truncated mid-stream. Corrupt, truncated, or
// mismatched files are rejected with a descriptive error Status — never a
// crash — and a failed load leaves the destination module untouched.
//
// Durability: WriteCheckpointFile is atomic (temp file + rename via
// common/file_util.h). A crash mid-write — exercised by the
// "checkpoint.torn_write" fault point — leaves the previous checkpoint
// intact; a torn image can only ever exist under the temp name.

#ifndef CASCN_SERVE_CHECKPOINT_H_
#define CASCN_SERVE_CHECKPOINT_H_

#include <memory>
#include <string>

#include "common/result.h"
#include "core/cascn_model.h"
#include "nn/module.h"

namespace cascn::serve {

inline constexpr uint32_t kCheckpointMagic = 0x4E435343;   // "CSCN"
inline constexpr uint32_t kCheckpointFooter = 0x4E444E45;  // "ENDN"
/// Current write version. Version 2 added the trailing CRC-32; version 1
/// files are still accepted by every loader.
inline constexpr uint32_t kCheckpointVersion = 2;
inline constexpr uint32_t kCheckpointMinVersion = 1;

/// Fault-injection points (src/fault) wired through checkpoint I/O.
inline constexpr char kFaultCheckpointTornWrite[] = "checkpoint.torn_write";
inline constexpr char kFaultCheckpointWriteFail[] = "checkpoint.write_fail";
inline constexpr char kFaultCheckpointLoadFail[] = "checkpoint.load_fail";
inline constexpr char kFaultCheckpointLoadSlow[] = "checkpoint.load_slow";

/// Everything readable without knowing the concrete model class.
struct CheckpointHeader {
  uint32_t version = kCheckpointVersion;
  std::string model_type;
  std::string config_text;
  double output_offset = 0.0;
};

/// Writes a checkpoint for any Module-backed model, atomically (temp +
/// rename), reporting open/write failures with the path and
/// strerror(errno). `model_type` tags the concrete class (readers refuse a
/// mismatched tag); `config_text` is an opaque block the loader uses to
/// reconstruct the model shape.
Status WriteCheckpointFile(const std::string& path,
                           const std::string& model_type,
                           const std::string& config_text,
                           const nn::Module& module, double output_offset);

/// Reads and validates a checkpoint's frame (CRC included) and its header.
Result<CheckpointHeader> ReadCheckpointHeaderFile(const std::string& path);

/// Loads a checkpoint into an already-constructed module whose parameter
/// names/shapes must match the file. Fails on magic/version/type mismatch,
/// truncation, corruption or trailing garbage, leaving `module` unchanged.
/// On success `*header` (optional) receives the header.
Status LoadCheckpointIntoFile(const std::string& path,
                              const std::string& expected_model_type,
                              nn::Module& module,
                              CheckpointHeader* header = nullptr);

/// CascnConfig <-> config-block text (key=value lines). Parsing rejects
/// unknown keys and malformed values so version skew is loud, and values no
/// model can run with (InvalidArgument): caslaplacian_alpha outside (0, 1)
/// or NaN, and a size, order, sequence bound or interval count below 1.
std::string EncodeCascnConfig(const CascnConfig& config);
Result<CascnConfig> ParseCascnConfig(const std::string& text);

/// Model-type tag used by CasCN checkpoints.
inline constexpr char kCascnModelType[] = "cascn";

/// Saves a trained CasCN (parameters + config + calibration offset).
Status SaveCascnCheckpoint(const std::string& path, const CascnModel& model);

/// Rebuilds a CascnModel from a checkpoint written by SaveCascnCheckpoint:
/// parses the config, constructs the model, loads parameters, and restores
/// the output offset.
Result<std::unique_ptr<CascnModel>> LoadCascnCheckpoint(
    const std::string& path);

}  // namespace cascn::serve

#endif  // CASCN_SERVE_CHECKPOINT_H_
