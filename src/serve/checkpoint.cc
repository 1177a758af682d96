#include "serve/checkpoint.h"

#include <limits>
#include <utility>

#include "common/file_util.h"
#include "common/sealed_frame.h"
#include "common/string_util.h"
#include "fault/fault.h"

namespace cascn::serve {

namespace {

constexpr uint32_t kMaxStringLength = 1 << 20;  // 1 MiB: headers are tiny

constexpr FrameFormat kCheckpointFormat = {
    .name = "checkpoint",
    .magic = kCheckpointMagic,
    .min_version = kCheckpointMinVersion,
    .max_version = kCheckpointVersion,
    .first_sealed_version = 2,
};

/// A checkpoint whose frame and header checked out, with `params` at the
/// parameter payload. It views the bytes it was opened from.
struct OpenedCheckpoint {
  CheckpointHeader header;
  FrameReader params;
};

/// Opens a whole checkpoint image and reads its header. `context` (usually
/// the path) names the source in messages; a non-null `expected_type` must
/// match the file's model type.
Result<OpenedCheckpoint> OpenCheckpoint(const std::string& bytes,
                                        const std::string& context,
                                        const char* expected_type) {
  CheckpointHeader header;
  CASCN_ASSIGN_OR_RETURN(
      FrameReader r,
      OpenFrame(bytes, kCheckpointFormat, context, &header.version));
  CASCN_RETURN_IF_ERROR(
      r.GetString(&header.model_type, "model type", kMaxStringLength));
  CASCN_RETURN_IF_ERROR(
      r.GetString(&header.config_text, "config block", kMaxStringLength));
  CASCN_RETURN_IF_ERROR(r.Get(&header.output_offset, "output offset"));
  if (expected_type != nullptr && header.model_type != expected_type)
    return Status::InvalidArgument(
        StrFormat("checkpoint holds a '%s' model, expected '%s'",
                  header.model_type.c_str(), expected_type));
  return OpenedCheckpoint{std::move(header), std::move(r)};
}

/// Reads the parameter payload into `module`, which changes only once the
/// footer and the end of the image check out too.
Status LoadParameters(FrameReader& r, nn::Module& module) {
  CASCN_ASSIGN_OR_RETURN(const std::vector<Tensor> values,
                         module.ReadParameterValues(r));
  uint32_t footer = 0;
  CASCN_RETURN_IF_ERROR(r.Get(&footer, "footer"));
  if (footer != kCheckpointFooter)
    return r.Corrupt(StrFormat("footer mismatch (0x%08x): truncated or "
                               "corrupt parameter payload",
                               footer));
  CASCN_RETURN_IF_ERROR(r.Finish());
  module.SetParameterValues(values);
  return Status::OK();
}

/// Reads a checkpoint file for loading, through its fault points.
Result<std::string> ReadCheckpointBytes(const std::string& path) {
  CASCN_RETURN_IF_ERROR(fault::InjectStatus(kFaultCheckpointLoadFail));
  fault::MaybeDelay(kFaultCheckpointLoadSlow);
  return ReadFileToString(path);
}

}  // namespace

Status WriteCheckpointFile(const std::string& path,
                           const std::string& model_type,
                           const std::string& config_text,
                           const nn::Module& module, double output_offset) {
  FrameWriter w(kCheckpointMagic, kCheckpointVersion);
  w.PutString(model_type);
  w.PutString(config_text);
  w.Put(output_offset);
  module.Save(w);
  w.Put(kCheckpointFooter);
  const std::string bytes = std::move(w).Seal();
  CASCN_RETURN_IF_ERROR(fault::InjectTornWrite(kFaultCheckpointTornWrite,
                                               "checkpoint", path, bytes));
  CASCN_RETURN_IF_ERROR(fault::InjectStatus(kFaultCheckpointWriteFail));
  return WriteFileAtomic(path, bytes);
}

Result<CheckpointHeader> ReadCheckpointHeaderFile(const std::string& path) {
  CASCN_ASSIGN_OR_RETURN(const std::string bytes, ReadFileToString(path));
  CASCN_ASSIGN_OR_RETURN(OpenedCheckpoint checkpoint,
                         OpenCheckpoint(bytes, path, nullptr));
  return std::move(checkpoint.header);
}

Status LoadCheckpointIntoFile(const std::string& path,
                              const std::string& expected_model_type,
                              nn::Module& module, CheckpointHeader* header) {
  CASCN_ASSIGN_OR_RETURN(const std::string bytes, ReadCheckpointBytes(path));
  CASCN_ASSIGN_OR_RETURN(
      OpenedCheckpoint checkpoint,
      OpenCheckpoint(bytes, path, expected_model_type.c_str()));
  CASCN_RETURN_IF_ERROR(LoadParameters(checkpoint.params, module));
  if (header != nullptr) *header = std::move(checkpoint.header);
  return Status::OK();
}

std::string EncodeCascnConfig(const CascnConfig& config) {
  return StrFormat(
      "variant=%d\npadded_size=%d\nhidden_dim=%d\ncheb_order=%d\n"
      "max_sequence_length=%d\nnum_time_intervals=%d\nmlp_hidden1=%d\n"
      "mlp_hidden2=%d\nattention_pooling=%d\nlambda_mode=%d\n"
      "caslaplacian_alpha=%.17g\nseed=%llu\nencoding_cache_capacity=%d\n",
      static_cast<int>(config.variant), config.padded_size, config.hidden_dim,
      config.cheb_order, config.max_sequence_length, config.num_time_intervals,
      config.mlp_hidden1, config.mlp_hidden2,
      config.attention_pooling ? 1 : 0, static_cast<int>(config.lambda_mode),
      config.caslaplacian_alpha, static_cast<unsigned long long>(config.seed),
      config.encoding_cache_capacity);
}

Result<CascnConfig> ParseCascnConfig(const std::string& text) {
  CascnConfig config;
  for (const std::string& raw_line : Split(text, '\n')) {
    const std::string_view line = Trim(raw_line);
    if (line.empty()) continue;
    const size_t eq = line.find('=');
    if (eq == std::string_view::npos)
      return Status::InvalidArgument("malformed config line: " +
                                     std::string(line));
    const std::string key(line.substr(0, eq));
    const std::string_view value = line.substr(eq + 1);
    if (key == "caslaplacian_alpha") {
      CASCN_ASSIGN_OR_RETURN(config.caslaplacian_alpha, ParseDouble(value));
      continue;
    }
    CASCN_ASSIGN_OR_RETURN(const int64_t v, ParseInt64(value));
    if (key != "seed" && (v < std::numeric_limits<int>::min() ||
                          v > std::numeric_limits<int>::max()))
      return Status::InvalidArgument("CasCN config value out of range: " +
                                     std::string(line));
    if (key == "variant") {
      if (v < 0 || v > static_cast<int>(CascnVariant::kNoTimeDecay))
        return Status::InvalidArgument(
            StrFormat("unknown CasCN variant %lld", static_cast<long long>(v)));
      config.variant = static_cast<CascnVariant>(v);
    } else if (key == "padded_size") {
      config.padded_size = static_cast<int>(v);
    } else if (key == "hidden_dim") {
      config.hidden_dim = static_cast<int>(v);
    } else if (key == "cheb_order") {
      config.cheb_order = static_cast<int>(v);
    } else if (key == "max_sequence_length") {
      config.max_sequence_length = static_cast<int>(v);
    } else if (key == "num_time_intervals") {
      config.num_time_intervals = static_cast<int>(v);
    } else if (key == "mlp_hidden1") {
      config.mlp_hidden1 = static_cast<int>(v);
    } else if (key == "mlp_hidden2") {
      config.mlp_hidden2 = static_cast<int>(v);
    } else if (key == "attention_pooling") {
      config.attention_pooling = v != 0;
    } else if (key == "lambda_mode") {
      if (v < 0 || v > static_cast<int>(LambdaMaxMode::kApproximateTwo))
        return Status::InvalidArgument(
            StrFormat("unknown lambda mode %lld", static_cast<long long>(v)));
      config.lambda_mode = static_cast<LambdaMaxMode>(v);
    } else if (key == "seed") {
      config.seed = static_cast<uint64_t>(v);
    } else if (key == "encoding_cache_capacity") {
      config.encoding_cache_capacity = static_cast<int>(v);
    } else {
      return Status::InvalidArgument("unknown CasCN config key: " + key);
    }
  }
  // The one boundary for a checkpoint's config: a model built from what
  // passes here encodes any cascade without reaching a CASCN_CHECK.
  if (!(config.caslaplacian_alpha > 0.0 && config.caslaplacian_alpha < 1.0))
    return Status::InvalidArgument(
        StrFormat("caslaplacian_alpha %.17g must be in (0, 1)",
                  config.caslaplacian_alpha));
  const std::pair<const char*, int> sizes[] = {
      {"padded_size", config.padded_size},
      {"hidden_dim", config.hidden_dim},
      {"cheb_order", config.cheb_order},
      {"max_sequence_length", config.max_sequence_length},
      {"num_time_intervals", config.num_time_intervals},
      {"mlp_hidden1", config.mlp_hidden1},
      {"mlp_hidden2", config.mlp_hidden2},
  };
  for (const auto& [name, size] : sizes)
    if (size < 1)
      return Status::InvalidArgument(
          StrFormat("%s must be at least 1, not %d", name, size));
  return config;
}

Status SaveCascnCheckpoint(const std::string& path, const CascnModel& model) {
  return WriteCheckpointFile(path, kCascnModelType,
                             EncodeCascnConfig(model.config()), model,
                             model.output_offset());
}

Result<std::unique_ptr<CascnModel>> LoadCascnCheckpoint(
    const std::string& path) {
  CASCN_ASSIGN_OR_RETURN(const std::string bytes, ReadCheckpointBytes(path));
  CASCN_ASSIGN_OR_RETURN(OpenedCheckpoint checkpoint,
                         OpenCheckpoint(bytes, path, kCascnModelType));
  CASCN_ASSIGN_OR_RETURN(const CascnConfig config,
                         ParseCascnConfig(checkpoint.header.config_text));
  auto model = std::make_unique<CascnModel>(config);
  CASCN_RETURN_IF_ERROR(LoadParameters(checkpoint.params, *model));
  model->set_output_offset(checkpoint.header.output_offset);
  return model;
}

}  // namespace cascn::serve
