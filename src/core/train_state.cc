#include "core/train_state.h"

#include "common/file_util.h"
#include "common/sealed_frame.h"
#include "common/string_util.h"

namespace cascn {

namespace {

constexpr FrameFormat kTrainStateFormat = {
    .name = "train state",
    .magic = kTrainStateMagic,
    .min_version = kTrainStateVersion,
    .max_version = kTrainStateVersion,
};

void PutTensors(FrameWriter& w, const std::vector<Tensor>& tensors) {
  w.Put<uint32_t>(static_cast<uint32_t>(tensors.size()));
  for (const Tensor& t : tensors) {
    w.Put<int32_t>(t.rows());
    w.Put<int32_t>(t.cols());
    w.PutBytes(t.data(), static_cast<size_t>(t.size()) * sizeof(double));
  }
}

void PutDoubles(FrameWriter& w, const std::vector<double>& values) {
  w.Put<uint32_t>(static_cast<uint32_t>(values.size()));
  w.PutBytes(values.data(), values.size() * sizeof(double));
}

/// Every count and shape is checked against the bytes left before anything
/// is sized by it, so no field can make the loader allocate more than the
/// file holds.
Status GetTensors(FrameReader& r, std::vector<Tensor>* tensors,
                  const char* what) {
  uint32_t count = 0;
  CASCN_RETURN_IF_ERROR(r.Get(&count, what));
  if (count > r.remaining())
    return r.Corrupt(StrFormat("%s count %u is implausible", what, count));
  tensors->clear();
  tensors->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    int32_t rows = 0, cols = 0;
    CASCN_RETURN_IF_ERROR(r.Get(&rows, what));
    CASCN_RETURN_IF_ERROR(r.Get(&cols, what));
    if (rows < 0 || cols < 0)
      return r.Corrupt(
          StrFormat("%s tensor %u has shape %dx%d", what, i, rows, cols));
    if (static_cast<uint64_t>(rows) * static_cast<uint64_t>(cols) >
        r.remaining() / sizeof(double))
      return r.Corrupt(StrFormat("%s tensor %u is cut short", what, i));
    Tensor t(rows, cols);
    CASCN_RETURN_IF_ERROR(
        r.GetBytes(t.data(), static_cast<size_t>(t.size()) * sizeof(double),
                   what));
    tensors->push_back(std::move(t));
  }
  return Status::OK();
}

Status GetDoubles(FrameReader& r, std::vector<double>* values,
                  const char* what) {
  uint32_t count = 0;
  CASCN_RETURN_IF_ERROR(r.Get(&count, what));
  if (count > r.remaining() / sizeof(double))
    return r.Corrupt(StrFormat("%s count %u is cut short", what, count));
  values->resize(count);
  return r.GetBytes(values->data(), count * sizeof(double), what);
}

/// Whether two tensor lists agree in count and per-tensor shape.
bool SameShapes(const std::vector<Tensor>& a, const std::vector<Tensor>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i)
    if (!a[i].SameShape(b[i])) return false;
  return true;
}

}  // namespace

Status SaveTrainState(const std::string& path, const TrainState& state) {
  FrameWriter w(kTrainStateMagic, kTrainStateVersion);
  w.Put<int32_t>(state.next_epoch);
  w.Put<int32_t>(state.stagnant);
  w.Put<int32_t>(state.best_epoch);
  w.Put(state.learning_rate);
  w.Put(state.best_validation_msle);
  w.Put(state.output_offset);
  w.Put<uint64_t>(state.global_step);
  w.Put<int64_t>(state.skipped_steps);
  w.Put<int64_t>(state.adam_t);
  for (const uint64_t word : state.rng.s) w.Put(word);
  w.Put<uint8_t>(state.rng.has_cached_normal ? 1 : 0);
  w.Put(state.rng.cached_normal);
  PutTensors(w, state.params);
  PutTensors(w, state.adam_m);
  PutTensors(w, state.adam_v);
  PutTensors(w, state.best_weights);
  PutDoubles(w, state.history_train_loss);
  PutDoubles(w, state.history_validation_msle);
  return WriteFileAtomic(path, std::move(w).Seal());
}

Result<TrainState> LoadTrainState(const std::string& path) {
  CASCN_ASSIGN_OR_RETURN(const std::string bytes, ReadFileToString(path));
  CASCN_ASSIGN_OR_RETURN(FrameReader r,
                         OpenFrame(bytes, kTrainStateFormat, path));
  TrainState st;
  int32_t next_epoch = 0, stagnant = 0, best_epoch = 0;
  CASCN_RETURN_IF_ERROR(r.Get(&next_epoch, "next epoch"));
  CASCN_RETURN_IF_ERROR(r.Get(&stagnant, "stagnant epochs"));
  CASCN_RETURN_IF_ERROR(r.Get(&best_epoch, "best epoch"));
  st.next_epoch = next_epoch;
  st.stagnant = stagnant;
  st.best_epoch = best_epoch;
  CASCN_RETURN_IF_ERROR(r.Get(&st.learning_rate, "learning rate"));
  CASCN_RETURN_IF_ERROR(r.Get(&st.best_validation_msle, "best MSLE"));
  CASCN_RETURN_IF_ERROR(r.Get(&st.output_offset, "output offset"));
  CASCN_RETURN_IF_ERROR(r.Get(&st.global_step, "global step"));
  CASCN_RETURN_IF_ERROR(r.Get(&st.skipped_steps, "skipped steps"));
  CASCN_RETURN_IF_ERROR(r.Get(&st.adam_t, "Adam step"));
  for (uint64_t& word : st.rng.s)
    CASCN_RETURN_IF_ERROR(r.Get(&word, "rng state"));
  uint8_t has_cached_normal = 0;
  CASCN_RETURN_IF_ERROR(r.Get(&has_cached_normal, "rng state"));
  st.rng.has_cached_normal = has_cached_normal != 0;
  CASCN_RETURN_IF_ERROR(r.Get(&st.rng.cached_normal, "rng state"));
  CASCN_RETURN_IF_ERROR(GetTensors(r, &st.params, "parameters"));
  CASCN_RETURN_IF_ERROR(GetTensors(r, &st.adam_m, "Adam first moments"));
  CASCN_RETURN_IF_ERROR(GetTensors(r, &st.adam_v, "Adam second moments"));
  CASCN_RETURN_IF_ERROR(GetTensors(r, &st.best_weights, "best weights"));
  CASCN_RETURN_IF_ERROR(
      GetDoubles(r, &st.history_train_loss, "train loss history"));
  CASCN_RETURN_IF_ERROR(
      GetDoubles(r, &st.history_validation_msle, "validation history"));
  CASCN_RETURN_IF_ERROR(r.Finish());

  if (st.next_epoch < 1)
    return Status::InvalidArgument(StrFormat(
        "%s: next epoch %d is not positive", path.c_str(), st.next_epoch));
  if (!SameShapes(st.params, st.adam_m) || !SameShapes(st.params, st.adam_v) ||
      (!st.best_weights.empty() && !SameShapes(st.params, st.best_weights)))
    return Status::InvalidArgument(StrFormat(
        "%s: parameter, Adam moment and best-weight lists disagree in count "
        "or shape",
        path.c_str()));
  if (st.history_train_loss.size() != st.history_validation_msle.size())
    return Status::InvalidArgument(StrFormat(
        "%s: loss histories have %zu and %zu epochs", path.c_str(),
        st.history_train_loss.size(), st.history_validation_msle.size()));
  return st;
}

}  // namespace cascn
