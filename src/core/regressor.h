// CascadeRegressor: the interface every cascade-size predictor in this
// repository implements — CasCN and its variants (src/core) as well as all
// baselines (src/baselines). The shared Trainer/Evaluator drive models
// through this interface, so every Table III/IV cell runs the same loop.

#ifndef CASCN_CORE_REGRESSOR_H_
#define CASCN_CORE_REGRESSOR_H_

#include <string>
#include <vector>

#include "common/logging.h"
#include "data/dataset.h"
#include "tensor/variable.h"

namespace cascn {

/// A trainable model mapping an observed cascade to the predicted
/// log2(1 + future increment size).
class CascadeRegressor {
 public:
  virtual ~CascadeRegressor() = default;

  /// Builds the forward graph for one sample and returns the 1x1 prediction
  /// in log space. The returned Variable participates in autodiff, so the
  /// caller can attach a loss and run Backward().
  virtual ag::Variable PredictLog(const CascadeSample& sample) = 0;

  /// Trainable parameters for the optimizer.
  virtual std::vector<ag::Variable> TrainableParameters() = 0;

  /// Human-readable model name ("CasCN", "DeepHawkes", ...).
  virtual std::string name() const = 0;

  /// Invalidates any per-sample caches (e.g. when a model is reused on a
  /// different dataset). Default: no-op.
  virtual void ClearCache() {}

  /// Whether PredictLog may be called concurrently from multiple threads on
  /// this instance (the trainer then runs per-sample forward/backward on
  /// the shared pool; see src/parallel). Requires any internal per-sample
  /// caches to be thread-safe. Default: serial only.
  virtual bool SupportsConcurrentForward() const { return false; }

  /// Constant added to every prediction. The trainer calibrates this to the
  /// train-mean label before optimisation so networks only learn residuals
  /// (otherwise the output bias must crawl from 0 to the label mean, wasting
  /// most of the optimisation budget).
  void set_output_offset(double offset) { output_offset_ = offset; }
  double output_offset() const { return output_offset_; }

  /// PredictLog plus the calibrated offset; what training and evaluation
  /// actually use. A model returning a null or non-scalar prediction aborts
  /// here, naming the cascade, instead of later inside an unrelated op.
  ag::Variable PredictLogCalibrated(const CascadeSample& sample) {
    ag::Variable raw = PredictLog(sample);
    CASCN_CHECK(raw.defined())
        << name() << " returned a null prediction for cascade "
        << sample.observed.id();
    CASCN_CHECK(raw.rows() == 1 && raw.cols() == 1)
        << name() << " returned a " << raw.rows() << "x" << raw.cols()
        << " prediction (want 1x1) for cascade " << sample.observed.id();
    return output_offset_ == 0.0 ? raw
                                 : ag::AddScalar(raw, output_offset_);
  }

  /// PredictLogCalibrated's value, computed under ag::NoGradGuard: no graph
  /// is recorded, and the result is bit-identical. The single inference
  /// entry point for serving (LiveCascade) and evaluation.
  double PredictValue(const CascadeSample& sample) {
    ag::NoGradGuard no_grad;
    return PredictLogCalibrated(sample).value().At(0, 0);
  }

 private:
  double output_offset_ = 0.0;
};

}  // namespace cascn

#endif  // CASCN_CORE_REGRESSOR_H_
