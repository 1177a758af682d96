// Weibo re-tweet growth prediction: the paper's headline scenario.
//
// Trains CasCN and the strongest baseline (DeepHawkes) on the same
// Weibo-like dataset, compares their test MSLE, saves the trained CasCN as a
// checkpoint, reloads it into a fresh model and verifies the predictions
// survive the round trip — the workflow of a user deploying the model.
//
//   ./weibo_retweet_prediction [--cascades=500] [--epochs=8]
//                              [--window-minutes=60] [--model-out=path]

#include <cstdio>

#include "baselines/deephawkes_model.h"
#include "common/cli_flags.h"
#include "common/logging.h"
#include "common/math_util.h"
#include "core/cascn_model.h"
#include "core/trainer.h"
#include "data/cascade_generator.h"
#include "data/dataset.h"
#include "serve/checkpoint.h"

int main(int argc, char** argv) {
  using namespace cascn;
  CliFlags flags;
  CASCN_CHECK(flags.Parse(argc, argv).ok());

  GeneratorConfig gen = WeiboLikeConfig();
  gen.num_cascades = static_cast<int>(flags.GetInt("cascades", 500));
  Rng rng(2024);
  const std::vector<Cascade> cascades = GenerateCascades(gen, rng);

  DatasetOptions data_opts;
  data_opts.observation_window = flags.GetDouble("window-minutes", 60.0);
  data_opts.min_observed_size = 10;
  auto dataset = BuildDataset(cascades, data_opts);
  CASCN_CHECK(dataset.ok()) << dataset.status();
  std::printf(
      "observing %.0f minutes of each cascade: %zu train / %zu val / %zu "
      "test\n",
      data_opts.observation_window, dataset->train.size(),
      dataset->validation.size(), dataset->test.size());

  TrainerOptions trainer;
  trainer.max_epochs = static_cast<int>(flags.GetInt("epochs", 8));

  // --- CasCN ----------------------------------------------------------
  CascnConfig config;
  config.padded_size = 32;
  config.hidden_dim = 12;
  CascnModel cascn_model(config);
  const TrainResult cascn_run =
      TrainRegressor(cascn_model, *dataset, trainer);
  const double cascn_msle = EvaluateMsle(cascn_model, dataset->test);
  std::printf("CasCN      : test MSLE %.3f (best val %.3f @ epoch %d)\n",
              cascn_msle, cascn_run.best_validation_msle,
              cascn_run.best_epoch);

  // --- DeepHawkes (the paper's second-best method) ----------------------
  DeepHawkesModel::Config dh_config;
  dh_config.user_universe = gen.user_universe;
  DeepHawkesModel deephawkes(dh_config);
  const TrainResult dh_run = TrainRegressor(deephawkes, *dataset, trainer);
  const double dh_msle = EvaluateMsle(deephawkes, dataset->test);
  std::printf("DeepHawkes : test MSLE %.3f (best val %.3f @ epoch %d)\n",
              dh_msle, dh_run.best_validation_msle, dh_run.best_epoch);

  if (cascn_msle < dh_msle) {
    std::printf("CasCN reduces MSLE by %.1f%% over DeepHawkes\n",
                100.0 * (dh_msle - cascn_msle) / dh_msle);
  }

  // --- Persist, reload, and verify -------------------------------------
  const std::string model_path =
      flags.GetString("model-out", "/tmp/cascn_weibo.bin");
  const Status saved = serve::SaveCascnCheckpoint(model_path, cascn_model);
  CASCN_CHECK(saved.ok()) << saved;
  auto restored = serve::LoadCascnCheckpoint(model_path);
  CASCN_CHECK(restored.ok()) << restored.status();
  const CascadeSample& probe = dataset->test[0];
  const double original_pred = cascn_model.PredictValue(probe);
  const double restored_pred = (*restored)->PredictValue(probe);
  CASCN_CHECK(std::abs(original_pred - restored_pred) < 1e-12);
  std::printf(
      "model saved to %s and reloaded; prediction for %s: %.1f further "
      "re-tweets (actual %d)\n",
      model_path.c_str(), probe.observed.id().c_str(),
      Exp2m1(restored_pred), probe.future_increment);
  return 0;
}
