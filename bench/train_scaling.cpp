// Training-throughput scaling vs. thread count.
//
// Trains the same CasCN model on the same generated dataset at each thread
// count in --threads_list (default 1,2,4,8), reporting per-epoch wall-clock,
// samples/sec, speedup vs. the single-thread run, and the trainer's own
// mean epoch and validation seconds (EpochStats). Thanks to the
// trainer's fixed-order gradient tree reduction the trained weights are
// bit-identical across runs, so this measures pure scheduling overhead and
// parallel speedup — the final train losses are asserted equal here.
//
//   ./bench_train_scaling [--cascades=160] [--epochs=2] [--batch_size=16]
//                         [--threads_list=1,2,4,8]
//
// Writes BENCH_train_scaling.json (obs/bench_report.h); --bench_out=PATH
// overrides the location. Row names follow the bench_guard convention
// ("train_epoch/threads:N" + real_ns_per_iter) with threads:1 as the
// calibration row, so relative regressions are caught by
// tools/bench_guard.py regardless of host speed.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/cli_flags.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "core/cascn_model.h"
#include "core/trainer.h"
#include "data/cascade_generator.h"
#include "data/dataset.h"
#include "obs/bench_report.h"
#include "obs/shutdown.h"
#include "parallel/parallel_for.h"

namespace cascn {
namespace {

CascadeDataset MakeDataset(int cascades) {
  GeneratorConfig config = WeiboLikeConfig();
  config.num_cascades = cascades;
  config.user_universe = 400;
  config.max_size = 80;
  Rng rng(17);
  const auto generated = GenerateCascades(config, rng);
  DatasetOptions opts;
  opts.observation_window = 60.0;
  opts.min_observed_size = 5;
  auto dataset = BuildDataset(generated, opts);
  CASCN_CHECK(dataset.ok()) << dataset.status();
  return std::move(dataset).value();
}

struct ScalingRun {
  size_t threads = 0;
  double total_seconds = 0.0;
  double epoch_seconds = 0.0;
  double samples_per_sec = 0.0;
  double final_train_loss = 0.0;
  // Means over epochs of the trainer's EpochStats.
  double trainer_epoch_seconds = 0.0;
  double validation_seconds = 0.0;
};

ScalingRun RunAtThreads(size_t threads, const CascadeDataset& dataset,
                        int epochs, int batch_size) {
  parallel::SetThreads(threads);
  CascnConfig config;
  config.padded_size = 24;
  config.hidden_dim = 12;
  config.cheb_order = 2;
  CascnModel model(config);

  TrainerOptions options;
  options.max_epochs = epochs;
  options.patience = epochs;  // no early stop: identical work per run
  options.batch_size = batch_size;
  const auto start = std::chrono::steady_clock::now();
  const TrainResult result = TrainRegressor(model, dataset, options);
  ScalingRun run;
  run.threads = threads;
  run.total_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  run.epoch_seconds = run.total_seconds / static_cast<double>(epochs);
  run.samples_per_sec =
      static_cast<double>(dataset.train.size()) * epochs / run.total_seconds;
  run.final_train_loss = result.history.back().train_loss;
  for (const EpochStats& stats : result.history) {
    run.trainer_epoch_seconds += stats.epoch_seconds;
    run.validation_seconds += stats.validation_seconds;
  }
  const double num_epochs = static_cast<double>(result.history.size());
  run.trainer_epoch_seconds /= num_epochs;
  run.validation_seconds /= num_epochs;
  parallel::SetThreads(0);
  return run;
}

int Main(int argc, char** argv) {
  CliFlags flags;
  CASCN_CHECK(flags.Parse(argc, argv).ok());
  const int cascades = static_cast<int>(flags.GetInt("cascades", 160));
  const int epochs = static_cast<int>(flags.GetInt("epochs", 2));
  const int batch_size = static_cast<int>(flags.GetInt("batch_size", 16));
  const std::string threads_list =
      flags.GetString("threads_list", "1,2,4,8");
  std::string bench_out = flags.GetString("bench_out", "");
  if (bench_out.empty())
    bench_out = obs::BenchReport::DefaultPath("train_scaling");

  std::vector<size_t> thread_counts;
  for (const std::string& field : Split(threads_list, ',')) {
    const long value = std::strtol(field.c_str(), nullptr, 10);
    CASCN_CHECK(value >= 1) << "bad --threads_list entry: " << field;
    thread_counts.push_back(static_cast<size_t>(value));
  }
  CASCN_CHECK(!thread_counts.empty());
  CASCN_CHECK(thread_counts.front() == 1)
      << "--threads_list must start with 1 (the calibration run)";

  const auto bench_start = std::chrono::steady_clock::now();
  const CascadeDataset dataset = MakeDataset(cascades);
  const unsigned cores = std::thread::hardware_concurrency();
  std::fprintf(stderr,
               "[train_scaling] %zu train / %zu val samples, %d epochs, "
               "batch %d, %u cores\n",
               dataset.train.size(), dataset.validation.size(), epochs,
               batch_size, cores);
  if (cores < 2)
    std::fprintf(stderr,
                 "[train_scaling] WARNING: single-core host — thread counts "
                 "beyond 1 cannot speed up compute-bound training\n");

  obs::BenchReport report("train_scaling");
  report.AddConfig("cascades", cascades)
      .AddConfig("train_samples", static_cast<int64_t>(dataset.train.size()))
      .AddConfig("epochs", epochs)
      .AddConfig("batch_size", batch_size)
      .AddConfig("threads_list", threads_list)
      .AddConfig("hardware_concurrency", static_cast<int64_t>(cores));

  std::vector<ScalingRun> runs;
  for (const size_t threads : thread_counts) {
    runs.push_back(RunAtThreads(threads, dataset, epochs, batch_size));
    const ScalingRun& run = runs.back();
    const double speedup = runs.front().epoch_seconds / run.epoch_seconds;
    std::fprintf(stderr,
                 "[train_scaling] threads=%zu epoch=%.3fs "
                 "samples/sec=%.1f speedup=%.2fx loss=%.6f "
                 "trainer_epoch=%.4fs validation=%.4fs\n",
                 run.threads, run.epoch_seconds, run.samples_per_sec,
                 speedup, run.final_train_loss, run.trainer_epoch_seconds,
                 run.validation_seconds);
    // The determinism contract, enforced where it is easiest to violate.
    CASCN_CHECK(run.final_train_loss == runs.front().final_train_loss)
        << "train loss at " << run.threads
        << " threads diverged from the 1-thread run";
    report.AddResult(
        obs::JsonObjectBuilder()
            .Add("benchmark",
                 "train_epoch/threads:" + std::to_string(run.threads))
            .Add("real_ns_per_iter", run.epoch_seconds * 1e9)
            .Add("threads", static_cast<int64_t>(run.threads))
            .Add("epoch_seconds", run.epoch_seconds)
            .Add("samples_per_sec", run.samples_per_sec)
            .Add("speedup_vs_1", speedup)
            .Add("trainer_epoch_seconds", run.trainer_epoch_seconds)
            .Add("validation_seconds", run.validation_seconds)
            .Build());
  }

  report
      .SetWallClockSeconds(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - bench_start)
                               .count())
      .CaptureProfile();
  const Status write_status = report.WriteFile(bench_out);
  CASCN_CHECK(write_status.ok()) << write_status;
  std::fprintf(stderr, "[train_scaling] benchmark report written to %s\n",
               bench_out.c_str());
  CASCN_CHECK(obs::ShutdownDump().ok());
  return 0;
}

}  // namespace
}  // namespace cascn

int main(int argc, char** argv) { return cascn::Main(argc, argv); }
