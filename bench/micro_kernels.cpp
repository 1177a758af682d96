// Micro-benchmarks of the substrate kernels that dominate CasCN training:
// dense matmul, sparse-dense matmul, the CasLaplacian construction
// (Algorithm 1), the Chebyshev basis recursion, one graph-conv LSTM step
// (forward and forward+backward), the cell's values-only sequence entry
// (the served forward) and recorded one (forward+backward), a standalone
// ChebConv layer, and snapshot encoding. Paired rows time a whole
// cached-encoding forward served (PredictValue, the fused kernel) and
// recorded (PredictLogCalibrated) on the same samples, and a whole training
// sample (recorded forward plus backward).
//
// Besides the usual console output, every run writes a machine-readable
// BENCH_micro_kernels.json (see obs/bench_report.h) that the CI bench-guard
// job diffs against bench/baselines/. Flags on top of google-benchmark's:
//   --bench_out=PATH     report path (default BENCH_micro_kernels.json)
//   --trace_out=PATH     Chrome trace of the run
//   --metrics_out=PATH   global metrics-registry snapshot
// Run with CASCN_PROFILE=1 for the per-op autograd profile (embedded in the
// report and printed as a table on exit).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "core/cascn_model.h"
#include "core/encoder.h"
#include "data/cascade_generator.h"
#include "graph/chebyshev.h"
#include "graph/laplacian.h"
#include "nn/cheb_conv.h"
#include "nn/graph_rnn_cells.h"
#include "nn/loss.h"
#include "obs/bench_report.h"
#include "obs/shutdown.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "tensor/tensor.h"

namespace cascn {
namespace {

Cascade BenchCascade(int n) {
  Rng rng(n);
  std::vector<AdoptionEvent> events = {{0, 0, {}, 0.0}};
  for (int i = 1; i < n; ++i) {
    AdoptionEvent e;
    e.node = i;
    e.user = static_cast<int>(rng.UniformInt(1000));
    e.parents.push_back(static_cast<int>(rng.UniformInt(i)));
    e.time = static_cast<double>(i);
    events.push_back(e);
  }
  return std::move(Cascade::Create("bench", std::move(events))).value();
}

void BM_DenseMatMul(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  const Tensor a = Tensor::RandomNormal(n, n, 1.0, rng);
  const Tensor b = Tensor::RandomNormal(n, n, 1.0, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * int64_t{2} * n * n * n);
}
BENCHMARK(BM_DenseMatMul)->Arg(16)->Arg(32)->Arg(64);

void BM_SparseMatMulDense(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Cascade cascade = BenchCascade(n);
  const CsrMatrix adj = cascade.AdjacencyMatrix(n, n, true);
  Rng rng(2);
  const Tensor x = Tensor::RandomNormal(n, 16, 1.0, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(adj.MatMulDense(x));
  }
}
BENCHMARK(BM_SparseMatMulDense)->Arg(32)->Arg(128);

void BM_CasLaplacian(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Cascade cascade = BenchCascade(n);
  for (auto _ : state) {
    auto lap = CascadeLaplacian(cascade, n);
    benchmark::DoNotOptimize(lap);
  }
}
BENCHMARK(BM_CasLaplacian)->Arg(16)->Arg(32)->Arg(64);

void BM_ChebyshevBasis(benchmark::State& state) {
  const int n = 32;
  const Cascade cascade = BenchCascade(n);
  auto lap = CascadeLaplacian(cascade, n);
  const CsrMatrix scaled = ScaleLaplacian(*lap, 2.0, n);
  const int order = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ChebyshevBasis(scaled, order, n));
  }
}
BENCHMARK(BM_ChebyshevBasis)->Arg(2)->Arg(3)->Arg(5);

void BM_GraphConvLstmStepForward(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(3);
  nn::GraphConvLstmCell cell(n, 12, 2, rng);
  const Cascade cascade = BenchCascade(n);
  auto lap = CascadeLaplacian(cascade, n);
  const auto basis = ChebyshevBasis(ScaleLaplacian(*lap, 2.0, n), 2, n);
  const Tensor x_val = cascade.AdjacencyMatrix(n, n, true).ToDense();
  for (auto _ : state) {
    const ag::Variable x = ag::Variable::Leaf(x_val);
    benchmark::DoNotOptimize(cell.Step(basis, x, cell.InitialState()));
  }
}
BENCHMARK(BM_GraphConvLstmStepForward)->Arg(16)->Arg(32);

void BM_GraphConvLstmStepTrain(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(4);
  nn::GraphConvLstmCell cell(n, 12, 2, rng);
  const Cascade cascade = BenchCascade(n);
  auto lap = CascadeLaplacian(cascade, n);
  const auto basis = ChebyshevBasis(ScaleLaplacian(*lap, 2.0, n), 2, n);
  const Tensor x_val = cascade.AdjacencyMatrix(n, n, true).ToDense();
  for (auto _ : state) {
    const ag::Variable x = ag::Variable::Leaf(x_val);
    const nn::RnnState next = cell.Step(basis, x, cell.InitialState());
    ag::Sum(ag::Square(next.h)).Backward();
    cell.ZeroGrad();
  }
}
BENCHMARK(BM_GraphConvLstmStepTrain)->Arg(16)->Arg(32);

/// The cell's values-only sequence entry, Run, which every served predict
/// calls, over the encoding of a cascade that reaches R of the n = 32 rows
/// (R = 32 leaves no padding row).
void BM_GraphConvLstmRun(benchmark::State& state) {
  const CascnConfig config;
  Rng rng(7);
  nn::GraphConvLstmCell cell(config.padded_size, config.hidden_dim,
                             config.cheb_order, rng);
  CascadeSample sample;
  sample.observed = BenchCascade(static_cast<int>(state.range(0)));
  sample.observation_window = 60.0;
  const EncodedCascade enc = EncodeCascade(sample, config).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cell.Run(enc.cheb_basis, enc.snapshot_ops, enc.snapshot_columns));
  }
}
BENCHMARK(BM_GraphConvLstmRun)->Arg(4)->Arg(16)->Arg(32);

/// The cell's recorded sequence entry, RunRecorded plus Backward() of a
/// loss reading every h_t, over the encoding of BM_GraphConvLstmRun.
void BM_GraphConvLstmRecordedRun(benchmark::State& state) {
  const CascnConfig config;
  Rng rng(7);
  nn::GraphConvLstmCell cell(config.padded_size, config.hidden_dim,
                             config.cheb_order, rng);
  CascadeSample sample;
  sample.observed = BenchCascade(static_cast<int>(state.range(0)));
  sample.observation_window = 60.0;
  const auto enc = std::make_shared<const EncodedCascade>(
      EncodeCascade(sample, config).value());
  const nn::SharedBasis basis(enc, &enc->cheb_basis);
  const std::shared_ptr<const CsrMatrix> ops(enc, &enc->snapshot_ops);
  for (auto _ : state) {
    const std::vector<nn::RnnState> states =
        cell.RunRecorded(basis, ops, enc->snapshot_columns,
                         cell.InitialState());
    ag::Variable sum = states[0].h;
    for (size_t t = 1; t < states.size(); ++t) sum = ag::Add(sum, states[t].h);
    ag::Sum(sum).Backward();
    cell.ZeroGrad();
  }
}
BENCHMARK(BM_GraphConvLstmRecordedRun)->Arg(4)->Arg(16)->Arg(32);

/// A standalone ChebConv layer (kGcnLstm's graph convolution) forward and
/// backward through ag ops, with the input signal taking a gradient.
void BM_ChebConvTrain(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(6);
  nn::ChebConv conv(n, 12, 2, rng);
  const Cascade cascade = BenchCascade(n);
  auto lap = CascadeLaplacian(cascade, n);
  const auto basis = ChebyshevBasis(ScaleLaplacian(*lap, 2.0, n), 2, n);
  const Tensor x_val = cascade.AdjacencyMatrix(n, n, true).ToDense();
  for (auto _ : state) {
    const ag::Variable x = ag::Variable::Leaf(x_val, true);
    ag::Sum(ag::Square(conv.Forward(basis, x))).Backward();
    conv.ZeroGrad();
  }
}
BENCHMARK(BM_ChebConvTrain)->Arg(16)->Arg(32);

/// The bytes of a CSR matrix's arrays.
double CsrBytes(const CsrMatrix& m) {
  return static_cast<double>(m.row_offsets().size() * sizeof(int) +
                             m.col_indices().size() * sizeof(int) +
                             m.values().size() * sizeof(double));
}

/// EncodeCascade of one generated cascade, with `encoding_bytes`: the
/// arrays of its snapshot operators and Chebyshev basis.
void BM_EncodeCascade(benchmark::State& state) {
  GeneratorConfig gen = WeiboLikeConfig();
  gen.num_cascades = 1;
  Rng rng(5);
  CascadeSample sample;
  sample.observed = GenerateCascades(gen, rng)[0].Prefix(60.0);
  sample.observation_window = 60.0;
  CascnConfig config;
  config.padded_size = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto enc = EncodeCascade(sample, config);
    benchmark::DoNotOptimize(enc);
  }
  const EncodedCascade enc = EncodeCascade(sample, config).value();
  double bytes = CsrBytes(enc.snapshot_ops);
  for (const CsrMatrix& t : enc.cheb_basis) bytes += CsrBytes(t);
  state.counters["encoding_bytes"] = bytes;
}
BENCHMARK(BM_EncodeCascade)->Arg(16)->Arg(32)->Arg(64);

/// A BenchCascade with `active` nodes observed for 60 minutes, and a
/// default-config CasCN (padded 32) whose encoding cache holds it. Only the
/// recorded rows read that cache: a values-only forward encodes its sample
/// on every call, so BM_CascnPredictValue times encode + forward, a served
/// cold predict.
struct PredictFixture {
  explicit PredictFixture(int active) : model(CascnConfig{}) {
    sample.observed = BenchCascade(active);
    sample.observation_window = 60.0;
    model.PredictLogCalibrated(sample);
  }
  CascadeSample sample;
  CascnModel model;
};

void BM_CascnPredictValue(benchmark::State& state) {
  PredictFixture fixture(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixture.model.PredictValue(fixture.sample));
  }
}
BENCHMARK(BM_CascnPredictValue)->Arg(4)->Arg(16)->Arg(32);

void BM_CascnPredictRecorded(benchmark::State& state) {
  PredictFixture fixture(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fixture.model.PredictLogCalibrated(fixture.sample).value().At(0, 0));
  }
}
BENCHMARK(BM_CascnPredictRecorded)->Arg(4)->Arg(16)->Arg(32);

/// One training sample: the recorded forward, Backward() of its squared
/// log error, and zeroing the gradients.
void BM_CascnTrainSample(benchmark::State& state) {
  PredictFixture fixture(static_cast<int>(state.range(0)));
  std::vector<ag::Variable> params = fixture.model.TrainableParameters();
  for (auto _ : state) {
    nn::SquaredError(fixture.model.PredictLogCalibrated(fixture.sample), 1.0)
        .Backward();
    for (ag::Variable& p : params) p.ZeroGrad();
  }
}
BENCHMARK(BM_CascnTrainSample)->Arg(4)->Arg(16)->Arg(32);

/// One captured measurement, as fed into the BENCH_*.json results array.
struct CapturedRun {
  std::string name;
  double real_ns_per_iter = 0.0;
  double cpu_ns_per_iter = 0.0;
  int64_t iterations = 0;
  // The benchmark's counters (items_per_second, encoding_bytes), by name.
  std::vector<std::pair<std::string, double>> counters;
};

/// Forwards to the normal console output while keeping each per-iteration
/// measurement for the machine-readable report.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      CapturedRun captured;
      captured.name = run.run_name.str();
      captured.real_ns_per_iter = run.GetAdjustedRealTime();
      captured.cpu_ns_per_iter = run.GetAdjustedCPUTime();
      captured.iterations = run.iterations;
      for (const auto& [name, counter] : run.counters)
        captured.counters.emplace_back(name, counter.value);
      captured_.push_back(std::move(captured));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<CapturedRun>& captured() const { return captured_; }

 private:
  std::vector<CapturedRun> captured_;
};

/// Consumes --name=value from argv (so google-benchmark's own flag parsing
/// never sees it); returns "" when absent.
std::string TakeFlag(int& argc, char** argv, const char* name) {
  const std::string prefix = std::string("--") + name + "=";
  std::string value;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      value = argv[i] + prefix.size();
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  return value;
}

int MicroKernelsMain(int argc, char** argv) {
  std::string bench_out = TakeFlag(argc, argv, "bench_out");
  const std::string trace_out = TakeFlag(argc, argv, "trace_out");
  const std::string metrics_out = TakeFlag(argc, argv, "metrics_out");
  if (!trace_out.empty()) obs::Tracer::Get().Enable();
  if (bench_out.empty())
    bench_out = obs::BenchReport::DefaultPath("micro_kernels");

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;

  const auto start = std::chrono::steady_clock::now();
  CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  obs::BenchReport report("micro_kernels");
  report.AddConfig("profile_enabled",
                   static_cast<int>(obs::Profiler::Get().enabled()))
      .AddConfig("num_benchmarks",
                 static_cast<int64_t>(reporter.captured().size()))
      .SetWallClockSeconds(wall_seconds);
  for (const CapturedRun& run : reporter.captured()) {
    obs::JsonObjectBuilder row;
    row.Add("benchmark", run.name)
        .Add("real_ns_per_iter", run.real_ns_per_iter)
        .Add("cpu_ns_per_iter", run.cpu_ns_per_iter)
        .Add("iterations", run.iterations);
    for (const auto& [name, value] : run.counters) row.Add(name, value);
    report.AddResult(row.Build());
  }
  report.CaptureProfile().CaptureMetrics(obs::MetricsRegistry::Get());
  const Status write_status = report.WriteFile(bench_out);
  CASCN_CHECK(write_status.ok()) << write_status;
  std::fprintf(stderr, "[micro_kernels] benchmark report written to %s\n",
               bench_out.c_str());

  obs::ShutdownDumpOptions dump;
  dump.trace_path = trace_out;
  dump.metrics_path = metrics_out;
  CASCN_CHECK(obs::ShutdownDump(dump).ok());
  benchmark::Shutdown();
  return 0;
}

}  // namespace
}  // namespace cascn

int main(int argc, char** argv) { return cascn::MicroKernelsMain(argc, argv); }
