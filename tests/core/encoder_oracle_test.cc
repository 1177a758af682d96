// The encoder against a verbatim copy of its padded-size implementation:
// dense n x n temporaries, triplet lists and sorts, a CSR per snapshot, the
// stationary iteration on a sparse P_c with a fresh tensor per step, and
// the power iteration over every padded row. Whatever the library does
// faster, every field of an encoding, and every stage perfbench times on
// its own, must keep this copy's bits.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "core/encoder.h"
#include "graph/chebyshev.h"
#include "graph/laplacian.h"
#include "graph/snapshot.h"
#include "tensor/linalg.h"

namespace cascn {
namespace {

// ---------------------------------------------------------------------------
// The oracle: the padded-size encoder, copied verbatim; only the names carry
// an Oracle prefix, so argument-dependent lookup cannot pick the library's.

Tensor OracleActiveAdjacency(const Cascade& cascade, int n) {
  Tensor w(n, n);
  w.At(0, 0) = 1.0;  // root self-connection (Fig. 3)
  for (int i = 1; i < n; ++i) {
    for (int p : cascade.event(i).parents) {
      if (p < n) w.At(p, i) = 1.0;
    }
  }
  return w;
}

CsrMatrix OracleEmbedPadded(const Tensor& block, int padded_size) {
  std::vector<Triplet> trips;
  for (int i = 0; i < block.rows(); ++i)
    for (int j = 0; j < block.cols(); ++j)
      if (block.At(i, j) != 0.0) trips.push_back({i, j, block.At(i, j)});
  return CsrMatrix::FromTriplets(padded_size, padded_size, std::move(trips));
}

double OraclePowerIterationLargestEigenvalue(const CsrMatrix& a,
                                             int iterations = 64) {
  CASCN_CHECK(a.rows() == a.cols());
  const int n = a.rows();
  if (n == 0) return 0.0;
  const auto& offsets = a.row_offsets();
  const auto& cols = a.col_indices();
  const auto& vals = a.values();
  std::vector<double> x(n, 1.0 / std::sqrt(static_cast<double>(n)));
  std::vector<double> ax(n), atx(n);
  double lambda = 0.0;
  for (int it = 0; it < iterations; ++it) {
    std::fill(atx.begin(), atx.end(), 0.0);
    for (int r = 0; r < n; ++r) {
      double sum = 0.0;
      for (int k = offsets[r]; k < offsets[r + 1]; ++k) {
        sum += vals[k] * x[cols[k]];
        atx[cols[k]] += vals[k] * x[r];
      }
      ax[r] = sum;
    }
    double num = 0, den = 0, sq = 0;
    for (int i = 0; i < n; ++i) {
      ax[i] = (ax[i] + atx[i]) * 0.5;
      num += x[i] * ax[i];
      den += x[i] * x[i];
      sq += ax[i] * ax[i];
    }
    lambda = den > 0 ? num / den : 0.0;
    const double norm = std::sqrt(sq);
    if (norm < 1e-30) return 0.0;
    const double inv_norm = 1.0 / norm;
    for (double& v : ax) v *= inv_norm;
    x.swap(ax);
  }
  return std::fabs(lambda);
}

Result<std::vector<double>> OracleStationaryDistribution(const CsrMatrix& p,
                                                         int max_iterations,
                                                         double tolerance) {
  if (p.rows() != p.cols())
    return Status::InvalidArgument("transition matrix must be square");
  const int n = p.rows();
  if (n == 0) return Status::InvalidArgument("empty transition matrix");
  Tensor phi(n, 1, 1.0 / n);
  for (int it = 0; it < max_iterations; ++it) {
    Tensor next = p.TransposeMatMulDense(phi);
    const double sum = next.Sum();
    if (sum <= 0)
      return Status::FailedPrecondition("stationary iteration degenerated");
    next.Scale(1.0 / sum);
    double delta = 0;
    for (int i = 0; i < n; ++i)
      delta = std::max(delta, std::fabs(next.At(i, 0) - phi.At(i, 0)));
    phi = std::move(next);
    if (delta < tolerance) {
      std::vector<double> out(n);
      for (int i = 0; i < n; ++i) out[i] = phi.At(i, 0);
      return out;
    }
  }
  return Status::FailedPrecondition(
      "stationary distribution did not converge");
}

Result<CsrMatrix> OracleCascadeLaplacian(const Cascade& cascade,
                                         int padded_size,
                                         const CasLaplacianOptions& options) {
  if (options.alpha <= 0.0 || options.alpha >= 1.0)
    return Status::InvalidArgument("CasLaplacian alpha must be in (0, 1)");
  const int n = std::min(cascade.size(), padded_size);
  CASCN_CHECK(padded_size >= n && n >= 1);
  const Tensor w = OracleActiveAdjacency(cascade, n);
  std::vector<double> out_degree(n, 0.0);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) out_degree[i] += w.At(i, j);
  const double teleport = (1.0 - options.alpha) / n;
  Tensor pc(n, n, teleport);
  for (int i = 0; i < n; ++i) {
    if (out_degree[i] > 0) {
      for (int j = 0; j < n; ++j)
        pc.At(i, j) += options.alpha * w.At(i, j) / out_degree[i];
    } else {
      for (int j = 0; j < n; ++j) pc.At(i, j) += options.alpha / n;
    }
  }
  const CsrMatrix pc_sparse = CsrMatrix::FromDense(pc);
  CASCN_ASSIGN_OR_RETURN(
      std::vector<double> phi,
      OracleStationaryDistribution(pc_sparse,
                                   options.stationary_max_iterations,
                                   options.stationary_tolerance));
  Tensor delta(n, n);
  for (int i = 0; i < n; ++i) {
    CASCN_CHECK(phi[i] > 0) << "stationary distribution must be positive";
    const double sqrt_phi_i = std::sqrt(phi[i]);
    for (int j = 0; j < n; ++j) {
      const double identity = i == j ? 1.0 : 0.0;
      delta.At(i, j) =
          sqrt_phi_i * (identity - pc.At(i, j)) / std::sqrt(phi[j]);
    }
  }
  return OracleEmbedPadded(delta, padded_size);
}

CsrMatrix OracleUndirectedNormalizedLaplacian(const Cascade& cascade,
                                              int padded_size) {
  const int n = std::min(cascade.size(), padded_size);
  Tensor w = OracleActiveAdjacency(cascade, n);
  w.At(0, 0) = 0.0;
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j) {
      const double v = std::max(w.At(i, j), w.At(j, i));
      w.At(i, j) = v;
      w.At(j, i) = v;
    }
  std::vector<double> degree(n, 0.0);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) degree[i] += w.At(i, j);
  Tensor lap(n, n);
  for (int i = 0; i < n; ++i) {
    lap.At(i, i) = 1.0;
    if (degree[i] <= 0) continue;  // isolated: identity row
    for (int j = 0; j < n; ++j) {
      if (w.At(i, j) == 0.0 || degree[j] <= 0) continue;
      lap.At(i, j) -= w.At(i, j) / std::sqrt(degree[i] * degree[j]);
    }
  }
  return OracleEmbedPadded(lap, padded_size);
}

CsrMatrix OracleScaleLaplacian(const CsrMatrix& laplacian, double lambda_max,
                               int active_n) {
  CASCN_CHECK(lambda_max > 0) << "lambda_max must be positive";
  CASCN_CHECK(active_n >= 1 && active_n <= laplacian.rows());
  std::vector<Triplet> trips;
  const auto& offsets = laplacian.row_offsets();
  const auto& cols = laplacian.col_indices();
  const auto& vals = laplacian.values();
  const double scale = 2.0 / lambda_max;
  for (int r = 0; r < laplacian.rows(); ++r)
    for (int k = offsets[r]; k < offsets[r + 1]; ++k)
      trips.push_back({r, cols[k], scale * vals[k]});
  for (int i = 0; i < active_n; ++i) trips.push_back({i, i, -1.0});
  return CsrMatrix::FromTriplets(laplacian.rows(), laplacian.cols(),
                                 std::move(trips));
}

double OracleEstimateLambdaMax(const CsrMatrix& laplacian, int active_n) {
  if (active_n <= 1) return 2.0;
  const double lambda = OraclePowerIterationLargestEigenvalue(laplacian);
  if (!std::isfinite(lambda) || lambda < 1e-6) return 2.0;
  return lambda;
}

CsrMatrix OracleMatMulSparse(const CsrMatrix& a, const CsrMatrix& other) {
  CASCN_CHECK(a.cols() == other.rows());
  const auto& offsets = a.row_offsets();
  const auto& cols = a.col_indices();
  const auto& vals = a.values();
  const auto& other_offsets = other.row_offsets();
  const auto& other_cols = other.col_indices();
  const auto& other_vals = other.values();
  std::vector<Triplet> trips;
  std::vector<double> accum(other.cols(), 0.0);
  std::vector<char> seen(other.cols(), 0);
  std::vector<int> touched;
  for (int r = 0; r < a.rows(); ++r) {
    touched.clear();
    for (int k = offsets[r]; k < offsets[r + 1]; ++k) {
      const int mid = cols[k];
      const double v = vals[k];
      for (int k2 = other_offsets[mid]; k2 < other_offsets[mid + 1]; ++k2) {
        const int c = other_cols[k2];
        if (!seen[c]) {
          seen[c] = 1;
          touched.push_back(c);
        }
        accum[c] += v * other_vals[k2];
      }
    }
    std::sort(touched.begin(), touched.end());
    for (const int c : touched) {
      if (accum[c] != 0.0) trips.push_back({r, c, accum[c]});
      accum[c] = 0.0;
      seen[c] = 0;
    }
  }
  return CsrMatrix::FromTriplets(a.rows(), other.cols(), std::move(trips));
}

CsrMatrix OracleScaled(const CsrMatrix& a, double alpha) {
  std::vector<Triplet> trips;
  trips.reserve(a.nnz());
  for (int r = 0; r < a.rows(); ++r)
    for (int k = a.row_offsets()[r]; k < a.row_offsets()[r + 1]; ++k)
      trips.push_back({r, a.col_indices()[k], a.values()[k] * alpha});
  return CsrMatrix::FromTriplets(a.rows(), a.cols(), std::move(trips));
}

CsrMatrix OracleAdd(const CsrMatrix& a, const CsrMatrix& other, double alpha,
                    double beta) {
  CASCN_CHECK(a.rows() == other.rows() && a.cols() == other.cols());
  std::vector<Triplet> trips;
  trips.reserve(a.nnz() + other.nnz());
  for (int r = 0; r < a.rows(); ++r)
    for (int k = a.row_offsets()[r]; k < a.row_offsets()[r + 1]; ++k)
      trips.push_back({r, a.col_indices()[k], alpha * a.values()[k]});
  for (int r = 0; r < other.rows(); ++r)
    for (int k = other.row_offsets()[r]; k < other.row_offsets()[r + 1]; ++k)
      trips.push_back({r, other.col_indices()[k], beta * other.values()[k]});
  return CsrMatrix::FromTriplets(a.rows(), a.cols(), std::move(trips));
}

std::vector<CsrMatrix> OracleChebyshevBasis(const CsrMatrix& scaled_laplacian,
                                            int order, int active_n) {
  CASCN_CHECK(order >= 1);
  CASCN_CHECK(scaled_laplacian.rows() == scaled_laplacian.cols());
  CASCN_CHECK(active_n >= 1 && active_n <= scaled_laplacian.rows());
  std::vector<CsrMatrix> basis;
  basis.reserve(order);
  std::vector<Triplet> eye;
  eye.reserve(active_n);
  for (int i = 0; i < active_n; ++i) eye.push_back({i, i, 1.0});
  basis.push_back(CsrMatrix::FromTriplets(scaled_laplacian.rows(),
                                          scaled_laplacian.cols(),
                                          std::move(eye)));
  if (order >= 2) basis.push_back(scaled_laplacian);
  for (int k = 2; k < order; ++k) {
    basis.push_back(
        OracleAdd(OracleScaled(OracleMatMulSparse(scaled_laplacian,
                                                  basis[k - 1]),
                               2.0),
                  basis[k - 2], 1.0, -1.0));
  }
  return basis;
}

CsrMatrix OracleAdjacencyMatrix(const Cascade& cascade, int n,
                                int padded_size, bool root_self_loop) {
  const int limit = std::min(n, cascade.size());
  CASCN_CHECK(padded_size >= limit);
  std::vector<Triplet> trips;
  if (root_self_loop) trips.push_back({0, 0, 1.0});
  for (int i = 1; i < limit; ++i) {
    for (int p : cascade.event(i).parents) {
      if (p < limit) trips.push_back({p, i, 1.0});
    }
  }
  return CsrMatrix::FromTriplets(padded_size, padded_size, std::move(trips));
}

struct OracleSnapshot {
  int num_nodes = 0;
  double time = 0.0;
  CsrMatrix adjacency;
};

std::vector<OracleSnapshot> OracleBuildSnapshotSequence(
    const Cascade& cascade, const SnapshotOptions& opts) {
  CASCN_CHECK(opts.padded_size >= 1 && opts.max_sequence_length >= 1);
  const int usable = std::min(cascade.size(), opts.padded_size);
  std::vector<int> prefix_lengths;
  if (usable <= opts.max_sequence_length) {
    for (int n = 1; n <= usable; ++n) prefix_lengths.push_back(n);
  } else {
    const int steps = opts.max_sequence_length;
    if (steps == 1) {
      prefix_lengths.push_back(usable);
    } else {
      for (int s = 0; s < steps; ++s) {
        const int n =
            1 + static_cast<int>(std::llround(static_cast<double>(s) *
                                              (usable - 1) / (steps - 1)));
        prefix_lengths.push_back(n);
      }
    }
    prefix_lengths.erase(
        std::unique(prefix_lengths.begin(), prefix_lengths.end()),
        prefix_lengths.end());
  }
  std::vector<OracleSnapshot> out;
  out.reserve(prefix_lengths.size());
  for (size_t s = 0; s < prefix_lengths.size(); ++s) {
    const int n = prefix_lengths[s];
    OracleSnapshot snap;
    snap.num_nodes = n;
    snap.time = cascade.event(n - 1).time;
    snap.adjacency = OracleAdjacencyMatrix(cascade, n, opts.padded_size,
                                           /*root_self_loop=*/s == 0);
    out.push_back(std::move(snap));
  }
  return out;
}

Result<EncodedCascade> OracleEncodeCascade(const CascadeSample& sample,
                                           const CascnConfig& config) {
  EncodedCascade enc;
  const Cascade& cascade = sample.observed;
  enc.active_n = std::min(cascade.size(), config.padded_size);
  CsrMatrix laplacian;
  if (config.variant == CascnVariant::kUndirected) {
    laplacian =
        OracleUndirectedNormalizedLaplacian(cascade, config.padded_size);
  } else {
    CASCN_ASSIGN_OR_RETURN(
        laplacian, OracleCascadeLaplacian(cascade, config.padded_size,
                                          config.MakeLaplacianOptions()));
  }
  enc.lambda_max = config.lambda_mode == LambdaMaxMode::kExact
                       ? OracleEstimateLambdaMax(laplacian, enc.active_n)
                       : 2.0;
  const CsrMatrix scaled =
      OracleScaleLaplacian(laplacian, enc.lambda_max, enc.active_n);
  enc.cheb_basis =
      OracleChebyshevBasis(scaled, config.cheb_order, enc.active_n);
  std::vector<OracleSnapshot> snapshots =
      OracleBuildSnapshotSequence(cascade, config.MakeSnapshotOptions());
  enc.snapshot_signals.reserve(snapshots.size());
  enc.snapshot_columns.reserve(snapshots.size());
  enc.decay_intervals.reserve(snapshots.size());
  for (const OracleSnapshot& snap : snapshots) {
    enc.snapshot_signals.push_back(snap.adjacency.ToDense());
    enc.snapshot_columns.push_back(
        {enc.snapshot_columns.empty() ? 0 : 1, snap.num_nodes});
    enc.decay_intervals.push_back(DecayInterval(
        snap.time, sample.observation_window, config.num_time_intervals));
  }
  enc.snapshot_ops = StackedProducts(
      enc.cheb_basis,
      OracleAdjacencyMatrix(cascade, enc.active_n, config.padded_size,
                            /*root_self_loop=*/true));
  return enc;
}

// ---------------------------------------------------------------------------
// Byte comparisons. Doubles compare by their bits, so -0.0 against +0.0 or
// two different NaNs fail as well as any rounding difference.

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

template <typename A, typename B>
bool SameArray(const A& a, const B& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0);
}

bool SameCsr(const CsrMatrix& a, const CsrMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         SameArray(a.row_offsets(), b.row_offsets()) &&
         SameArray(a.col_indices(), b.col_indices()) &&
         SameArray(a.values(), b.values());
}

bool SameTensor(const Tensor& a, const Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(double)) == 0;
}

void ExpectSameEncoding(const EncodedCascade& want, const EncodedCascade& got,
                        const std::string& where) {
  EXPECT_EQ(got.active_n, want.active_n) << where;
  EXPECT_TRUE(SameBits(got.lambda_max, want.lambda_max))
      << where << ": lambda_max " << got.lambda_max << " vs "
      << want.lambda_max;
  ASSERT_EQ(got.cheb_basis.size(), want.cheb_basis.size()) << where;
  for (size_t k = 0; k < want.cheb_basis.size(); ++k)
    EXPECT_TRUE(SameCsr(got.cheb_basis[k], want.cheb_basis[k]))
        << where << ": T_" << k;
  EXPECT_TRUE(SameCsr(got.snapshot_ops, want.snapshot_ops))
      << where << ": snapshot_ops";
  ASSERT_EQ(got.snapshot_signals.size(), want.snapshot_signals.size())
      << where;
  for (size_t t = 0; t < want.snapshot_signals.size(); ++t)
    EXPECT_TRUE(SameTensor(got.snapshot_signals[t], want.snapshot_signals[t]))
        << where << ": snapshot signal " << t;
  ASSERT_EQ(got.snapshot_columns.size(), want.snapshot_columns.size())
      << where;
  for (size_t t = 0; t < want.snapshot_columns.size(); ++t) {
    EXPECT_EQ(got.snapshot_columns[t].begin, want.snapshot_columns[t].begin)
        << where << ": columns of snapshot " << t;
    EXPECT_EQ(got.snapshot_columns[t].end, want.snapshot_columns[t].end)
        << where << ": columns of snapshot " << t;
  }
  EXPECT_EQ(got.decay_intervals, want.decay_intervals) << where;
}

// ---------------------------------------------------------------------------
// Inputs.

/// A seeded random cascade of `size` nodes observed in a 60-minute window.
/// Most nodes have one parent; some have two distinct parents, and some list
/// one parent twice (its adjacency entry sums to 2.0). Some events tie in
/// time.
CascadeSample RandomSample(int size, Rng& rng) {
  std::vector<AdoptionEvent> events = {{0, 0, {}, 0.0}};
  double time = 0.0;
  for (int i = 1; i < size; ++i) {
    if (!rng.Bernoulli(0.15)) time += rng.Uniform(0.0, 55.0 / size);
    AdoptionEvent e{i, i, {}, time};
    const int p = static_cast<int>(rng.UniformInt(i));
    e.parents.push_back(p);
    const double kind = rng.Uniform();
    if (kind < 0.2 && i > 1) {
      int q = static_cast<int>(rng.UniformInt(i - 1));
      if (q >= p) ++q;  // distinct from p
      e.parents.push_back(q);
    } else if (kind < 0.35) {
      e.parents.push_back(p);  // the same parent twice
    }
    events.push_back(std::move(e));
  }
  CascadeSample sample;
  sample.observed =
      std::move(Cascade::Create("oracle", std::move(events))).value();
  sample.observation_window = 60.0;
  return sample;
}

constexpr int kPaddedSizes[] = {8, 32, 50};
constexpr int kSequenceBounds[] = {1, 3, 10, 20};
constexpr double kAlphas[] = {0.85, 0.5, 0.99};

// ---------------------------------------------------------------------------
// Tests.

/// Every field of EncodeCascade against the oracle: sizes 1-40 at padded
/// sizes 8, 32 and 50 (so cascades both fit and get truncated), both
/// Laplacians, exact and approximate lambda_max, Chebyshev orders 1-3
/// (order 3 goes through the T_k recurrence), and sequence bounds that keep
/// every snapshot or subsample them.
TEST(EncoderOracleTest, EncodeCascadeKeepsThePaddedImplementationsBits) {
  Rng rng(20260);
  int encodings = 0;
  for (int size = 1; size <= 40; ++size) {
    for (int draw = 0; draw < 2; ++draw) {
      const CascadeSample sample = RandomSample(size, rng);
      for (const int padded : kPaddedSizes) {
        for (const CascnVariant variant :
             {CascnVariant::kDefault, CascnVariant::kUndirected}) {
          for (const LambdaMaxMode mode :
               {LambdaMaxMode::kExact, LambdaMaxMode::kApproximateTwo}) {
            for (const int order : {1, 2, 3}) {
              CascnConfig config;
              config.padded_size = padded;
              config.variant = variant;
              config.lambda_mode = mode;
              config.cheb_order = order;
              config.max_sequence_length =
                  kSequenceBounds[(size + draw + order) % 4];
              config.caslaplacian_alpha = kAlphas[(size + order) % 3];
              const std::string where =
                  "size=" + std::to_string(size) +
                  " draw=" + std::to_string(draw) +
                  " padded=" + std::to_string(padded) + " " +
                  VariantName(variant) +
                  (mode == LambdaMaxMode::kExact ? " exact" : " approx") +
                  " K=" + std::to_string(order) +
                  " bound=" + std::to_string(config.max_sequence_length);
              const Result<EncodedCascade> want =
                  OracleEncodeCascade(sample, config);
              const Result<EncodedCascade> got = EncodeCascade(sample, config);
              ASSERT_TRUE(want.ok()) << where << ": " << want.status();
              ASSERT_TRUE(got.ok()) << where << ": " << got.status();
              ExpectSameEncoding(*want, *got, where);
              ++encodings;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(encodings, 40 * 2 * 3 * 2 * 2 * 3);
}

/// The stages perfbench times on their own, each against its oracle on the
/// same inputs: the Laplacians, lambda_max, the rescaling, the Chebyshev
/// basis and the adjacency of a prefix, padded by two.
TEST(EncoderOracleTest, EachStageKeepsThePaddedImplementationsBits) {
  Rng rng(20261);
  for (int size = 1; size <= 40; ++size) {
    const CascadeSample sample = RandomSample(size, rng);
    const Cascade& cascade = sample.observed;
    for (const int padded : kPaddedSizes) {
      const int active_n = std::min(size, padded);
      const std::string where =
          "size=" + std::to_string(size) + " padded=" + std::to_string(padded);
      CasLaplacianOptions options;
      options.alpha = kAlphas[size % 3];
      const Result<CsrMatrix> want_lap =
          OracleCascadeLaplacian(cascade, padded, options);
      const Result<CsrMatrix> got_lap =
          CascadeLaplacian(cascade, padded, options);
      ASSERT_TRUE(want_lap.ok() && got_lap.ok()) << where;
      EXPECT_TRUE(SameCsr(*got_lap, *want_lap)) << where << ": CasLaplacian";
      const CsrMatrix want_und =
          OracleUndirectedNormalizedLaplacian(cascade, padded);
      EXPECT_TRUE(
          SameCsr(UndirectedNormalizedLaplacian(cascade, padded), want_und))
          << where << ": undirected";
      for (const CsrMatrix* lap : {&*want_lap, &want_und}) {
        const double want_lambda = OracleEstimateLambdaMax(*lap, active_n);
        const double got_lambda = EstimateLambdaMax(*lap, active_n);
        EXPECT_TRUE(SameBits(got_lambda, want_lambda))
            << where << ": lambda_max " << got_lambda << " vs "
            << want_lambda;
        for (const int iterations : {1, 2, 7, 64}) {
          const double want_power =
              OraclePowerIterationLargestEigenvalue(*lap, iterations);
          const double got_power =
              PowerIterationLargestEigenvalue(*lap, iterations);
          EXPECT_TRUE(SameBits(got_power, want_power))
              << where << ": power iteration x" << iterations;
        }
        for (const double lambda : {want_lambda, 2.0, 0.75}) {
          const CsrMatrix want_scaled =
              OracleScaleLaplacian(*lap, lambda, active_n);
          EXPECT_TRUE(
              SameCsr(ScaleLaplacian(*lap, lambda, active_n), want_scaled))
              << where << ": scaled by lambda " << lambda;
          for (const int order : {1, 2, 3}) {
            const std::vector<CsrMatrix> want_basis =
                OracleChebyshevBasis(want_scaled, order, active_n);
            const std::vector<CsrMatrix> got_basis =
                ChebyshevBasis(want_scaled, order, active_n);
            ASSERT_EQ(got_basis.size(), want_basis.size()) << where;
            for (int k = 0; k < order; ++k)
              EXPECT_TRUE(SameCsr(got_basis[k], want_basis[k]))
                  << where << ": T_" << k << " of order " << order;
          }
        }
      }
      for (const int n : {0, 1, size / 2, size, size + 3}) {
        for (const bool loop : {false, true}) {
          EXPECT_TRUE(SameCsr(cascade.AdjacencyMatrix(n, size + 2, loop),
                              OracleAdjacencyMatrix(cascade, n, size + 2,
                                                    loop)))
              << where << ": adjacency of " << n << " nodes, loop=" << loop;
        }
      }
    }
  }
}

/// The Chebyshev basis against the oracle to order 6, past the orders the
/// encoder test covers: sizes 1-40 at padded sizes 8, 32 and 50, both
/// Laplacians, exact and approximate lambda_max. T_k does not depend on the
/// order asked for, so every order 1-6 is checked against the oracle's T_0
/// to T_5. Some bases store exact zeros, which the comparison must keep.
TEST(EncoderOracleTest, ChebyshevBasisKeepsTheOraclesBitsToOrderSix) {
  Rng rng(20263);
  int stored_zeros = 0;
  for (int size = 1; size <= 40; ++size) {
    const Cascade cascade = RandomSample(size, rng).observed;
    for (const int padded : kPaddedSizes) {
      const int active_n = std::min(size, padded);
      CasLaplacianOptions options;
      options.alpha = kAlphas[size % 3];
      const Result<CsrMatrix> cas =
          OracleCascadeLaplacian(cascade, padded, options);
      ASSERT_TRUE(cas.ok()) << "size=" << size;
      const CsrMatrix undirected =
          OracleUndirectedNormalizedLaplacian(cascade, padded);
      for (const CsrMatrix* lap : {&*cas, &undirected}) {
        for (const double lambda :
             {OracleEstimateLambdaMax(*lap, active_n), 2.0}) {
          const CsrMatrix scaled =
              OracleScaleLaplacian(*lap, lambda, active_n);
          const std::vector<CsrMatrix> want =
              OracleChebyshevBasis(scaled, 6, active_n);
          for (const CsrMatrix& t : want)
            for (const double v : t.values()) stored_zeros += v == 0.0;
          for (int order = 1; order <= 6; ++order) {
            const std::vector<CsrMatrix> got =
                ChebyshevBasis(scaled, order, active_n);
            ASSERT_EQ(got.size(), static_cast<size_t>(order));
            for (int k = 0; k < order; ++k)
              EXPECT_TRUE(SameCsr(got[k], want[k]))
                  << "size=" << size << " padded=" << padded
                  << (lap == &undirected ? " undirected" : " CasLaplacian")
                  << " lambda=" << lambda << ": T_" << k << " of order "
                  << order;
          }
        }
      }
    }
  }
  EXPECT_GT(stored_zeros, 0);
}

/// A stationary iteration that cannot converge in its budget, or a
/// non-square or empty transition matrix, fails as the oracle does; a
/// converging one on a sparse P keeps its bits.
TEST(EncoderOracleTest, StationaryDistributionKeepsItsStatusesAndBits) {
  Rng rng(20262);
  for (int size = 2; size <= 40; size += 3) {
    const Cascade cascade = RandomSample(size, rng).observed;
    CasLaplacianOptions options;
    options.stationary_max_iterations = 2;
    const Result<CsrMatrix> want = OracleCascadeLaplacian(cascade, 32, options);
    const Result<CsrMatrix> got = CascadeLaplacian(cascade, 32, options);
    ASSERT_EQ(got.ok(), want.ok()) << "size=" << size;
    if (!want.ok()) {
      EXPECT_EQ(got.status().code(), want.status().code());
    }
    options.alpha = 1.0;
    EXPECT_EQ(CascadeLaplacian(cascade, 32, options).status().code(),
              StatusCode::kInvalidArgument);
  }
  for (int n = 1; n <= 12; ++n) {
    // A random sparse row-stochastic P with a positive diagonal.
    std::vector<Triplet> trips;
    for (int r = 0; r < n; ++r) {
      std::vector<double> row(n, 0.0);
      double sum = row[r] = rng.Uniform(0.1, 1.0);
      for (int c = 0; c < n; ++c)
        if (c != r && rng.Bernoulli(0.4)) sum += row[c] = rng.Uniform();
      for (int c = 0; c < n; ++c)
        if (row[c] != 0.0) trips.push_back({r, c, row[c] / sum});
    }
    const CsrMatrix p = CsrMatrix::FromTriplets(n, n, trips);
    for (const int budget : {1, 5, 1000}) {
      const auto want = OracleStationaryDistribution(p, budget, 1e-10);
      const auto got = StationaryDistribution(p.ToDense(), budget, 1e-10);
      ASSERT_EQ(got.ok(), want.ok()) << "n=" << n << " budget=" << budget;
      if (!want.ok()) {
        EXPECT_EQ(got.status().code(), want.status().code());
        continue;
      }
      EXPECT_TRUE(SameArray(*got, *want)) << "n=" << n << " budget=" << budget;
    }
  }
  EXPECT_EQ(
      StationaryDistribution(CsrMatrix::FromTriplets(2, 3, {}).ToDense())
          .status()
          .code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(StationaryDistribution(CsrMatrix().ToDense()).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace cascn
