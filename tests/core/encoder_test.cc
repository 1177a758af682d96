#include "core/encoder.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "../testing/test_data.h"
#include "common/rng.h"

namespace cascn {
namespace {

CascadeSample MakeSample() {
  std::vector<AdoptionEvent> events = {
      {0, 0, {}, 0.0},  {1, 1, {0}, 5.0},  {2, 2, {0}, 15.0},
      {3, 3, {1}, 30.0}, {4, 4, {2}, 55.0},
  };
  CascadeSample sample;
  sample.observed = std::move(Cascade::Create("e", std::move(events))).value();
  sample.observation_window = 60.0;
  sample.future_increment = 4;
  sample.log_label = 2.0;
  return sample;
}

TEST(DecayIntervalTest, MapsTimeToBuckets) {
  // Eq. 15 with T = 60, l = 6: bucket width 10.
  EXPECT_EQ(DecayInterval(0.0, 60.0, 6), 0);
  EXPECT_EQ(DecayInterval(9.99, 60.0, 6), 0);
  EXPECT_EQ(DecayInterval(10.0, 60.0, 6), 1);
  EXPECT_EQ(DecayInterval(59.9, 60.0, 6), 5);
  // Clamped at the window edge.
  EXPECT_EQ(DecayInterval(60.0, 60.0, 6), 5);
  EXPECT_EQ(DecayInterval(1000.0, 60.0, 6), 5);
}

TEST(DecayIntervalTest, ClampsBeforeConvertingToInt) {
  // Past int's range or not a number: converting these to int would be
  // undefined behaviour, so they must be clamped first.
  EXPECT_EQ(DecayInterval(1e300, 60.0, 6), 5);
  EXPECT_EQ(DecayInterval(HUGE_VAL, 60.0, 6), 5);
  EXPECT_EQ(DecayInterval(-1e300, 60.0, 6), 0);
  EXPECT_EQ(DecayInterval(-HUGE_VAL, 60.0, 6), 0);
  EXPECT_EQ(DecayInterval(std::nan(""), 60.0, 6), 0);
}

TEST(EncoderTest, ShapesAndIntervals) {
  const CascadeSample sample = MakeSample();
  CascnConfig config = testing::TinyCascnConfig();
  config.padded_size = 8;
  auto enc = EncodeCascade(sample, config);
  ASSERT_TRUE(enc.ok()) << enc.status();
  EXPECT_EQ(enc->active_n, 5);
  ASSERT_EQ(enc->snapshot_signals.size(), 5u);
  for (const Tensor& x : enc->snapshot_signals) {
    EXPECT_EQ(x.rows(), 8);
    EXPECT_EQ(x.cols(), 8);
  }
  ASSERT_EQ(enc->decay_intervals.size(), 5u);
  // Times 0, 5, 15, 30, 55 with T=60, l=4 (width 15): buckets 0,0,1,2,3.
  EXPECT_EQ(enc->decay_intervals,
            (std::vector<int>{0, 0, 1, 2, 3}));
  // The first snapshot reads the root's self-loop column, the rest start
  // past it; each ends at its node count.
  ASSERT_EQ(enc->snapshot_columns.size(), 5u);
  for (int t = 0; t < 5; ++t) {
    EXPECT_EQ(enc->snapshot_columns[t].begin, t == 0 ? 0 : 1);
    EXPECT_EQ(enc->snapshot_columns[t].end, t + 1);
  }
  EXPECT_EQ(enc->snapshot_ops.rows(), config.cheb_order * 8);
}

TEST(EncoderTest, ChebyshevBasisMatchesOrder) {
  const CascadeSample sample = MakeSample();
  for (int k : {1, 2, 3}) {
    CascnConfig config = testing::TinyCascnConfig();
    config.cheb_order = k;
    auto enc = EncodeCascade(sample, config);
    ASSERT_TRUE(enc.ok());
    EXPECT_EQ(static_cast<int>(enc->cheb_basis.size()), k);
  }
}

TEST(EncoderTest, ExactLambdaDiffersFromApproximation) {
  const CascadeSample sample = MakeSample();
  CascnConfig exact = testing::TinyCascnConfig();
  exact.lambda_mode = LambdaMaxMode::kExact;
  CascnConfig approx = testing::TinyCascnConfig();
  approx.lambda_mode = LambdaMaxMode::kApproximateTwo;
  auto enc_exact = EncodeCascade(sample, exact);
  auto enc_approx = EncodeCascade(sample, approx);
  ASSERT_TRUE(enc_exact.ok() && enc_approx.ok());
  EXPECT_DOUBLE_EQ(enc_approx->lambda_max, 2.0);
  EXPECT_GT(enc_exact->lambda_max, 0.0);
  EXPECT_NE(enc_exact->lambda_max, 2.0);
}

TEST(EncoderTest, UndirectedVariantUsesSymmetricLaplacian) {
  const CascadeSample sample = MakeSample();
  CascnConfig config = testing::TinyCascnConfig();
  config.variant = CascnVariant::kUndirected;
  config.lambda_mode = LambdaMaxMode::kApproximateTwo;
  auto enc = EncodeCascade(sample, config);
  ASSERT_TRUE(enc.ok());
  // T_1 = scaled Laplacian must be symmetric for the undirected variant.
  ASSERT_GE(enc->cheb_basis.size(), 2u);
  const Tensor t1 = enc->cheb_basis[1].ToDense();
  EXPECT_TRUE(AllClose(t1, t1.Transposed(), 1e-12));
}

TEST(EncoderTest, DirectedVariantIsAsymmetric) {
  const CascadeSample sample = MakeSample();
  CascnConfig config = testing::TinyCascnConfig();
  config.lambda_mode = LambdaMaxMode::kApproximateTwo;
  auto enc = EncodeCascade(sample, config);
  ASSERT_TRUE(enc.ok());
  const Tensor t1 = enc->cheb_basis[1].ToDense();
  EXPECT_FALSE(AllClose(t1, t1.Transposed(), 1e-9));
}

/// A 40-node cascade whose adopters each retweet a seeded random earlier
/// adopter; adopter 6 retweets two.
CascadeSample RandomTreeSample() {
  Rng rng(21);
  std::vector<AdoptionEvent> events = {{0, 0, {}, 0.0}};
  for (int i = 1; i < 40; ++i) {
    const int parent = static_cast<int>(rng.Uniform(0.0, i));
    events.push_back({i, i, {std::min(parent, i - 1)}, 1.4 * i});
  }
  events[6].parents = {2, 5};
  CascadeSample sample;
  sample.observed =
      std::move(Cascade::Create("tree", std::move(events))).value();
  sample.observation_window = 60.0;
  return sample;
}

bool SameCsr(const CsrMatrix& a, const CsrMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         a.row_offsets() == b.row_offsets() &&
         a.col_indices() == b.col_indices() && a.values() == b.values();
}

/// Every snapshot's operators P_{t,k} against the dense products T_k X_t
/// with exact zeros dropped: both Laplacians, K = 1..3, prefixes of 1, 2,
/// 10 and 32 nodes and the whole 40-node tree (truncated to the padded
/// 32), under sequence bounds that keep every snapshot (32), subsample
/// them (10) and keep few (3).
TEST(EncoderTest, SnapshotOperatorsAreTheDenseProductsWithZerosDropped) {
  const CascadeSample tree = RandomTreeSample();
  for (const CascnVariant variant :
       {CascnVariant::kDefault, CascnVariant::kUndirected}) {
    for (const int order : {1, 2, 3}) {
      for (const int bound : {3, 10, 32}) {
        CascnConfig config;  // padded size 32
        config.variant = variant;
        config.cheb_order = order;
        config.max_sequence_length = bound;
        for (const int size : {1, 2, 10, 32, 40}) {
          CascadeSample sample = tree;
          sample.observed = tree.observed.PrefixBySize(size);
          const auto enc = EncodeCascade(sample, config);
          ASSERT_TRUE(enc.ok()) << enc.status();
          const std::string where =
              VariantName(variant) + " K=" + std::to_string(order) +
              " bound=" + std::to_string(bound) +
              " size=" + std::to_string(size);
          ASSERT_FALSE(enc->snapshot_signals.empty()) << where;
          ASSERT_EQ(enc->num_snapshots(),
                    static_cast<int>(enc->snapshot_signals.size()))
              << where;
          for (int t = 0; t < enc->num_snapshots(); ++t) {
            for (int k = 0; k < order; ++k) {
              // Values compare exactly, so a rounding difference fails as
              // well as a missing or extra entry.
              const CsrMatrix want = CsrMatrix::FromDense(
                  enc->cheb_basis[k].MatMulDense(enc->snapshot_signals[t]));
              EXPECT_TRUE(SameCsr(enc->SnapshotOperator(t, k), want))
                  << where << " t=" << t << " k=" << k;
            }
          }
        }
      }
    }
  }
}

/// The model's encoder: every field EncodeCascade fills but the dense
/// signals, with the same bits, under the shapes of the test above.
TEST(EncoderTest, EncodeForForwardIsEncodeCascadeWithoutTheSignals) {
  const CascadeSample tree = RandomTreeSample();
  for (const CascnVariant variant :
       {CascnVariant::kDefault, CascnVariant::kUndirected}) {
    for (const int order : {1, 2, 3}) {
      for (const int bound : {1, 3, 10, 32}) {
        CascnConfig config;  // padded size 32
        config.variant = variant;
        config.cheb_order = order;
        config.max_sequence_length = bound;
        for (const int size : {1, 2, 10, 32, 40}) {
          CascadeSample sample = tree;
          sample.observed = tree.observed.PrefixBySize(size);
          const auto want = EncodeCascade(sample, config);
          const auto got = EncodeForForward(sample, config);
          ASSERT_TRUE(want.ok()) << want.status();
          ASSERT_TRUE(got.ok()) << got.status();
          const std::string where =
              VariantName(variant) + " K=" + std::to_string(order) +
              " bound=" + std::to_string(bound) +
              " size=" + std::to_string(size);
          EXPECT_TRUE(got->snapshot_signals.empty()) << where;
          EXPECT_EQ(got->active_n, want->active_n) << where;
          EXPECT_EQ(std::memcmp(&got->lambda_max, &want->lambda_max,
                                sizeof(double)),
                    0)
              << where;
          EXPECT_EQ(got->decay_intervals, want->decay_intervals) << where;
          ASSERT_EQ(got->snapshot_columns.size(),
                    want->snapshot_columns.size())
              << where;
          for (size_t t = 0; t < want->snapshot_columns.size(); ++t) {
            EXPECT_EQ(got->snapshot_columns[t].begin,
                      want->snapshot_columns[t].begin)
                << where;
            EXPECT_EQ(got->snapshot_columns[t].end,
                      want->snapshot_columns[t].end)
                << where;
          }
          EXPECT_TRUE(SameCsr(got->snapshot_ops, want->snapshot_ops))
              << where;
          ASSERT_EQ(got->cheb_basis.size(), want->cheb_basis.size())
              << where;
          for (size_t k = 0; k < want->cheb_basis.size(); ++k)
            EXPECT_TRUE(SameCsr(got->cheb_basis[k], want->cheb_basis[k]))
                << where << " k=" << k;
        }
      }
    }
  }
}

TEST(EncoderTest, LargeCascadeIsTruncatedToPaddedSize) {
  std::vector<AdoptionEvent> events = {{0, 0, {}, 0.0}};
  for (int i = 1; i < 40; ++i)
    events.push_back({i, i, {0}, static_cast<double>(i)});
  CascadeSample sample;
  sample.observed = std::move(Cascade::Create("big", std::move(events))).value();
  sample.observation_window = 60.0;
  CascnConfig config = testing::TinyCascnConfig();  // padded_size 12
  auto enc = EncodeCascade(sample, config);
  ASSERT_TRUE(enc.ok());
  EXPECT_EQ(enc->active_n, 12);
  EXPECT_LE(static_cast<int>(enc->snapshot_signals.size()),
            config.max_sequence_length);
}

}  // namespace
}  // namespace cascn
