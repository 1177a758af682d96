#include "graph/snapshot.h"

#include <gtest/gtest.h>

namespace cascn {
namespace {

/// The entries of a dense adjacency that are not zero.
int Nonzeros(const Tensor& adjacency) {
  int count = 0;
  for (int i = 0; i < adjacency.size(); ++i)
    count += adjacency.data()[i] != 0.0;
  return count;
}

Cascade Fig3Cascade() {
  // Five adoptions matching the Fig. 3 walk-through.
  std::vector<AdoptionEvent> events = {
      {0, 10, {}, 0.0},  {1, 11, {0}, 1.0}, {2, 12, {0}, 2.0},
      {3, 13, {2}, 3.0}, {4, 14, {1}, 4.0},
  };
  return std::move(Cascade::Create("fig3", std::move(events))).value();
}

TEST(SnapshotTest, OneSnapshotPerEventWhenShort) {
  SnapshotOptions opts;
  opts.padded_size = 5;
  opts.max_sequence_length = 10;
  const auto seq = BuildSnapshotSequence(Fig3Cascade(), opts);
  ASSERT_EQ(seq.size(), 5u);
  for (size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i].num_nodes, static_cast<int>(i) + 1);
    EXPECT_DOUBLE_EQ(seq[i].time, static_cast<double>(i));
    EXPECT_EQ(seq[i].adjacency.rows(), 5);
  }
}

TEST(SnapshotTest, FirstSnapshotHasOnlyRootSelfLoop) {
  SnapshotOptions opts;
  opts.padded_size = 5;
  const auto seq = BuildSnapshotSequence(Fig3Cascade(), opts);
  const Tensor& first = seq[0].adjacency;
  EXPECT_DOUBLE_EQ(first.At(0, 0), 1.0);
  EXPECT_EQ(Nonzeros(seq[0].adjacency), 1);
}

TEST(SnapshotTest, LaterSnapshotsDropSelfLoopAndGrowEdges) {
  SnapshotOptions opts;
  opts.padded_size = 5;
  const auto seq = BuildSnapshotSequence(Fig3Cascade(), opts);
  const Tensor& second = seq[1].adjacency;
  EXPECT_DOUBLE_EQ(second.At(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(second.At(0, 1), 1.0);
  // Snapshot adjacency nnz grows monotonically after the first.
  for (size_t i = 2; i < seq.size(); ++i)
    EXPECT_GE(Nonzeros(seq[i].adjacency), Nonzeros(seq[i - 1].adjacency));
  // Final snapshot has all 4 edges.
  EXPECT_EQ(Nonzeros(seq.back().adjacency), 4);
}

TEST(SnapshotTest, SubsamplesLongCascades) {
  std::vector<AdoptionEvent> events = {{0, 0, {}, 0.0}};
  for (int i = 1; i < 50; ++i)
    events.push_back({i, i, {0}, static_cast<double>(i)});
  const Cascade big =
      std::move(Cascade::Create("big", std::move(events))).value();
  SnapshotOptions opts;
  opts.padded_size = 50;
  opts.max_sequence_length = 8;
  const auto seq = BuildSnapshotSequence(big, opts);
  EXPECT_EQ(seq.size(), 8u);
  EXPECT_EQ(seq.front().num_nodes, 1);
  EXPECT_EQ(seq.back().num_nodes, 50);
  // Strictly increasing prefix lengths.
  for (size_t i = 1; i < seq.size(); ++i)
    EXPECT_GT(seq[i].num_nodes, seq[i - 1].num_nodes);
}

TEST(SnapshotTest, PaddedSizeTruncatesNodes) {
  std::vector<AdoptionEvent> events = {{0, 0, {}, 0.0}};
  for (int i = 1; i < 20; ++i)
    events.push_back({i, i, {0}, static_cast<double>(i)});
  const Cascade big =
      std::move(Cascade::Create("big", std::move(events))).value();
  SnapshotOptions opts;
  opts.padded_size = 6;
  opts.max_sequence_length = 100;
  const auto seq = BuildSnapshotSequence(big, opts);
  EXPECT_EQ(seq.size(), 6u);  // only the first 6 nodes are usable
  EXPECT_EQ(seq.back().num_nodes, 6);
  EXPECT_EQ(seq.back().adjacency.rows(), 6);
}

TEST(SnapshotTest, SingleNodeCascade) {
  const Cascade lone =
      std::move(Cascade::Create("lone", {{0, 5, {}, 0.0}})).value();
  SnapshotOptions opts;
  opts.padded_size = 3;
  const auto seq = BuildSnapshotSequence(lone, opts);
  ASSERT_EQ(seq.size(), 1u);
  EXPECT_EQ(Nonzeros(seq[0].adjacency), 1);  // the self connection
}

class SnapshotLengthSweep : public ::testing::TestWithParam<int> {};

TEST_P(SnapshotLengthSweep, NeverExceedsMaxLengthAndAlwaysEndsAtFull) {
  const int max_len = GetParam();
  std::vector<AdoptionEvent> events = {{0, 0, {}, 0.0}};
  for (int i = 1; i < 23; ++i)
    events.push_back({i, i, {i - 1}, static_cast<double>(i)});
  const Cascade chain =
      std::move(Cascade::Create("chain", std::move(events))).value();
  SnapshotOptions opts;
  opts.padded_size = 30;
  opts.max_sequence_length = max_len;
  const auto seq = BuildSnapshotSequence(chain, opts);
  EXPECT_LE(static_cast<int>(seq.size()), max_len);
  EXPECT_EQ(seq.back().num_nodes, 23);
}

INSTANTIATE_TEST_SUITE_P(Lengths, SnapshotLengthSweep,
                         ::testing::Values(1, 2, 3, 5, 10, 22, 23, 40));

}  // namespace
}  // namespace cascn
