#include "serve/session_manager.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../testing/test_data.h"
#include "common/crc32.h"
#include "core/cascn_model.h"
#include "serve/live_cascade.h"

namespace cascn::serve {
namespace {

class SessionManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CascnConfig config = testing::TinyCascnConfig();
    model_ = std::make_unique<CascnModel>(config);
    model_->set_output_offset(2.0);
  }

  SessionManagerOptions Options(size_t capacity = 64) {
    SessionManagerOptions options;
    options.capacity = capacity;
    options.observation_window = 60.0;
    return options;
  }

  std::unique_ptr<CascnModel> model_;
};

TEST_F(SessionManagerTest, CreateAppendPredictClose) {
  ServeMetrics metrics;
  SessionManager manager(Options(), &metrics);
  ASSERT_TRUE(manager.Create("s1", /*root_user=*/7).ok());
  EXPECT_EQ(manager.size(), 1u);
  ASSERT_TRUE(manager.Append("s1", 8, 0, 5.0).ok());
  ASSERT_TRUE(manager.Append("s1", 9, 1, 6.5).ok());
  EXPECT_EQ(manager.SessionSize("s1").value(), 3);

  auto prediction = manager.PredictLog("s1", *model_);
  ASSERT_TRUE(prediction.ok());
  EXPECT_TRUE(std::isfinite(prediction.value()));

  ASSERT_TRUE(manager.Close("s1").ok());
  EXPECT_EQ(manager.size(), 0u);
  EXPECT_FALSE(manager.PredictLog("s1", *model_).ok());
}

TEST_F(SessionManagerTest, ValidationMatchesLiveCascade) {
  SessionManager manager(Options());
  EXPECT_EQ(manager.Append("nope", 1, 0, 1.0).code(), StatusCode::kNotFound);
  ASSERT_TRUE(manager.Create("s", 1).ok());
  EXPECT_EQ(manager.Create("s", 1).code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(manager.Append("s", 2, 5, 1.0).ok());   // unknown parent
  EXPECT_FALSE(manager.Append("s", 2, 0, 70.0).ok());  // outside window
  ASSERT_TRUE(manager.Append("s", 2, 0, 10.0).ok());
  EXPECT_FALSE(manager.Append("s", 3, 0, 5.0).ok());  // time regression
  EXPECT_EQ(manager.Close("gone").code(), StatusCode::kNotFound);
}

TEST_F(SessionManagerTest, AppendRejectsNonFiniteTimes) {
  SessionManager manager(Options());
  ASSERT_TRUE(manager.Create("s", 1).ok());
  for (const double bad : {std::nan(""), -HUGE_VAL, HUGE_VAL})
    EXPECT_EQ(manager.Append("s", 2, 0, bad).code(),
              StatusCode::kInvalidArgument)
        << bad;
  // Nothing was appended, and ordering still holds for later appends.
  EXPECT_EQ(manager.SessionSize("s").value(), 1);
  ASSERT_TRUE(manager.Append("s", 2, 0, 10.0).ok());
  EXPECT_FALSE(manager.Append("s", 3, 0, 5.0).ok());
  EXPECT_TRUE(std::isfinite(manager.PredictLog("s", *model_).value()));
}

TEST_F(SessionManagerTest, DeserializeRejectsNonFiniteTimes) {
  SessionManager manager(Options());
  ASSERT_TRUE(manager.Create("s", 1).ok());
  ASSERT_TRUE(manager.Append("s", 2, 0, 1.0).ok());
  std::string blob = manager.Serialize("s").value();
  // The last event's time sits just before the trailing CRC; patch it to
  // NaN and re-seal, so only the cascade validation can catch it.
  const double nan = std::nan("");
  const size_t body = blob.size() - sizeof(uint32_t);
  std::memcpy(blob.data() + body - sizeof(double), &nan, sizeof(nan));
  const uint32_t crc = Crc32(blob.data(), body);
  std::memcpy(blob.data() + body, &crc, sizeof(crc));
  EXPECT_EQ(manager.Deserialize("t", blob).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(manager.SessionSize("t").ok());
}

/// A version-1 session blob of `events` with a correct CRC, written
/// field by field so it can hold events no append would build.
std::string SealBlob(const std::vector<AdoptionEvent>& events) {
  std::string out;
  auto put = [&out](const auto& v) {
    out.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put(uint32_t{0x53455353});
  put(uint32_t{1});
  put(static_cast<uint32_t>(events.size()));
  for (const AdoptionEvent& e : events) {
    put(static_cast<int32_t>(e.node));
    put(static_cast<int32_t>(e.user));
    put(static_cast<uint32_t>(e.parents.size()));
    for (int p : e.parents) put(static_cast<int32_t>(p));
    put(e.time);
  }
  put(Crc32(out));
  return out;
}

TEST_F(SessionManagerTest, DeserializeRejectsBlobsNoAppendCanBuild) {
  SessionManager manager(Options());
  const AdoptionEvent root{0, 1, {}, 0.0};
  const AdoptionEvent first{1, 2, {0}, 1.0};
  // The sealer writes what Serialize writes.
  ASSERT_TRUE(manager.Create("s", 1).ok());
  ASSERT_TRUE(manager.Append("s", 2, 0, 1.0).ok());
  ASSERT_EQ(SealBlob({root, first}), manager.Serialize("s").value());

  const std::vector<std::vector<AdoptionEvent>> bad = {
      {root, first, {2, 3, {0, 1}, 2.0}},  // two parents
      {root, first, {2, 3, {0}, 70.0}},    // past the observation window
      {{0, 1, {}, 1.0}, {1, 2, {0}, 2.0}},  // root not at time 0
  };
  for (size_t i = 0; i < bad.size(); ++i) {
    const Status status = manager.Deserialize("t", SealBlob(bad[i]));
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << i << status;
    EXPECT_FALSE(manager.SessionSize("t").ok()) << i;
    EXPECT_EQ(manager.size(), 1u) << i;
  }
}

TEST_F(SessionManagerTest, AgreesWithLiveCascade) {
  SessionManager manager(Options());
  LiveCascade cascade(3, 60.0);

  ASSERT_TRUE(manager.Create("s", 3).ok());
  for (int i = 0; i < 6; ++i) {
    const double time = 2.0 * (i + 1);
    ASSERT_TRUE(cascade.Append(10 + i, i / 2, time).ok());
    ASSERT_TRUE(manager.Append("s", 10 + i, i / 2, time).ok());
  }
  const auto managed = manager.PredictLog("s", *model_);
  ASSERT_TRUE(managed.ok());
  EXPECT_EQ(managed.value(), cascade.Predict(*model_).value());
}

TEST_F(SessionManagerTest, PredictionCachedUntilAppend) {
  ServeMetrics metrics;
  SessionManager manager(Options(), &metrics);
  ASSERT_TRUE(manager.Create("s", 1).ok());
  ASSERT_TRUE(manager.Append("s", 2, 0, 1.0).ok());

  const double first = manager.PredictLog("s", *model_).value();
  const double second = manager.PredictLog("s", *model_).value();
  EXPECT_DOUBLE_EQ(first, second);
  EXPECT_EQ(metrics.TakeSnapshot().counter(Counter::kPredictionCacheHits), 1u);

  ASSERT_TRUE(manager.Append("s", 3, 0, 2.0).ok());
  manager.PredictLog("s", *model_).value();
  // The append invalidated the cache: still exactly one hit.
  EXPECT_EQ(metrics.TakeSnapshot().counter(Counter::kPredictionCacheHits), 1u);
}

TEST_F(SessionManagerTest, EvictsLeastRecentlyUsedIdleSession) {
  ServeMetrics metrics;
  SessionManager manager(Options(/*capacity=*/2), &metrics);
  ASSERT_TRUE(manager.Create("a", 1).ok());
  ASSERT_TRUE(manager.Create("b", 2).ok());
  // Touch "a" so "b" becomes least recently used.
  ASSERT_TRUE(manager.Append("a", 3, 0, 1.0).ok());
  ASSERT_TRUE(manager.Create("c", 3).ok());
  EXPECT_EQ(manager.size(), 2u);
  EXPECT_TRUE(manager.SessionSize("a").ok());
  EXPECT_FALSE(manager.SessionSize("b").ok());  // evicted
  EXPECT_TRUE(manager.SessionSize("c").ok());
  EXPECT_EQ(metrics.TakeSnapshot().counter(Counter::kEvictions), 1u);
}

TEST_F(SessionManagerTest, CapacityOneRecyclesTheSlot) {
  SessionManager manager(Options(/*capacity=*/1));
  for (int i = 0; i < 5; ++i)
    ASSERT_TRUE(manager.Create("s" + std::to_string(i), i).ok());
  EXPECT_EQ(manager.size(), 1u);
  EXPECT_TRUE(manager.SessionSize("s4").ok());
}

TEST_F(SessionManagerTest, SerializeDeserializeRoundTripsPredictions) {
  SessionManager source(Options());
  ASSERT_TRUE(source.Create("s", 3).ok());
  for (int i = 0; i < 5; ++i)
    ASSERT_TRUE(source.Append("s", 10 + i, i / 2, 2.0 * (i + 1)).ok());
  const double original = source.PredictLog("s", *model_).value();

  Result<std::string> blob = source.Serialize("s");
  ASSERT_TRUE(blob.ok()) << blob.status();
  // Serialize does not disturb the source session.
  EXPECT_EQ(source.SessionSize("s").value(), 6);

  SessionManager target(Options());
  ASSERT_TRUE(target.Deserialize("s", blob.value()).ok());
  EXPECT_EQ(target.SessionSize("s").value(), 6);
  // The rebuilt session keeps predicting exactly where the original left
  // off — the bit-identity the shard handoff relies on.
  EXPECT_EQ(target.PredictLog("s", *model_).value(), original);
  // And keeps accepting appends with full validation state.
  ASSERT_TRUE(target.Append("s", 99, 0, 20.0).ok());
  EXPECT_FALSE(target.Append("s", 98, 0, 1.0).ok());  // time regression
}

std::string Hex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const unsigned char b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xf];
  }
  return out;
}

TEST_F(SessionManagerTest, SerializedBlobBytesArePinned) {
  // Blob format version 1, byte for byte: shards running different builds
  // hand sessions to each other, so the layout must never drift.
  SessionManager manager(Options());
  ASSERT_TRUE(manager.Create("s", 7).ok());
  ASSERT_TRUE(manager.Append("s", 8, 0, 5.0).ok());
  ASSERT_TRUE(manager.Append("s", 9, 1, 6.5).ok());
  EXPECT_EQ(Hex(manager.Serialize("s").value()),
            "53534553" "01000000" "03000000"  // magic, version, 3 events
            // node, user, parent count, parents..., time
            "00000000" "07000000" "00000000" "0000000000000000"
            "01000000" "08000000" "01000000" "00000000" "0000000000001440"
            "02000000" "09000000" "01000000" "01000000" "0000000000001a40"
            "3f6435f4");  // CRC-32 of everything before it
}

TEST_F(SessionManagerTest, DeserializeRejectsDuplicatesAndCorruptBlobs) {
  SessionManager manager(Options());
  ASSERT_TRUE(manager.Create("s", 1).ok());
  ASSERT_TRUE(manager.Append("s", 2, 0, 1.0).ok());
  const std::string blob = manager.Serialize("s").value();
  EXPECT_EQ(manager.Deserialize("s", blob).code(),
            StatusCode::kInvalidArgument);  // id already live
  std::string torn = blob.substr(0, blob.size() / 2);
  EXPECT_EQ(manager.Deserialize("t", torn).code(), StatusCode::kIoError);
  std::string corrupt = blob;
  corrupt[blob.size() / 2] ^= 0x20;
  EXPECT_EQ(manager.Deserialize("t", corrupt).code(), StatusCode::kIoError);
  EXPECT_FALSE(manager.SessionSize("t").ok());  // nothing half-built
}

TEST_F(SessionManagerTest, ExtractRemovesAndBlobRebuildsElsewhere) {
  SessionManager manager(Options());
  ASSERT_TRUE(manager.Create("s", 1).ok());
  ASSERT_TRUE(manager.Append("s", 2, 0, 1.0).ok());
  const double original = manager.PredictLog("s", *model_).value();
  Result<std::string> blob = manager.Extract("s");
  ASSERT_TRUE(blob.ok()) << blob.status();
  EXPECT_EQ(manager.size(), 0u);
  EXPECT_EQ(manager.Append("s", 3, 0, 2.0).code(), StatusCode::kNotFound);
  ASSERT_TRUE(manager.Deserialize("s", blob.value()).ok());
  EXPECT_EQ(manager.PredictLog("s", *model_).value(), original);
}

TEST_F(SessionManagerTest, SpillRestoresEvictedSessionTransparently) {
  ServeMetrics metrics;
  SessionManagerOptions options = Options(/*capacity=*/2);
  options.spill_capacity = 8;
  SessionManager manager(options, &metrics);
  ASSERT_TRUE(manager.Create("a", 1).ok());
  ASSERT_TRUE(manager.Append("a", 2, 0, 1.0).ok());
  ASSERT_TRUE(manager.Create("b", 2).ok());
  ASSERT_TRUE(manager.Create("c", 3).ok());  // evicts + spills "a"
  EXPECT_EQ(metrics.TakeSnapshot().counter(Counter::kSpilled), 1u);
  // The next touch restores "a" with its history intact.
  EXPECT_EQ(manager.SessionSize("a").value(), 2);
  EXPECT_EQ(metrics.TakeSnapshot().counter(Counter::kSpillRestores), 1u);
  ASSERT_TRUE(manager.Append("a", 4, 0, 2.0).ok());
}

TEST_F(SessionManagerTest, SpillOverflowDropsAreCountedAndReported) {
  ServeMetrics metrics;
  SessionManagerOptions options = Options(/*capacity=*/1);
  options.spill_capacity = 1;
  std::vector<std::string> dropped;
  options.on_spill_drop = [&dropped](const std::string& id) {
    dropped.push_back(id);
  };
  SessionManager manager(options, &metrics);
  // capacity 1 + spill 1: the third create pushes "a"'s blob off the end
  // of the spill LRU — capacity-driven session loss, which must be
  // observable rather than silent.
  ASSERT_TRUE(manager.Create("a", 1).ok());
  ASSERT_TRUE(manager.Create("b", 2).ok());  // evicts+spills "a"
  EXPECT_EQ(metrics.TakeSnapshot().counter(Counter::kSpillDropped), 0u);
  ASSERT_TRUE(manager.Create("c", 3).ok());  // spills "b", drops "a"
  EXPECT_EQ(metrics.TakeSnapshot().counter(Counter::kSpillDropped), 1u);
  ASSERT_EQ(dropped.size(), 1u);
  EXPECT_EQ(dropped[0], "a");
  EXPECT_EQ(manager.Append("a", 4, 0, 1.0).code(), StatusCode::kNotFound);
  // "b" is still spilled and restorable.
  EXPECT_EQ(manager.SessionSize("b").value(), 1);
}

TEST_F(SessionManagerTest, SessionIdsCoverLiveAndSpilledSessions) {
  SessionManagerOptions options = Options(/*capacity=*/2);
  options.spill_capacity = 8;
  SessionManager manager(options);
  for (int i = 0; i < 5; ++i)
    ASSERT_TRUE(manager.Create("s" + std::to_string(i), i).ok());
  EXPECT_EQ(manager.size(), 2u);  // three were evicted into the spill table
  std::vector<std::string> ids = manager.SessionIds();
  std::sort(ids.begin(), ids.end());
  ASSERT_EQ(ids.size(), 5u);  // the drain loop must see every one of them
  for (int i = 0; i < 5; ++i) EXPECT_EQ(ids[i], "s" + std::to_string(i));
  // Extract works on a spilled id too (restore + remove).
  EXPECT_TRUE(manager.Extract(ids[0]).ok());
  EXPECT_EQ(manager.SessionIds().size(), 4u);
}

}  // namespace
}  // namespace cascn::serve
