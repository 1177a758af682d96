#include "serve/live_cascade.h"

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "../testing/test_data.h"
#include "common/crc32.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "core/cascn_model.h"
#include "core/trainer.h"

namespace cascn::serve {
namespace {

using testing::TinyCascnConfig;
using testing::TinyDataset;
using testing::TinyTrainerOptions;

class LiveCascadeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = TinyDataset();
    model_ = std::make_unique<CascnModel>(TinyCascnConfig());
    TrainRegressor(*model_, dataset_, TinyTrainerOptions(2));
  }
  CascadeDataset dataset_;
  std::unique_ptr<CascnModel> model_;
};

TEST_F(LiveCascadeTest, PredictsAfterStart) {
  LiveCascade cascade(/*root_user=*/5, 60.0);
  EXPECT_EQ(cascade.size(), 1);
  const Result<double> log = cascade.Predict(*model_);
  ASSERT_TRUE(log.ok()) << log.status();
  EXPECT_TRUE(std::isfinite(log.value()));
  EXPECT_GE(Exp2m1(log.value()), -1.0);
}

TEST_F(LiveCascadeTest, UpdatesChangePrediction) {
  LiveCascade cascade(5, 60.0);
  const double before = cascade.Predict(*model_).value();
  for (int i = 0; i < 6; ++i)
    ASSERT_TRUE(cascade.Append(10 + i, 0, 5.0 + i).ok());
  const double after = cascade.Predict(*model_).value();
  EXPECT_EQ(cascade.size(), 7);
  EXPECT_NE(before, after);
}

TEST_F(LiveCascadeTest, CachedBetweenUpdates) {
  LiveCascade cascade(1, 60.0);
  ASSERT_TRUE(cascade.Append(2, 0, 3.0).ok());
  EXPECT_FALSE(cascade.has_cached_prediction());
  const double a = cascade.Predict(*model_).value();
  EXPECT_TRUE(cascade.has_cached_prediction());
  const double b = cascade.Predict(*model_).value();
  EXPECT_EQ(a, b);
  ASSERT_TRUE(cascade.Append(3, 1, 4.0).ok());
  EXPECT_FALSE(cascade.has_cached_prediction());
  cascade.Predict(*model_).value();
  cascade.InvalidatePrediction();
  EXPECT_FALSE(cascade.has_cached_prediction());
}

/// `model` built afresh from its current weights: no cached state.
std::unique_ptr<CascnModel> FreshCopy(const CascnModel& model) {
  auto fresh = std::make_unique<CascnModel>(model.config());
  FrameWriter weights;
  model.Save(weights);
  FrameReader in(weights.bytes());
  EXPECT_TRUE(fresh->Load(in).ok());
  fresh->set_output_offset(model.output_offset());
  return fresh;
}

/// The sample a LiveCascade forecasts: its events, id "session".
CascadeSample SessionSample(const std::vector<AdoptionEvent>& events,
                            double observation_window) {
  CascadeSample sample;
  sample.observed = Cascade::Create("session", events).value();
  sample.observation_window = observation_window;
  return sample;
}

/// `sample` replayed one adoption at a time: every prefix's events.
std::vector<std::vector<AdoptionEvent>> Prefixes(const CascadeSample& sample) {
  std::vector<std::vector<AdoptionEvent>> prefixes;
  for (int size = 1; size <= sample.observed.size(); ++size)
    prefixes.push_back(sample.observed.PrefixBySize(size).events());
  return prefixes;
}

TEST_F(LiveCascadeTest, MatchesBatchPrediction) {
  // A cascade fed one adoption at a time must forecast, after every
  // adoption, exactly what a fresh model's batch path forecasts for the
  // same events. A served forecast encodes its prefix for that call only,
  // so the model's encoding cache stays empty.
  model_->ClearCache();
  const CascadeSample& sample = dataset_.test[0];
  LiveCascade cascade(sample.observed.event(0).user,
                      sample.observation_window);
  double live = 0.0;
  for (int i = 0; i < sample.observed.size(); ++i) {
    if (i > 0) {
      const AdoptionEvent& e = sample.observed.event(i);
      ASSERT_TRUE(cascade.Append(e.user, e.parents[0], e.time).ok());
    }
    const Result<double> served = cascade.Predict(*model_);
    ASSERT_TRUE(served.ok()) << served.status();
    live = served.value();
    const double expected =
        FreshCopy(*model_)
            ->PredictLogCalibrated(
                SessionSample(cascade.events(), sample.observation_window))
            .value()
            .At(0, 0);
    EXPECT_EQ(std::memcmp(&live, &expected, sizeof(double)), 0)
        << "size " << cascade.size();
  }
  EXPECT_EQ(model_->EncodingCacheSize(), 0u);
  const double batch =
      FreshCopy(*model_)->PredictLogCalibrated(sample).value().At(0, 0);
  EXPECT_EQ(live, batch);
}

TEST_F(LiveCascadeTest, ConcurrentServingOnOneModelKeepsNoEncodings) {
  // Four threads serve distinct cascades through one shared model, as a
  // concurrent-safe model may be served: the values-only path takes no
  // lock and adds no cache entry, and every forecast keeps its bits.
  constexpr int kThreads = 4;
  const std::unique_ptr<CascnModel> reference = FreshCopy(*model_);
  std::vector<std::vector<double>> expected(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    const CascadeSample& sample = dataset_.test[w];
    for (const std::vector<AdoptionEvent>& events : Prefixes(sample))
      expected[w].push_back(
          reference
              ->PredictLogCalibrated(
                  SessionSample(events, sample.observation_window))
              .value()
              .At(0, 0));
  }
  model_->ClearCache();
  std::vector<int> mismatches(kThreads, 0);
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      const CascadeSample& sample = dataset_.test[w];
      for (int rep = 0; rep < 3; ++rep) {
        LiveCascade cascade(sample.observed.event(0).user,
                            sample.observation_window);
        for (int i = 0; i < sample.observed.size(); ++i) {
          const AdoptionEvent& e = sample.observed.event(i);
          if (i > 0 && !cascade.Append(e.user, e.parents[0], e.time).ok()) {
            ++failures[w];
            break;
          }
          const Result<double> served = cascade.Predict(*model_);
          if (!served.ok()) {
            ++failures[w];
          } else if (std::memcmp(&served.value(), &expected[w][i],
                                 sizeof(double)) != 0) {
            ++mismatches[w];
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int w = 0; w < kThreads; ++w) {
    EXPECT_EQ(failures[w], 0) << "thread " << w;
    EXPECT_EQ(mismatches[w], 0) << "thread " << w;
  }
  EXPECT_EQ(model_->EncodingCacheSize(), 0u);
}

TEST_F(LiveCascadeTest, RejectsInvalidUpdates) {
  // There is no "not started" case: constructing a LiveCascade starts it.
  LiveCascade cascade(1, 60.0);
  EXPECT_EQ(cascade.Append(2, 5, 1.0).code(),
            StatusCode::kInvalidArgument);  // unknown parent
  EXPECT_EQ(cascade.Append(2, -1, 1.0).code(),
            StatusCode::kInvalidArgument);  // unknown parent
  EXPECT_EQ(cascade.Append(2, 0, 70.0).code(),
            StatusCode::kOutOfRange);  // outside window
  ASSERT_TRUE(cascade.Append(2, 0, 10.0).ok());
  EXPECT_EQ(cascade.Append(3, 0, 5.0).code(),
            StatusCode::kInvalidArgument);  // time regression
  EXPECT_EQ(cascade.size(), 2);
}

TEST_F(LiveCascadeTest, RejectsNonFiniteTimes) {
  LiveCascade cascade(1, 60.0);
  for (const double bad : {std::nan(""), -HUGE_VAL, HUGE_VAL})
    EXPECT_EQ(cascade.Append(2, 0, bad).code(), StatusCode::kInvalidArgument)
        << bad;
  EXPECT_EQ(cascade.size(), 1);
  ASSERT_TRUE(cascade.Append(2, 0, 10.0).ok());
  EXPECT_FALSE(cascade.Append(3, 0, 5.0).ok());
  EXPECT_TRUE(std::isfinite(cascade.Predict(*model_).value()));
}

// --- Blob codec and seeded properties ---------------------------------

constexpr double kWindow = 60.0;

bool SameEvents(const std::vector<AdoptionEvent>& a,
                const std::vector<AdoptionEvent>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].node != b[i].node || a[i].user != b[i].user ||
        a[i].parents != b[i].parents ||
        std::memcmp(&a[i].time, &b[i].time, sizeof(double)) != 0)
      return false;
  }
  return true;
}

/// Replaces the trailing CRC-32 so only the event checks can reject.
std::string Reseal(std::string blob) {
  const size_t body = blob.size() - sizeof(uint32_t);
  const uint32_t crc = Crc32(blob.data(), body);
  std::memcpy(blob.data() + body, &crc, sizeof(crc));
  return blob;
}

/// A parsed blob must be a cascade appends could build, and must
/// serialize back to the same bytes.
void ExpectParsedIsWellFormed(const Result<LiveCascade>& parsed,
                              const std::string& blob) {
  if (!parsed.ok()) return;
  EXPECT_TRUE(Cascade::Create("check", parsed->events()).ok());
  EXPECT_EQ(parsed->Serialize(), blob);
}

TEST(LiveCascadeCodecTest, RoundTripsEvents) {
  LiveCascade cascade(3, kWindow);
  for (int i = 0; i < 5; ++i)
    ASSERT_TRUE(cascade.Append(10 + i, i / 2, 2.0 * (i + 1)).ok());
  const std::string blob = cascade.Serialize();
  Result<LiveCascade> parsed = LiveCascade::Parse(blob, kWindow);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(SameEvents(parsed->events(), cascade.events()));
  // The parsed cascade keeps the append rule's state.
  EXPECT_FALSE(parsed->Append(99, 0, 1.0).ok());  // time regression
  EXPECT_TRUE(parsed->Append(99, 0, 20.0).ok());
}

TEST(LiveCascadeCodecTest, EveryFlippedByteAndTruncationIsRejected) {
  LiveCascade cascade(4, kWindow);
  ASSERT_TRUE(cascade.Append(5, 0, 1.5).ok());
  ASSERT_TRUE(cascade.Append(6, 1, 2.5).ok());
  const std::string blob = cascade.Serialize();
  for (size_t len = 0; len < blob.size(); ++len)
    EXPECT_EQ(LiveCascade::Parse(blob.substr(0, len), kWindow).status().code(),
              StatusCode::kIoError)
        << len;
  for (size_t i = 0; i < blob.size(); ++i) {
    for (const unsigned char mask : {0x01, 0x80, 0xff}) {
      std::string flipped = blob;
      flipped[i] = static_cast<char>(flipped[i] ^ mask);
      // CRC-32 catches every single-byte error.
      EXPECT_EQ(LiveCascade::Parse(flipped, kWindow).status().code(),
                StatusCode::kIoError)
          << i;
      // Resealed, only the framing and replay checks stand between the
      // flip and a session: they must reject it or yield a well-formed
      // cascade, never abort.
      const std::string sealed = Reseal(flipped);
      ExpectParsedIsWellFormed(LiveCascade::Parse(sealed, kWindow), sealed);
    }
  }
}

TEST(LiveCascadeCodecTest, EventCountIsBoundedByTheBlobSize) {
  // A sealed blob claiming 2^24 - 1 events must fail on its count, before
  // anything is sized by it.
  std::string blob = LiveCascade(1, kWindow).Serialize();
  const uint32_t huge = (1u << 24) - 1;
  std::memcpy(blob.data() + 2 * sizeof(uint32_t), &huge, sizeof(huge));
  const Status status = LiveCascade::Parse(Reseal(blob), kWindow).status();
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find("event count"), std::string::npos)
      << status;
}

TEST(LiveCascadePropertyTest, RandomOpSequencesKeepTheInvariants) {
  CascnModel model(TinyCascnConfig());
  model.set_output_offset(2.0);
  const double kTimes[] = {std::nan(""), HUGE_VAL, -HUGE_VAL, -1.0, 0.0,
                           kWindow, kWindow + 1e-9, 1e300};
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    LiveCascade cascade(static_cast<int>(rng.UniformInt(50)), kWindow);
    for (int op = 0; op < 60; ++op) {
      const std::vector<AdoptionEvent> before = cascade.events();
      switch (rng.UniformInt(4)) {
        case 0:
        case 1: {  // append: mostly valid, sometimes not
          const int parent =
              static_cast<int>(rng.UniformInt(cascade.size() + 3)) - 1;
          const double last = before.back().time;
          double time = last + rng.Exponential(1.0);
          if (rng.Bernoulli(0.2)) time = last - rng.Uniform(0.0, 1.0);
          if (rng.Bernoulli(0.1)) time = last;
          if (rng.Bernoulli(0.15)) time = kTimes[rng.UniformInt(8)];
          const bool admissible = parent >= 0 && parent < cascade.size() &&
                                  std::isfinite(time) && time >= last &&
                                  time <= kWindow;
          const Status status =
              cascade.Append(static_cast<int>(rng.UniformInt(50)), parent,
                             time);
          EXPECT_EQ(status.ok(), admissible)
              << "seed " << seed << " parent " << parent << " time " << time
              << ": " << status;
          if (!status.ok()) {
            EXPECT_TRUE(status.code() == StatusCode::kInvalidArgument ||
                        status.code() == StatusCode::kOutOfRange)
                << status;
            EXPECT_TRUE(SameEvents(cascade.events(), before));
          } else {
            EXPECT_EQ(cascade.size(), static_cast<int>(before.size()) + 1);
          }
          break;
        }
        case 2: {  // predict: the cached value is a fresh forecast's bits
          const Result<double> first = cascade.Predict(model);
          ASSERT_TRUE(first.ok()) << first.status();
          const Result<double> cached = cascade.Predict(model);
          ASSERT_TRUE(cached.ok()) << cached.status();
          CascadeSample fresh;
          fresh.observed = Cascade::Create("session", cascade.events()).value();
          fresh.observation_window = kWindow;
          const double expected = model.PredictValue(fresh);
          EXPECT_EQ(std::memcmp(&cached.value(), &expected, sizeof(double)),
                    0);
          EXPECT_EQ(std::memcmp(&first.value(), &expected, sizeof(double)),
                    0);
          break;
        }
        case 3: {  // Serialize/Parse round trip
          const std::string blob = cascade.Serialize();
          Result<LiveCascade> parsed = LiveCascade::Parse(blob, kWindow);
          ASSERT_TRUE(parsed.ok()) << parsed.status();
          EXPECT_TRUE(SameEvents(parsed->events(), cascade.events()));
          ExpectParsedIsWellFormed(parsed, blob);
          cascade = std::move(parsed).value();
          break;
        }
      }
      // Every event list the rule accepts is a valid Cascade.
      EXPECT_TRUE(Cascade::Create("check", cascade.events()).ok())
          << "seed " << seed << " op " << op;
    }
  }
}

}  // namespace
}  // namespace cascn::serve
