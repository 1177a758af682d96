#include "nn/module.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/linear.h"
#include "nn/mlp.h"

namespace cascn::nn {
namespace {

class ToyModule : public Module {
 public:
  explicit ToyModule(Rng& rng) : inner_(2, 3, rng) {
    weight_ = RegisterParameter("weight", Tensor(2, 2, 1.5));
    RegisterSubmodule("inner", &inner_);
  }
  ag::Variable weight_;
  Linear inner_;
};

TEST(ModuleTest, ParametersIncludeSubmodules) {
  Rng rng(1);
  ToyModule m(rng);
  EXPECT_EQ(m.Parameters().size(), 3u);  // weight + inner weight/bias
}

TEST(ModuleTest, NamedParametersArePrefixed) {
  Rng rng(2);
  ToyModule m(rng);
  const auto named = m.NamedParameters();
  ASSERT_EQ(named.size(), 3u);
  EXPECT_EQ(named[0].first, "weight");
  EXPECT_EQ(named[1].first, "inner.weight");
  EXPECT_EQ(named[2].first, "inner.bias");
}

TEST(ModuleTest, ParameterCountSums) {
  Rng rng(3);
  ToyModule m(rng);
  EXPECT_EQ(m.ParameterCount(), 4 + 6 + 3);
}

TEST(ModuleTest, ZeroGradClearsAll) {
  Rng rng(4);
  ToyModule m(rng);
  ag::Sum(ag::Square(m.weight_)).Backward();
  EXPECT_FALSE(m.weight_.grad().empty());
  m.ZeroGrad();
  EXPECT_DOUBLE_EQ(m.weight_.grad().AbsMax(), 0.0);
}

TEST(ModuleTest, SaveLoadRoundTrip) {
  Rng rng(5);
  Mlp original({3, 4, 1}, Activation::kRelu, rng);
  FrameWriter buffer;
  original.Save(buffer);

  Rng rng2(999);  // different init
  Mlp restored({3, 4, 1}, Activation::kRelu, rng2);
  FrameReader in(buffer.bytes());
  ASSERT_TRUE(restored.Load(in).ok());

  const auto a = original.NamedParameters();
  const auto b = restored.NamedParameters();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i)
    EXPECT_TRUE(AllClose(a[i].second.value(), b[i].second.value()))
        << a[i].first;
}

TEST(ModuleTest, LoadRejectsShapeMismatch) {
  Rng rng(6);
  Mlp small({2, 2, 1}, Activation::kRelu, rng);
  FrameWriter buffer;
  small.Save(buffer);
  Mlp big({3, 3, 1}, Activation::kRelu, rng);
  FrameReader in(buffer.bytes());
  EXPECT_FALSE(big.Load(in).ok());
}

TEST(ModuleTest, LoadRejectsTruncatedStream) {
  Rng rng(7);
  Mlp mlp({2, 2, 1}, Activation::kRelu, rng);
  FrameWriter buffer;
  mlp.Save(buffer);
  const std::string& data = buffer.bytes();
  FrameReader truncated(std::string_view(data).substr(0, data.size() / 2));
  EXPECT_FALSE(mlp.Load(truncated).ok());
}

TEST(ModuleTest, LoadRejectsEmptyStream) {
  Rng rng(8);
  Mlp mlp({2, 1}, Activation::kRelu, rng);
  FrameReader empty("");
  EXPECT_FALSE(mlp.Load(empty).ok());
}

}  // namespace
}  // namespace cascn::nn
