#include "nn/normalization.hpp"

#include <gtest/gtest.h>

#include "nn/dense.hpp"
#include "nn/network.hpp"
#include "one_box.hpp"
#include "util/rng.hpp"

namespace ranm {
namespace {

TEST(Normalization, ForwardAppliesStatistics) {
  Normalization norm(Shape{3}, std::vector<float>{1.0F, 2.0F, 0.0F},
                     std::vector<float>{2.0F, 0.5F, 1.0F});
  Tensor y = norm.forward(Tensor::vector({2.0F, 4.0F, -1.0F}));
  EXPECT_FLOAT_EQ(y[0], 2.0F);   // (2-1)*2
  EXPECT_FLOAT_EQ(y[1], 1.0F);   // (4-2)*0.5
  EXPECT_FLOAT_EQ(y[2], -1.0F);  // (-1-0)*1
}

TEST(Normalization, ScalarConstructorBroadcasts) {
  Normalization norm(Shape{1, 2, 2}, 0.5F, 2.0F);
  Tensor y = norm.forward(Tensor({1, 2, 2}, 1.0F));
  for (std::size_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(y[i], 1.0F);
}

TEST(Normalization, Validation) {
  EXPECT_THROW(Normalization(Shape{2}, std::vector<float>{0.0F},
                             std::vector<float>{1.0F, 1.0F}),
               std::invalid_argument);
  EXPECT_THROW(Normalization(Shape{1}, 0.0F, 0.0F), std::invalid_argument);
  EXPECT_THROW(Normalization(Shape{1}, 0.0F, -1.0F), std::invalid_argument);
  Normalization norm(Shape{2}, 0.0F, 1.0F);
  EXPECT_THROW((void)norm.forward(Tensor::vector({1.0F})),
               std::invalid_argument);
}

TEST(Normalization, BackwardScalesGradient) {
  Normalization norm(Shape{2}, std::vector<float>{0.0F, 0.0F},
                     std::vector<float>{2.0F, 4.0F});
  const Tensor x = Tensor::vector({1.0F, 1.0F});
  const Tensor grad_out = Tensor::vector({1.0F, 1.0F});
  Tensor g({2});
  norm.backward_batch(x.data(), norm.forward(x).data(), grad_out.data(),
                      g.data(), 1);
  EXPECT_FLOAT_EQ(g[0], 2.0F);
  EXPECT_FLOAT_EQ(g[1], 4.0F);
}

TEST(Normalization, IntervalTransferExactEndpoints) {
  Normalization norm(Shape{1}, std::vector<float>{1.0F},
                     std::vector<float>{2.0F});
  IntervalVector in(std::vector<Interval>{Interval(0.0F, 3.0F)});
  BoxBatch out;
  norm.propagate_batch(VectorizedBoundBackend{}, one_column(in), out);
  EXPECT_FLOAT_EQ(out.lo(0, 0), -2.0F);
  EXPECT_FLOAT_EQ(out.hi(0, 0), 4.0F);
}

TEST(Normalization, ZonotopeTransferMatchesInterval) {
  Normalization norm(Shape{2}, std::vector<float>{1.0F, -1.0F},
                     std::vector<float>{0.5F, 3.0F});
  const std::vector<float> c{2.0F, 0.0F};
  Zonotope z = Zonotope::linf_ball(c, 1.0F);
  const auto zbox = norm.propagate(z).to_box();
  BoxBatch out;
  norm.propagate_batch(VectorizedBoundBackend{},
                       one_column(IntervalVector::linf_ball(c, 1.0F)), out);
  const auto ibox = out.box(0);
  for (std::size_t j = 0; j < 2; ++j) {
    EXPECT_NEAR(zbox[j].lo, ibox[j].lo, 1e-5F);
    EXPECT_NEAR(zbox[j].hi, ibox[j].hi, 1e-5F);
  }
}

TEST(Normalization, ComposesInNetworkSoundly) {
  Rng rng(5);
  Network net;
  net.emplace<Normalization>(Shape{4}, 0.5F, 2.0F);
  net.emplace<Dense>(4, 3);
  net.init_params(rng);

  Tensor center = Tensor::random_uniform({4}, rng);
  const float delta = 0.1F;
  const auto box = propagate_ball(net, 2, center.span(), delta);
  for (int trial = 0; trial < 200; ++trial) {
    Tensor x = center;
    for (std::size_t j = 0; j < 4; ++j) {
      x[j] += rng.uniform_f(-delta, delta);
    }
    const Tensor y = net.forward(x);
    for (std::size_t j = 0; j < y.numel(); ++j) {
      EXPECT_GE(y[j], box[j].lo - 1e-4F);
      EXPECT_LE(y[j], box[j].hi + 1e-4F);
    }
  }
}

TEST(Normalization, NoTrainableParameters) {
  Normalization norm(Shape{3}, 0.0F, 1.0F);
  EXPECT_TRUE(norm.parameters().empty());
  EXPECT_TRUE(norm.gradients().empty());
}

}  // namespace
}  // namespace ranm
