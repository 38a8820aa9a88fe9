// Soundness of the abstract transformers through whole networks: for any
// sampled input inside the initial region, the concrete activation at the
// target layer must lie inside the propagated box/zonotope. This is the
// semantic foundation of Definition 1. Boxes run as one-column batches.
#include <gtest/gtest.h>

#include "nn/init.hpp"
#include "nn/network.hpp"
#include "one_box.hpp"
#include "util/rng.hpp"

namespace ranm {
namespace {

struct PropagationCase {
  int seed;
  float delta;
};

class BoxPropagation : public ::testing::TestWithParam<PropagationCase> {};

TEST_P(BoxPropagation, MlpSound) {
  const auto param = GetParam();
  Rng rng(param.seed);
  Network net = make_mlp({6, 12, 10, 4}, rng);
  Tensor center = Tensor::random_uniform({6}, rng);

  for (std::size_t k = 1; k <= net.num_layers(); ++k) {
    const IntervalVector box =
        propagate_ball(net, k, center.span(), param.delta);
    for (int trial = 0; trial < 100; ++trial) {
      Tensor x = center;
      for (std::size_t j = 0; j < x.numel(); ++j) {
        x[j] += rng.uniform_f(-param.delta, param.delta);
      }
      const Tensor y = net.forward_to(k, x);
      for (std::size_t j = 0; j < y.numel(); ++j) {
        EXPECT_GE(y[j], box[j].lo - 1e-4F) << "k=" << k << " j=" << j;
        EXPECT_LE(y[j], box[j].hi + 1e-4F) << "k=" << k << " j=" << j;
      }
    }
  }
}

class ZonotopePropagation : public ::testing::TestWithParam<PropagationCase> {
};

TEST_P(ZonotopePropagation, MlpSound) {
  const auto param = GetParam();
  Rng rng(param.seed);
  Network net = make_mlp({6, 12, 10, 4}, rng);
  Tensor center = Tensor::random_uniform({6}, rng);

  const auto ball = Zonotope::linf_ball(center.span(), param.delta);
  for (std::size_t k = 1; k <= net.num_layers(); ++k) {
    const IntervalVector box = net.propagate_zonotope(1, k, ball).to_box();
    for (int trial = 0; trial < 100; ++trial) {
      Tensor x = center;
      for (std::size_t j = 0; j < x.numel(); ++j) {
        x[j] += rng.uniform_f(-param.delta, param.delta);
      }
      const Tensor y = net.forward_to(k, x);
      for (std::size_t j = 0; j < y.numel(); ++j) {
        EXPECT_GE(y[j], box[j].lo - 1e-4F) << "k=" << k << " j=" << j;
        EXPECT_LE(y[j], box[j].hi + 1e-4F) << "k=" << k << " j=" << j;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BoxPropagation,
    ::testing::Values(PropagationCase{1, 0.01F}, PropagationCase{2, 0.05F},
                      PropagationCase{3, 0.2F}, PropagationCase{4, 0.5F}));

INSTANTIATE_TEST_SUITE_P(
    Sweep, ZonotopePropagation,
    ::testing::Values(PropagationCase{1, 0.01F}, PropagationCase{2, 0.05F},
                      PropagationCase{3, 0.2F}, PropagationCase{4, 0.5F}));

TEST(Propagation, ConvnetBoxSound) {
  Rng rng(42);
  Network net = make_small_convnet(8, 8, 3, 10, 2, rng);
  Tensor center = Tensor::random_uniform({1, 8, 8}, rng, 0.0F, 1.0F);
  const float delta = 0.05F;
  const std::size_t k = net.num_layers();
  const IntervalVector box = propagate_ball(net, k, center.span(), delta);
  for (int trial = 0; trial < 100; ++trial) {
    Tensor x = center;
    for (std::size_t j = 0; j < x.numel(); ++j) {
      x[j] += rng.uniform_f(-delta, delta);
    }
    const Tensor y = net.forward(x);
    for (std::size_t j = 0; j < y.numel(); ++j) {
      EXPECT_GE(y[j], box[j].lo - 1e-4F);
      EXPECT_LE(y[j], box[j].hi + 1e-4F);
    }
  }
}

TEST(Propagation, ConvnetZonotopeSoundAndAtLeastAsTight) {
  Rng rng(43);
  Network net = make_small_convnet(8, 8, 3, 10, 2, rng);
  Tensor center = Tensor::random_uniform({1, 8, 8}, rng, 0.0F, 1.0F);
  const float delta = 0.05F;
  const std::size_t k = net.num_layers();
  const IntervalVector ibox = propagate_ball(net, k, center.span(), delta);
  const IntervalVector zbox =
      net.propagate_zonotope(1, k, Zonotope::linf_ball(center.span(), delta))
          .to_box();
  // The concrete point must be in both; zonotope total width must not
  // exceed box total width (maxpool coarsening keeps it comparable, affine
  // parts are exact).
  const Tensor y = net.forward(center);
  for (std::size_t j = 0; j < y.numel(); ++j) {
    EXPECT_TRUE(ibox[j].contains(y[j]));
    EXPECT_TRUE(zbox[j].contains(y[j]));
  }
}

TEST(Propagation, DegenerateBallIsPoint) {
  Rng rng(44);
  Network net = make_mlp({4, 6, 3}, rng);
  Tensor x = Tensor::random_uniform({4}, rng);
  const std::size_t k = net.num_layers();
  const IntervalVector box = propagate_ball(net, k, x.span(), 0.0F);
  const Tensor y = net.forward(x);
  for (std::size_t j = 0; j < y.numel(); ++j) {
    EXPECT_NEAR(box[j].lo, y[j], 1e-4F);
    EXPECT_NEAR(box[j].hi, y[j], 1e-4F);
  }
}

TEST(Propagation, WidthGrowsWithDelta) {
  Rng rng(45);
  Network net = make_mlp({4, 8, 4}, rng);
  Tensor x = Tensor::random_uniform({4}, rng);
  const std::size_t k = net.num_layers();
  float prev = 0.0F;
  for (float delta : {0.01F, 0.05F, 0.1F, 0.3F}) {
    const IntervalVector box = propagate_ball(net, k, x.span(), delta);
    EXPECT_GE(box.total_width(), prev);
    prev = box.total_width();
  }
}

}  // namespace
}  // namespace ranm
