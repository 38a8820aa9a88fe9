#include "nn/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "nn/init.hpp"
#include "util/rng.hpp"

namespace ranm {
namespace {

Network tiny_net(Rng& rng) {
  Network net;
  net.emplace<Dense>(3, 4);
  net.emplace<ReLU>(Shape{4});
  net.emplace<Dense>(4, 2);
  net.init_params(rng);
  return net;
}

TEST(Network, AddValidatesShapes) {
  Network net;
  net.emplace<Dense>(3, 4);
  EXPECT_THROW(net.emplace<Dense>(5, 2), std::invalid_argument);
  EXPECT_THROW(net.add(nullptr), std::invalid_argument);
}

TEST(Network, LayerIndexingIsOneBased) {
  Rng rng(1);
  Network net = tiny_net(rng);
  EXPECT_EQ(net.num_layers(), 3U);
  EXPECT_EQ(net.layer(1).name().substr(0, 5), "Dense");
  EXPECT_EQ(net.layer(2).name(), "ReLU");
  EXPECT_THROW((void)net.layer(0), std::invalid_argument);
  EXPECT_THROW((void)net.layer(4), std::invalid_argument);
}

TEST(Network, ForwardEqualsLayerComposition) {
  Rng rng(2);
  Network net = tiny_net(rng);
  Tensor x = Tensor::random_uniform({3}, rng);
  Tensor manual = net.layer(3).forward(
      net.layer(2).forward(net.layer(1).forward(x)));
  EXPECT_TRUE(net.forward(x).allclose(manual));
}

TEST(Network, ForwardToZeroIsIdentity) {
  Rng rng(3);
  Network net = tiny_net(rng);
  Tensor x = Tensor::random_uniform({3}, rng);
  EXPECT_TRUE(net.forward_to(0, x).allclose(x));
}

TEST(Network, PrefixPlusSuffixEqualsFull) {
  Rng rng(4);
  Network net = tiny_net(rng);
  Tensor x = Tensor::random_uniform({3}, rng);
  // G = G^{k+1..n} o G^k for every split point (the paper's G^{l↪k}).
  const Tensor full = net.forward(x);
  for (std::size_t k = 1; k < net.num_layers(); ++k) {
    Tensor mid = net.forward_to(k, x);
    Tensor rest = net.forward_range(k + 1, net.num_layers(), mid);
    EXPECT_TRUE(rest.allclose(full)) << "split at k=" << k;
  }
}

TEST(Network, ForwardRangeValidation) {
  Rng rng(5);
  Network net = tiny_net(rng);
  Tensor x({4});
  EXPECT_THROW((void)net.forward_range(2, 1, x), std::invalid_argument);
  EXPECT_THROW((void)net.forward_range(0, 2, x), std::invalid_argument);
}

TEST(Network, ParametersAndGradientsAligned) {
  Rng rng(6);
  Network net = tiny_net(rng);
  const auto params = net.parameters();
  const auto grads = net.gradients();
  ASSERT_EQ(params.size(), grads.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    EXPECT_EQ(params[i]->shape(), grads[i]->shape());
  }
  EXPECT_EQ(net.num_parameters(), 3U * 4 + 4 + 4 * 2 + 2);
}

TEST(Network, ZeroGradients) {
  Rng rng(7);
  Network net = tiny_net(rng);
  const std::vector<Tensor> x{Tensor::random_uniform({3}, rng)};
  const std::vector<Tensor> target{Tensor::vector({1.0F, -1.0F})};
  const std::size_t row = 0;
  double loss_sum = 0.0;
  net.train_step(x, target, {&row, 1}, MSELoss{}, 1.0F, loss_sum);
  EXPECT_GT(loss_sum, 0.0);
  bool any_nonzero = false;
  for (Tensor* g : net.gradients()) any_nonzero |= g->norm2() > 0.0F;
  EXPECT_TRUE(any_nonzero);
  net.zero_gradients();
  for (Tensor* g : net.gradients()) EXPECT_EQ(g->norm2(), 0.0F);
}

TEST(Network, SummaryListsLayers) {
  Rng rng(8);
  Network net = tiny_net(rng);
  const std::string s = net.summary();
  EXPECT_NE(s.find("g1:"), std::string::npos);
  EXPECT_NE(s.find("g3:"), std::string::npos);
  EXPECT_NE(s.find("ReLU"), std::string::npos);
}

TEST(Network, InputOutputShapes) {
  Rng rng(9);
  Network net = tiny_net(rng);
  EXPECT_EQ(net.input_shape(), (Shape{3}));
  EXPECT_EQ(net.output_shape(), (Shape{2}));
  Network empty;
  EXPECT_THROW((void)empty.input_shape(), std::logic_error);
}

TEST(MakeMlp, StructureAndValidation) {
  Rng rng(10);
  Network mlp = make_mlp({4, 8, 8, 2}, rng);
  // Dense,ReLU,Dense,ReLU,Dense = 5 layers.
  EXPECT_EQ(mlp.num_layers(), 5U);
  EXPECT_EQ(mlp.input_shape(), (Shape{4}));
  EXPECT_EQ(mlp.output_shape(), (Shape{2}));
  EXPECT_THROW((void)make_mlp({4}, rng), std::invalid_argument);
}

TEST(MakeSmallConvnet, EndToEndShapes) {
  Rng rng(11);
  Network net = make_small_convnet(16, 16, 4, 10, 3, rng);
  EXPECT_EQ(net.num_layers(), 7U);
  Tensor x = Tensor::random_uniform({1, 16, 16}, rng);
  Tensor y = net.forward(x);
  EXPECT_EQ(y.shape(), (Shape{3}));
}

// One const network serves every inference thread: concurrent
// forward_batch calls on a conv -> pool -> dense chain must produce the
// serial run's activations bit for bit (and race-free under TSan). Each
// thread cycles through batch sizes on both sides of the sample tile and
// the sample block, so its reused per-thread scratch is rewritten at
// different widths.
TEST(Network, ConcurrentForwardBatchMatchesSerial) {
  Rng rng(12);
  const Network net = make_small_convnet(12, 12, 4, 16, 3, rng);
  std::vector<Tensor> inputs;
  for (int i = 0; i < 70; ++i) {
    inputs.push_back(Tensor::random_uniform({1, 12, 12}, rng));
  }
  const std::size_t k = 6;  // post-Dense LeakyReLU
  const std::vector<std::size_t> sizes{1, 17, 24, 33, 70};
  std::vector<std::vector<float>> expected;
  for (const std::size_t n : sizes) {
    const FeatureBatch serial =
        net.forward_batch(k, std::span(inputs.data(), n));
    expected.emplace_back(serial.storage().begin(), serial.storage().end());
  }

  constexpr int kThreads = 4;
  constexpr int kRounds = 8;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        const std::size_t s = std::size_t(r + t) % sizes.size();
        const FeatureBatch got =
            net.forward_batch(k, std::span(inputs.data(), sizes[s]));
        if (!std::equal(got.storage().begin(), got.storage().end(),
                        expected[s].begin(), expected[s].end())) {
          ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << t;
}

// The batch kernels read raw pointers, so forward_batch checks every
// input before any of them runs: one short input (index 17 of 33, or the
// first) is rejected at every prefix, k = 0 included.
TEST(Network, ForwardBatchRejectsAnyBadInput) {
  Rng rng(13);
  const Network net = make_small_convnet(12, 12, 4, 16, 3, rng);
  std::vector<Tensor> inputs;
  for (int i = 0; i < 33; ++i) {
    inputs.push_back(Tensor::random_uniform({1, 12, 12}, rng));
  }
  inputs[17] = Tensor::random_uniform({1, 12, 11}, rng);
  for (std::size_t k = 0; k <= net.num_layers(); ++k) {
    EXPECT_THROW((void)net.forward_batch(k, inputs), std::invalid_argument)
        << "k=" << k;
  }
  std::swap(inputs[0], inputs[17]);
  for (std::size_t k = 0; k <= net.num_layers(); ++k) {
    EXPECT_THROW((void)net.forward_batch(k, inputs), std::invalid_argument)
        << "k=" << k;
  }
}

}  // namespace
}  // namespace ranm
