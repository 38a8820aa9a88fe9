// FeatureBatch container semantics and the batched feature-extraction
// pipeline: Network::forward_batch must match one-column passes bit for
// bit, and MonitorBuilder::features_batch / warns_batch must agree with
// the scalar paths.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "core/minmax_monitor.hpp"
#include "core/monitor_builder.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/flatten.hpp"
#include "nn/init.hpp"
#include "nn/normalization.hpp"
#include "nn/pooling.hpp"
#include "util/rng.hpp"

namespace ranm {
namespace {

TEST(FeatureBatch, LayoutIsNeuronMajor) {
  FeatureBatch batch(3, 4);
  EXPECT_EQ(batch.dimension(), 3U);
  EXPECT_EQ(batch.size(), 4U);
  batch.at(1, 2) = 7.0F;
  // Row-major dim x n: element (j, i) lives at j * n + i.
  EXPECT_FLOAT_EQ(batch.storage()[1 * 4 + 2], 7.0F);
  EXPECT_EQ(batch.neuron(1).size(), 4U);
  EXPECT_FLOAT_EQ(batch.neuron(1)[2], 7.0F);
}

TEST(FeatureBatch, SampleRoundTrip) {
  FeatureBatch batch(3, 2);
  const std::vector<float> a{1.0F, 2.0F, 3.0F};
  const std::vector<float> b{-1.0F, -2.0F, -3.0F};
  batch.set_sample(0, a);
  batch.set_sample(1, b);
  EXPECT_EQ(batch.sample(0), a);
  EXPECT_EQ(batch.sample(1), b);
  std::vector<float> out(3);
  batch.copy_sample(1, out);
  EXPECT_EQ(out, b);
  // Columns interleave in neuron-major storage.
  EXPECT_FLOAT_EQ(batch.neuron(0)[0], 1.0F);
  EXPECT_FLOAT_EQ(batch.neuron(0)[1], -1.0F);
}

TEST(FeatureBatch, FromSamplesPacksColumns) {
  const std::vector<std::vector<float>> samples{{1.0F, 2.0F},
                                                {3.0F, 4.0F},
                                                {5.0F, 6.0F}};
  const FeatureBatch batch = FeatureBatch::from_samples(2, samples);
  EXPECT_EQ(batch.size(), 3U);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(batch.sample(i), samples[i]);
  }
}

TEST(FeatureBatch, ReshapeKeepsTheLargestStorage) {
  // Reused scratch: a reshape to a smaller or equal total keeps the
  // storage (no reallocation), and rows follow the new sample count.
  FeatureBatch batch(8, 4);
  const float* storage = batch.storage().data();
  batch.reshape(3, 5);
  EXPECT_EQ(batch.dimension(), 3U);
  EXPECT_EQ(batch.size(), 5U);
  EXPECT_EQ(batch.storage().size(), 15U);
  EXPECT_EQ(batch.storage().data(), storage);
  EXPECT_EQ(batch.neuron(2).data(), storage + 10);
  batch.reshape(4, 8);
  EXPECT_EQ(batch.storage().data(), storage);
  batch.reshape(0, 0);
  EXPECT_TRUE(batch.empty());
  EXPECT_THROW(batch.reshape(0, 3), std::invalid_argument);
  batch.reshape(16, 4);  // grows past the largest shape so far
  EXPECT_EQ(batch.storage().size(), 64U);
  const std::uint32_t rows[] = {1};
  FeatureBatch view = batch.view_rows(rows);
  EXPECT_THROW(view.reshape(1, 4), std::logic_error);
}

TEST(FeatureBatch, EmptyAndErrors) {
  const FeatureBatch empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.dimension(), 0U);
  const FeatureBatch no_samples(5, 0);
  EXPECT_TRUE(no_samples.empty());
  EXPECT_EQ(no_samples.dimension(), 5U);
  EXPECT_THROW(FeatureBatch(0, 3), std::invalid_argument);

  FeatureBatch batch(2, 2);
  EXPECT_THROW(batch.set_sample(2, std::vector<float>{1.0F, 2.0F}),
               std::out_of_range);
  EXPECT_THROW(batch.set_sample(0, std::vector<float>{1.0F}),
               std::invalid_argument);
  std::vector<float> short_out(1);
  EXPECT_THROW(batch.copy_sample(0, short_out), std::invalid_argument);
  EXPECT_THROW((void)batch.neuron(2), std::out_of_range);
  EXPECT_THROW(
      (void)FeatureBatch::from_samples(
          2, std::vector<std::vector<float>>{{1.0F}}),
      std::invalid_argument);
}

TEST(FeatureBatch, ViewRowsAliasesWithoutCopying) {
  FeatureBatch batch(5, 4);
  for (std::size_t j = 0; j < 5; ++j) {
    for (std::size_t i = 0; i < 4; ++i) {
      batch.at(j, i) = float(j * 10 + i);
    }
  }
  const std::vector<std::uint32_t> rows{4, 1};
  const FeatureBatch view = batch.view_rows(rows);
  EXPECT_TRUE(view.is_view());
  EXPECT_FALSE(batch.is_view());
  EXPECT_EQ(view.dimension(), 2U);
  EXPECT_EQ(view.size(), 4U);
  // Row 0 of the view is row 4 of the parent, and aliases its storage.
  EXPECT_EQ(view.neuron(0).data(), batch.neuron(4).data());
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(view.at(0, i), batch.at(4, i));
    EXPECT_EQ(view.at(1, i), batch.at(1, i));
  }
  // Mutations to the parent are visible through the view (no copies).
  batch.at(4, 2) = -7.0F;
  EXPECT_EQ(view.at(0, 2), -7.0F);
  // copy_sample gathers through the row table.
  std::vector<float> sample(2);
  view.copy_sample(2, sample);
  EXPECT_EQ(sample[0], -7.0F);
  EXPECT_EQ(sample[1], batch.at(1, 2));
}

TEST(FeatureBatch, ViewsCompose) {
  FeatureBatch batch(6, 3);
  for (std::size_t j = 0; j < 6; ++j) {
    for (std::size_t i = 0; i < 3; ++i) batch.at(j, i) = float(j);
  }
  const std::vector<std::uint32_t> outer{5, 3, 1};
  const FeatureBatch first = batch.view_rows(outer);
  const std::vector<std::uint32_t> inner{2, 0};
  const FeatureBatch second = first.view_rows(inner);
  EXPECT_EQ(second.dimension(), 2U);
  EXPECT_EQ(second.at(0, 0), 1.0F);  // outer[inner[0]] = row 1
  EXPECT_EQ(second.at(1, 0), 5.0F);  // outer[inner[1]] = row 5
  EXPECT_EQ(second.neuron(1).data(), batch.neuron(5).data());
}

TEST(FeatureBatch, ViewsAreReadOnlyAndValidated) {
  FeatureBatch batch(4, 2);
  const std::vector<std::uint32_t> rows{0, 3};
  FeatureBatch view = batch.view_rows(rows);
  const std::vector<float> sample{1.0F, 2.0F};
  EXPECT_THROW(view.set_sample(0, sample), std::logic_error);
  EXPECT_THROW((void)view.neuron(0), std::logic_error);  // mutable overload
  EXPECT_THROW((void)view.storage(), std::logic_error);
  EXPECT_THROW((void)std::as_const(view).storage(), std::logic_error);
  const std::vector<std::uint32_t> bad{4};
  EXPECT_THROW((void)batch.view_rows(bad), std::out_of_range);
  EXPECT_THROW((void)batch.view_rows({}), std::invalid_argument);
}

TEST(ForwardBatch, MatchesPerSampleForwardTo) {
  Rng rng(42);
  Network net = make_mlp({6, 10, 8, 3}, rng);
  std::vector<Tensor> inputs;
  for (int i = 0; i < 9; ++i) {
    inputs.push_back(Tensor::random_uniform({6}, rng));
  }
  for (const std::size_t k : {0UL, 1UL, 2UL, 5UL}) {
    const FeatureBatch batch = net.forward_batch(k, inputs);
    EXPECT_EQ(batch.size(), inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const Tensor expected = net.forward_to(k, inputs[i]);
      ASSERT_EQ(batch.dimension(), expected.numel());
      const auto got = batch.sample(i);
      EXPECT_EQ(std::memcmp(got.data(), expected.data(),
                            got.size() * sizeof(float)),
                0)
          << "k=" << k << " i=" << i;
    }
  }
  // Full-network overload and the empty minibatch.
  const FeatureBatch full = net.forward_batch(inputs);
  EXPECT_EQ(full.dimension(), 3U);
  const FeatureBatch none = net.forward_batch(2, {});
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.dimension(), 10U);
}

TEST(ForwardBatch, BuilderFeaturesBatchMatchesFeatures) {
  Rng rng(43);
  Network net = make_mlp({4, 8, 6}, rng);
  MonitorBuilder builder(net, 2);
  std::vector<Tensor> inputs;
  for (int i = 0; i < 7; ++i) {
    inputs.push_back(Tensor::random_uniform({4}, rng));
  }
  const FeatureBatch batch = builder.features_batch(inputs);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_EQ(batch.sample(i), builder.features(inputs[i]));
  }
}

TEST(ForwardBatch, BuilderWarnsBatchMatchesWarns) {
  Rng rng(44);
  Network net = make_mlp({4, 8, 6}, rng);
  MonitorBuilder builder(net, 2);
  std::vector<Tensor> train;
  for (int i = 0; i < 12; ++i) {
    train.push_back(Tensor::random_uniform({4}, rng));
  }
  MinMaxMonitor monitor(builder.feature_dim());
  builder.build_standard(monitor, train);
  std::vector<Tensor> probes;
  for (int i = 0; i < 10; ++i) {
    probes.push_back(Tensor::random_uniform({4}, rng, -3.0F, 3.0F));
  }
  auto buf = std::make_unique<bool[]>(probes.size());
  std::span<bool> out(buf.get(), probes.size());
  builder.warns_batch(monitor, probes, out);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(out[i], builder.warns(monitor, probes[i]));
  }
  EXPECT_THROW(builder.warns_batch(monitor, probes, {buf.get(), 3}),
               std::invalid_argument);
}

// ---- Batched layer kernels: bit-identical to one-column passes ----------

// Every parameter and normalisation statistic random (biases included), so
// each kernel's bias and rounding path is exercised.
void randomise(Network& net, Rng& rng) {
  for (Tensor* p : net.parameters()) {
    for (std::size_t i = 0; i < p->numel(); ++i) {
      (*p)[i] = rng.uniform_f(-0.6F, 0.6F);
    }
  }
}

std::vector<float> random_stats(std::size_t n, Rng& rng, float lo, float hi) {
  std::vector<float> v(n);
  for (float& x : v) x = rng.uniform_f(lo, hi);
  return v;
}

// Dense with ReLU, Sigmoid, Tanh and LeakyReLU between the affine layers.
Network mlp_chain(Rng& rng) {
  Network net;
  net.emplace<Dense>(5, 9);
  net.emplace<ReLU>(Shape{9});
  net.emplace<Dense>(9, 7);
  net.emplace<Sigmoid>(Shape{7});
  net.emplace<Dense>(7, 6);
  net.emplace<Tanh>(Shape{6});
  net.emplace<Dense>(6, 4);
  net.emplace<LeakyReLU>(Shape{4}, 0.1F);
  randomise(net, rng);
  return net;
}

// Normalization, a multi-channel stride-1 unpadded convolution, max
// pooling, Flatten and a Dense head.
Network conv_chain(Rng& rng) {
  Network net;
  const Shape in{2, 9, 8};
  const std::size_t size = shape_numel(in);
  net.emplace<Normalization>(in, random_stats(size, rng, -0.5F, 0.5F),
                             random_stats(size, rng, 0.5F, 2.0F));
  Conv2D::Config c1{2, 9, 8, 3};  // 3x3, stride 1, padding 0
  auto& conv = net.emplace<Conv2D>(c1);
  net.emplace<ReLU>(conv.output_shape());
  auto& pool = net.emplace<MaxPool2D>(
      Pooling::Config{3, conv.out_height(), conv.out_width(), 2, 2});
  net.emplace<Flatten>(pool.output_shape());
  net.emplace<Dense>(shape_numel(pool.output_shape()), 5);
  net.emplace<Tanh>(Shape{5});
  randomise(net, rng);
  return net;
}

// Strided padded convolution with a non-square kernel, overlapping average
// and max pooling, and a padded convolution whose border windows see only
// padding.
Network strided_chain(Rng& rng) {
  Network net;
  Conv2D::Config c1{3, 8, 7, 4};
  c1.kernel_h = 3;
  c1.kernel_w = 2;
  c1.stride = 2;
  c1.padding = 1;
  auto& conv1 = net.emplace<Conv2D>(c1);
  net.emplace<LeakyReLU>(conv1.output_shape(), 0.05F);
  auto& avg = net.emplace<AvgPool2D>(
      Pooling::Config{4, conv1.out_height(), conv1.out_width(), 2, 1});
  Conv2D::Config c2{4, avg.output_shape()[1], avg.output_shape()[2], 2};
  c2.kernel_h = 1;
  c2.kernel_w = 1;
  c2.padding = 1;
  auto& conv2 = net.emplace<Conv2D>(c2);
  net.emplace<Sigmoid>(conv2.output_shape());
  auto& pool = net.emplace<MaxPool2D>(
      Pooling::Config{2, conv2.out_height(), conv2.out_width(), 3, 1});
  net.emplace<Flatten>(pool.output_shape());
  net.emplace<Dense>(shape_numel(pool.output_shape()), 3);
  randomise(net, rng);
  return net;
}

// 256 inputs; every fourth is quantised to multiples of 1/4 so max-pool
// windows tie and activations see exact (and signed) zeros.
std::vector<Tensor> kernel_inputs(const Network& net, Rng& rng) {
  std::vector<Tensor> inputs;
  for (int i = 0; i < 256; ++i) {
    Tensor x = Tensor::random_uniform(net.input_shape(), rng);
    if (i % 4 == 0) {
      for (std::size_t j = 0; j < x.numel(); ++j) {
        x[j] = std::round(x[j] * 4.0F) / 4.0F;
      }
    }
    inputs.push_back(std::move(x));
  }
  return inputs;
}

// forward_batch(k, ·) must equal n one-column forward_to(k, ·) calls bit
// for bit, for every prefix k of every chain and across the batch tile
// and block boundaries. The hash pins those activations to the ones the
// per-sample layer code produced before the batched kernels existed.
TEST(ForwardBatch, BitIdenticalToOneColumnPassesOnEveryChain) {
  Rng rng(2024);
  std::vector<Network> chains;
  chains.push_back(mlp_chain(rng));
  chains.push_back(conv_chain(rng));
  chains.push_back(strided_chain(rng));
  chains.push_back(make_small_convnet(12, 12, 4, 16, 3, rng));
  randomise(chains.back(), rng);
  std::uint64_t hash = 1469598103934665603ULL;  // FNV-1a
  for (std::size_t c = 0; c < chains.size(); ++c) {
    const Network& net = chains[c];
    const std::vector<Tensor> inputs = kernel_inputs(net, rng);
    for (std::size_t k = 0; k <= net.num_layers(); ++k) {
      const std::size_t dim =
          k == 0 ? shape_numel(net.input_shape()) : net.layer(k).output_size();
      for (const std::size_t n : {0UL, 1UL, 3UL, 7UL, 15UL, 16UL, 17UL, 33UL,
                                  100UL, 256UL}) {
        const FeatureBatch batch =
            net.forward_batch(k, std::span(inputs.data(), n));
        ASSERT_EQ(batch.dimension(), n == 0 && k == 0 ? 0 : dim);
        ASSERT_EQ(batch.size(), n);
        for (std::size_t i = 0; i < n; ++i) {
          const Tensor expected = net.forward_to(k, inputs[i]);
          const std::vector<float> got = batch.sample(i);
          ASSERT_EQ(got.size(), expected.numel());
          EXPECT_EQ(std::memcmp(got.data(), expected.data(),
                                got.size() * sizeof(float)),
                    0)
              << "chain " << c << " k=" << k << " n=" << n << " i=" << i;
        }
        for (const float v : batch.storage()) {
          std::uint32_t bits = 0;
          std::memcpy(&bits, &v, sizeof(bits));
          for (int b = 0; b < 4; ++b) {
            hash ^= (bits >> (8 * b)) & 0xFFU;
            hash *= 1099511628211ULL;
          }
        }
      }
    }
  }
  EXPECT_EQ(hash, 12851505403922816139ULL);
}

}  // namespace
}  // namespace ranm
