// Kernel checks that must hold at every dispatch level (util/isa.hpp):
// the forward-pass and training goldens, and the vectorized box backend
// against the reference backend on layer chains. Their own test files run
// them at the CPU's level; simd_test runs them at every level the CPU
// supports.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "absint/bound_backend.hpp"
#include "eval/experiment.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/flatten.hpp"
#include "nn/init.hpp"
#include "nn/network.hpp"
#include "nn/normalization.hpp"
#include "nn/pooling.hpp"
#include "one_box.hpp"
#include "util/rng.hpp"
#include "util/tile.hpp"

namespace ranm {

// ---- Forward pass ------------------------------------------------------

// Every parameter and normalisation statistic random (biases included), so
// each kernel's bias and rounding path is exercised.
inline void randomise(Network& net, Rng& rng) {
  for (Tensor* p : net.parameters()) {
    for (std::size_t i = 0; i < p->numel(); ++i) {
      (*p)[i] = rng.uniform_f(-0.6F, 0.6F);
    }
  }
}

inline std::vector<float> random_stats(std::size_t n, Rng& rng, float lo,
                                       float hi) {
  std::vector<float> v(n);
  for (float& x : v) x = rng.uniform_f(lo, hi);
  return v;
}

// Dense with ReLU, Sigmoid, Tanh and LeakyReLU between the affine layers.
inline Network mlp_chain(Rng& rng) {
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
inline Network conv_chain(Rng& rng) {
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
inline Network strided_chain(Rng& rng) {
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
inline std::vector<Tensor> kernel_inputs(const Network& net, Rng& rng) {
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
inline void check_forward_batch_golden() {
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

// Layer 1 of `net` over n neuron-major samples in one forward_batch call
// (no blocking, so n reaches past Network's 32-sample block) must equal,
// column by column and bit for bit, the one-column pass forward_to(1, ·).
inline void expect_columns_match_one_column_passes(const Network& net,
                                                   std::size_t n, Rng& rng) {
  const Layer& layer = net.layer(1);
  const std::size_t in_dim = layer.input_size();
  const std::size_t out_dim = layer.output_size();
  std::vector<Tensor> inputs;
  std::vector<float> in(in_dim * n), out(out_dim * n);
  for (std::size_t i = 0; i < n; ++i) {
    Tensor x = Tensor::random_uniform(net.input_shape(), rng);
    if (i % 4 == 0) {  // max-pool windows tie, activations hit zero
      for (std::size_t j = 0; j < in_dim; ++j) {
        x[j] = std::round(x[j] * 4.0F) / 4.0F;
      }
    }
    for (std::size_t j = 0; j < in_dim; ++j) in[j * n + i] = x[j];
    inputs.push_back(std::move(x));
  }
  layer.forward_batch(in.data(), out.data(), n);
  std::vector<float> column(out_dim);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < out_dim; ++j) column[j] = out[j * n + i];
    const Tensor expected = net.forward_to(1, inputs[i]);
    ASSERT_EQ(expected.numel(), out_dim);
    EXPECT_EQ(std::memcmp(column.data(), expected.data(),
                          out_dim * sizeof(float)),
              0)
        << layer.name() << " n=" << n << " i=" << i;
  }
}

// Every tiled forward kernel at the edges of its tile shape (util/tile.hpp):
// widths (Dense outputs, Conv2D output channels, pooling channels) of
// 1, U - 1, U, U + 1 and 2U + 1, at batch sizes on either side of one and
// two sample tiles, 33 and 257, so that every leftover neuron and sample
// tile runs.
inline void check_forward_tile_edges() {
  const auto edges = [](std::initializer_list<std::size_t> sizes) {
    std::vector<std::size_t> v;
    for (const std::size_t s : sizes) {
      if (s != 0 && std::find(v.begin(), v.end(), s) == v.end()) {
        v.push_back(s);
      }
    }
    return v;
  };
  const auto widths = [&](TileShape t) {
    const std::size_t u = t.neurons;
    return edges({1, u - 1, u, u + 1, 2 * u + 1});
  };
  const auto batches = [&](TileShape t) {
    const std::size_t s = t.samples;
    return edges({1, s - 1, s, s + 1, 2 * s - 1, 2 * s + 1, 33, 257});
  };
  const auto check = [&](Network& net, TileShape t, Rng& rng) {
    randomise(net, rng);
    for (const std::size_t n : batches(t)) {
      expect_columns_match_one_column_passes(net, n, rng);
    }
  };
  Rng rng(20);
  for (const std::size_t w : widths(kDenseTile)) {
    Network net;
    net.emplace<Dense>(7, w);
    check(net, kDenseTile, rng);
  }
  for (const std::size_t w : widths(kConvTile)) {
    Network net;
    net.emplace<Conv2D>(Conv2D::Config{2, 5, 4, w, 3, 3, 1, 1});
    check(net, kConvTile, rng);
  }
  for (const std::size_t w : widths(kMaxPoolTile)) {
    Network net;
    net.emplace<MaxPool2D>(Pooling::Config{w, 5, 4, 2, 2});
    check(net, kMaxPoolTile, rng);
  }
  for (const std::size_t w : widths(kAvgPoolTile)) {
    Network net;
    net.emplace<AvgPool2D>(Pooling::Config{w, 5, 4, 2, 1});
    check(net, kAvgPoolTile, rng);
  }
}

// ---- Training ----------------------------------------------------------

// FNV-1a over the raw bytes of every trainable parameter.
inline std::uint64_t weight_hash(Network& net) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const Tensor* p : net.parameters()) {
    for (std::size_t i = 0; i < p->numel(); ++i) {
      std::uint32_t bits = 0;
      std::memcpy(&bits, p->data() + i, sizeof(bits));
      for (int b = 0; b < 4; ++b) {
        h ^= (bits >> (8 * b)) & 0xFFU;
        h *= 1099511628211ULL;
      }
    }
  }
  return h;
}

// Golden: one epoch of the lab convnet (conv, LeakyReLU, max-pool, dense)
// must reproduce these exact weights. fp_rate and detection_rate of every
// experiment depend on the trained weights, so any change to the forward
// or backward arithmetic (accumulation order, max-pool tie-breaking) shows
// up here first.
inline void check_lab_convnet_training_golden() {
  LabConfig cfg;
  cfg.train_samples = 120;
  cfg.test_samples = 1;
  cfg.ood_samples = 1;
  cfg.epochs = 1;
  cfg.conv_channels = 4;
  cfg.hidden = 16;
  cfg.track.height = 16;
  cfg.track.width = 16;
  cfg.seed = 5;
  LabSetup setup = make_lab_setup(cfg);
  EXPECT_EQ(weight_hash(setup.net), 18152838330587704031ULL);
}

// ---- Box bounds: vectorized against reference --------------------------

inline FeatureBatch random_centers(std::size_t dim, std::size_t n, Rng& rng,
                                   float lo = -2.0F, float hi = 2.0F) {
  FeatureBatch batch(dim, n);
  for (std::size_t j = 0; j < dim; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      batch.at(j, i) = rng.uniform_f(lo, hi);
    }
  }
  return batch;
}

/// Mixed conv chain: Normalization -> Conv2D(padded) -> LeakyReLU ->
/// MaxPool -> Flatten -> Dense -> Sigmoid.
inline Network make_conv_chain(Rng& rng) {
  const Shape img{2, 9, 9};
  std::vector<float> mean(shape_numel(img)), inv_std(shape_numel(img));
  for (std::size_t i = 0; i < mean.size(); ++i) {
    mean[i] = rng.uniform_f(-0.5F, 0.5F);
    inv_std[i] = rng.uniform_f(0.5F, 2.0F);
  }
  Network net;
  net.emplace<Normalization>(img, std::move(mean), std::move(inv_std));
  net.emplace<Conv2D>(Conv2D::Config{2, 9, 9, 4, 3, 3, 1, 1});
  net.emplace<LeakyReLU>(Shape{4, 9, 9}, 0.05F);
  net.emplace<MaxPool2D>(Pooling::Config{4, 9, 9, 3, 2});
  net.emplace<Flatten>(Shape{4, 4, 4});
  net.emplace<Dense>(64, 10);
  net.emplace<Sigmoid>(Shape{10});
  net.init_params(rng);
  return net;
}

/// Strided conv + ReLU + AvgPool + Flatten + Dense + Tanh.
inline Network make_avgpool_chain(Rng& rng) {
  Network net;
  net.emplace<Conv2D>(Conv2D::Config{1, 8, 8, 3, 3, 3, 2, 0});
  net.emplace<ReLU>(Shape{3, 3, 3});
  net.emplace<AvgPool2D>(Pooling::Config{3, 3, 3, 2, 1});
  net.emplace<Flatten>(Shape{3, 2, 2});
  net.emplace<Dense>(12, 5);
  net.emplace<Tanh>(Shape{5});
  net.init_params(rng);
  return net;
}

/// Tile edges: a strided, padded conv whose 7 output channels and Dense
/// layers whose 10 and 2 rows are not multiples of the 3-neuron tile, with
/// a zero-slope LeakyReLU and an AvgPool in between.
inline Network make_tile_edge_chain(Rng& rng) {
  Network net;
  net.emplace<Conv2D>(Conv2D::Config{2, 9, 9, 7, 3, 3, 2, 1});
  net.emplace<LeakyReLU>(Shape{7, 5, 5}, 0.0F);
  net.emplace<AvgPool2D>(Pooling::Config{7, 5, 5, 2, 1});
  net.emplace<Flatten>(Shape{7, 4, 4});
  net.emplace<Dense>(112, 10);
  net.emplace<ReLU>(Shape{10});
  net.emplace<Dense>(10, 2);
  net.init_params(rng);
  return net;
}

/// Per-element contract: vectorized bounds contain the reference bounds.
inline void expect_outward_only(const BoxBatch& ref, const BoxBatch& vec) {
  ASSERT_EQ(ref.dimension(), vec.dimension());
  ASSERT_EQ(ref.size(), vec.size());
  for (std::size_t j = 0; j < ref.dimension(); ++j) {
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_LE(vec.lo(j, i), ref.lo(j, i))
          << "lower bound tightened inward at neuron " << j << ", sample "
          << i;
      EXPECT_GE(vec.hi(j, i), ref.hi(j, i))
          << "upper bound tightened inward at neuron " << j << ", sample "
          << i;
      EXPECT_LE(vec.lo(j, i), vec.hi(j, i)) << "inverted bound";
    }
  }
}

/// Bit-for-bit agreement of the two backends.
inline void expect_bit_identical(const BoxBatch& ref, const BoxBatch& vec) {
  ASSERT_EQ(ref.dimension(), vec.dimension());
  ASSERT_EQ(ref.size(), vec.size());
  for (std::size_t j = 0; j < ref.dimension(); ++j) {
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(vec.lo(j, i), ref.lo(j, i))
          << "backends disagree at neuron " << j << ", sample " << i;
      EXPECT_EQ(vec.hi(j, i), ref.hi(j, i))
          << "backends disagree at neuron " << j << ", sample " << i;
    }
  }
}

inline void run_differential(Network& net, std::size_t in_dim, Rng& rng) {
  const ReferenceBoundBackend reference;
  const VectorizedBoundBackend vectorized;
  const std::size_t k = net.num_layers();
  // Batch sizes around every boundary: empty, single sample, odd sizes
  // that are not a multiple of any SIMD lane width, either side of the
  // 16-sample affine tile, and either side of one, two and eight 32-sample
  // blocks.
  const std::size_t batch_sizes[] = {0,  1,  3,  7,  15, 16, 17,
                                     31, 32, 33, 64, 65, 257};
  const float deltas[] = {0.0F, 0.02F, 0.4F};
  for (const std::size_t n : batch_sizes) {
    for (const float delta : deltas) {
      const BoxBatch in =
          BoxBatch::linf_ball(random_centers(in_dim, n, rng), delta);
      const BoxBatch ref = net.propagate_box_batch(1, k, in, reference);
      const BoxBatch vec = net.propagate_box_batch(1, k, in, vectorized);
      expect_outward_only(ref, vec);
      expect_bit_identical(ref, vec);
    }
  }
}

inline void check_random_mlp_chains() {
  for (int seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    // Random widths, including width-1 bottlenecks.
    std::vector<std::size_t> dims{1 + std::size_t(rng.uniform_f(0, 11))};
    const int depth = 2 + int(rng.uniform_f(0, 3));
    for (int d = 0; d < depth; ++d) {
      dims.push_back(1 + std::size_t(rng.uniform_f(0, 14)));
    }
    Network net = make_mlp(dims, rng);
    run_differential(net, dims.front(), rng);
  }
}

inline void check_conv_norm_pool_chain() {
  Rng rng(99);
  Network net = make_conv_chain(rng);
  run_differential(net, 2 * 9 * 9, rng);
}

inline void check_strided_conv_avg_pool_chain() {
  Rng rng(123);
  Network net = make_avgpool_chain(rng);
  run_differential(net, 8 * 8, rng);
}

inline void check_seed_convnet() {
  Rng rng(7);
  Network net = make_small_convnet(8, 8, 3, 16, 4, rng);
  run_differential(net, 8 * 8, rng);
}

inline void check_tile_edge_chain() {
  Rng rng(31);
  Network net = make_tile_edge_chain(rng);
  run_differential(net, 2 * 9 * 9, rng);
}

inline void check_columns_do_not_depend_on_the_batch() {
  // Column i of a 257-sample propagation (eight full blocks and a
  // one-sample block; full and leftover tiles) is bit for bit the
  // one-sample propagation of column i.
  const VectorizedBoundBackend vectorized;
  Rng rng(32);
  Network net = make_tile_edge_chain(rng);
  const BoxBatch in =
      BoxBatch::linf_ball(random_centers(2 * 9 * 9, 257, rng), 0.05F);
  const BoxBatch all = net.propagate_box_batch(1, net.num_layers(), in,
                                               vectorized);
  for (std::size_t i = 0; i < in.size(); ++i) {
    const IntervalVector one =
        propagate_one(net, 1, net.num_layers(), in.box(i), vectorized);
    for (std::size_t j = 0; j < one.size(); ++j) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(all.lo(j, i)),
                std::bit_cast<std::uint32_t>(one[j].lo))
          << "neuron " << j << ", sample " << i;
      ASSERT_EQ(std::bit_cast<std::uint32_t>(all.hi(j, i)),
                std::bit_cast<std::uint32_t>(one[j].hi))
          << "neuron " << j << ", sample " << i;
    }
  }
}

inline void check_sub_range_propagation() {
  // Propagating a slice l..k (not starting at layer 1) hits the same
  // kernels with an intermediate-layer input distribution.
  const ReferenceBoundBackend reference;
  const VectorizedBoundBackend vectorized;
  Rng rng(11);
  Network net = make_mlp({6, 12, 9, 5}, rng);
  const std::size_t mid_dim = net.layer(2).output_size();
  const BoxBatch in =
      BoxBatch::linf_ball(random_centers(mid_dim, 13, rng), 0.1F);
  const BoxBatch ref =
      net.propagate_box_batch(3, net.num_layers(), in, reference);
  const BoxBatch vec =
      net.propagate_box_batch(3, net.num_layers(), in, vectorized);
  expect_outward_only(ref, vec);
  expect_bit_identical(ref, vec);
}

}  // namespace ranm
