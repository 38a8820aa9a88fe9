// Kernel checks that must hold at every dispatch level (util/isa.hpp):
// the forward-pass and training goldens, the zonotope transfers that run
// the affine layers' kernels, and the vectorized box backend against the
// reference backend on layer chains. Their own test files run
// them at the CPU's level; simd_test runs them at every level the CPU
// supports.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "absint/bound_backend.hpp"
#include "eval/experiment.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/flatten.hpp"
#include "nn/init.hpp"
#include "nn/loss.hpp"
#include "nn/network.hpp"
#include "nn/normalization.hpp"
#include "nn/optimizer.hpp"
#include "nn/pooling.hpp"
#include "nn/trainer.hpp"
#include "one_box.hpp"
#include "util/isa.hpp"
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

// ---- Fused steps ---------------------------------------------------------

/// A neuron-major batch of n samples of dim values in [-1, 1]. Samples
/// i % 4 == 0 are scaled by 1e-30 and samples i % 4 == 1 quantised to
/// quarters (exact zeros among them), so that an affine layer whose
/// weights are scaled by 1e-20 sums to signed zeros on them.
inline FeatureBatch zero_prone_batch(std::size_t dim, std::size_t n,
                                     Rng& rng) {
  FeatureBatch batch(dim, n);
  for (std::size_t j = 0; j < dim; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      float v = rng.uniform_f(-1.0F, 1.0F);
      if (i % 4 == 0) v *= 1e-30F;
      if (i % 4 == 1) v = std::round(v * 4.0F) / 4.0F;
      batch.at(j, i) = v;
    }
  }
  return batch;
}

/// Scales the weights of every third output neuron (Dense row, Conv2D
/// output channel) by 1e-20 and gives it a -0 bias: its Σ w·x rounds to
/// a signed zero on zero_prone_batch's tiny samples, and -0 + -0 keeps
/// the sign, so the activation sees both +0 and -0.
inline void make_zero_prone(Tensor& weights, Tensor& bias) {
  const std::size_t outputs = bias.numel();
  const std::size_t fan_in = weights.numel() / outputs;
  for (std::size_t o = 0; o < outputs; o += 3) {
    for (std::size_t t = 0; t < fan_in; ++t) weights[o * fan_in + t] *= 1e-20F;
    bias[o] = -0.0F;
  }
}

inline void expect_same_bytes(std::span<const float> got,
                              std::span<const float> want,
                              const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  if (got.empty()) return;  // memcmp must not see an empty vector's null
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
            0)
      << what;
}

/// Layer 1 of `net` (Conv2D or Dense) fused with layer 2 (ReLU or
/// LeakyReLU) over n samples in one kernel call, concrete and box on both
/// backends, against the two-layer chain byte for byte.
inline void expect_fused_step_matches_chain(const Network& net,
                                            std::size_t n, Rng& rng) {
  const Network::Step step = net.step(1, 2);
  ASSERT_EQ(step.last, 2U) << "layers 1 and 2 must form one step";
  const auto& affine = dynamic_cast<const AffineLayer&>(net.layer(1));
  const Layer& act = net.layer(2);
  const std::string what = affine.name() + " + " + act.name() +
                           " n=" + std::to_string(n);
  const FeatureBatch in = zero_prone_batch(affine.input_size(), n, rng);
  const std::size_t out_dim = affine.output_size();
  std::vector<float> fused(out_dim * n), mid(out_dim * n),
      chain(out_dim * n);
  net.forward_step(step, in.storage().data(), fused.data(), n);
  affine.forward_batch(in.storage().data(), mid.data(), n);
  act.forward_batch(mid.data(), chain.data(), n);
  expect_same_bytes(fused, chain, "forward " + what);

  const Epilogue ep = dynamic_cast<const ReLU*>(&act) != nullptr
                          ? ReLU::epilogue()
                          : dynamic_cast<const LeakyReLU&>(act).epilogue();
  const ReferenceBoundBackend reference;
  const VectorizedBoundBackend vectorized;
  for (const float delta : {0.0F, 0.05F}) {
    const BoxBatch ball = BoxBatch::linf_ball(in, delta);
    for (const BoundBackend* backend :
         {static_cast<const BoundBackend*>(&reference),
          static_cast<const BoundBackend*>(&vectorized)}) {
      const std::string box_what = std::string(backend->name()) +
                                   " box delta=" + std::to_string(delta) +
                                   " " + what;
      // The whole batch in one fused kernel call, and through the
      // network's blocked pass.
      BoxBatch fused_box, mid_box, chain_box;
      affine.propagate_fused(*backend, ball, fused_box, ep);
      affine.propagate_batch(*backend, ball, mid_box);
      act.propagate_batch(*backend, mid_box, chain_box);
      expect_same_bytes(fused_box.lower().storage(),
                        chain_box.lower().storage(), "lo " + box_what);
      expect_same_bytes(fused_box.upper().storage(),
                        chain_box.upper().storage(), "hi " + box_what);
      const BoxBatch passed = net.propagate_box_batch(1, 2, ball, *backend);
      expect_same_bytes(passed.lower().storage(),
                        chain_box.lower().storage(), "pass lo " + box_what);
      expect_same_bytes(passed.upper().storage(),
                        chain_box.upper().storage(), "pass hi " + box_what);
    }
  }
}

// Every fused step at the edges of its kernels' tile shapes: Conv2D and
// Dense, each followed by ReLU, LeakyReLU(0.01) and LeakyReLU(0), at the
// widths and batch sizes check_forward_tile_edges uses for the forward
// tile, and those of the box tile, with inputs that drive the affine
// outputs to +0 and -0 (where ReLU and LeakyReLU(0) differ).
inline void check_fused_tile_edges() {
  const auto edges = [](TileShape t) {
    const std::size_t u = t.neurons;
    const std::size_t s = t.samples;
    std::vector<std::size_t> widths, batches;
    for (const std::size_t w : {1UL, u - 1, u, u + 1, 2 * u + 1}) {
      if (w != 0) widths.push_back(w);
    }
    for (const std::size_t b :
         {1UL, s - 1, s, s + 1, 2 * s - 1, 2 * s + 1, 33UL, 257UL}) {
      if (b != 0) batches.push_back(b);
    }
    return std::pair{widths, batches};
  };
  const auto both = [&](TileShape forward) {
    auto [widths, batches] = edges(forward);
    auto [box_widths, box_batches] = edges(kBoxAffineTile);
    widths.insert(widths.end(), box_widths.begin(), box_widths.end());
    batches.insert(batches.end(), box_batches.begin(), box_batches.end());
    for (auto* v : {&widths, &batches}) {
      std::sort(v->begin(), v->end());
      v->erase(std::unique(v->begin(), v->end()), v->end());
    }
    return std::pair{widths, batches};
  };
  const auto add_activation = [](Network& net, int which) {
    const Shape shape = net.output_shape();
    if (which == 0) {
      net.emplace<ReLU>(shape);
    } else {
      net.emplace<LeakyReLU>(shape, which == 1 ? 0.01F : 0.0F);
    }
  };
  Rng rng(21);
  const auto [dense_widths, dense_batches] = both(kDenseTile);
  for (const std::size_t w : dense_widths) {
    for (int which = 0; which < 3; ++which) {
      Network net;
      auto& dense = net.emplace<Dense>(7, w);
      add_activation(net, which);
      randomise(net, rng);
      make_zero_prone(dense.weights(), dense.bias());
      for (const std::size_t n : dense_batches) {
        expect_fused_step_matches_chain(net, n, rng);
      }
    }
  }
  const auto [conv_widths, conv_batches] = both(kConvTile);
  for (const std::size_t w : conv_widths) {
    for (int which = 0; which < 3; ++which) {
      Network net;
      auto& conv = net.emplace<Conv2D>(Conv2D::Config{2, 5, 4, w, 3, 3, 1, 1});
      add_activation(net, which);
      randomise(net, rng);
      make_zero_prone(conv.weights(), conv.bias());
      for (const std::size_t n : conv_batches) {
        expect_fused_step_matches_chain(net, n, rng);
      }
    }
  }
}

// ---- One-sample tiles ----------------------------------------------------

/// The first step of `net` (its whole net: one layer, or an affine layer
/// and its activation) at batch 1 on each of 33 zero-prone samples,
/// against the sample's column of a 32-sample call (full tiles only) and,
/// for the last, of a 33-sample call (its leftover column), byte for byte.
inline void expect_one_sample_matches_columns(const Network& net,
                                              const std::string& what,
                                              Rng& rng) {
  const Network::Step step = net.step(1, net.num_layers());
  ASSERT_EQ(step.last, net.num_layers()) << what;
  const std::size_t in_dim = net.layer(1).input_size();
  const std::size_t out_dim = net.layer(step.last).output_size();
  const FeatureBatch in33 = zero_prone_batch(in_dim, 33, rng);
  FeatureBatch in32(in_dim, 32);
  for (std::size_t j = 0; j < in_dim; ++j) {
    for (std::size_t i = 0; i < 32; ++i) in32.at(j, i) = in33.at(j, i);
  }
  std::vector<float> out32(out_dim * 32), out33(out_dim * 33), one(out_dim),
      column(out_dim);
  net.forward_step(step, in32.storage().data(), out32.data(), 32);
  net.forward_step(step, in33.storage().data(), out33.data(), 33);
  for (std::size_t i = 0; i < 33; ++i) {
    const std::vector<float> x = in33.sample(i);
    net.forward_step(step, x.data(), one.data(), 1);
    const bool leftover = i == 32;
    const std::size_t n = leftover ? 33 : 32;
    const float* out = leftover ? out33.data() : out32.data();
    for (std::size_t j = 0; j < out_dim; ++j) column[j] = out[j * n + i];
    expect_same_bytes(one, column,
                      what + (leftover ? " leftover column of 33" : " i=") +
                          (leftover ? "" : std::to_string(i)));
    if (::testing::Test::HasFailure()) return;
  }
}

// The batch-1 tiles of Conv2D and MaxPool2D, which run across one
// sample's outputs (util/tile.hpp): output widths 1-17, on either side of
// 2, 4 and 8 doubles and of the 16-position row tile, so every full,
// halved and overlapping tile and every peeled border position runs.
// Conv2D at padding 0, 1 and 2, stride 1 and 2, 1 and 3 input channels,
// with no activation, ReLU and LeakyReLU fused, on zero-prone weights;
// MaxPool2D at stride 2 (window 2) and stride 1 (window 3).
inline void check_one_sample_tiles() {
  Rng rng(25);
  for (std::size_t ow = 1; ow <= 17; ++ow) {
    for (const std::size_t in_channels : {1UL, 3UL}) {
      for (const std::size_t padding : {0UL, 1UL, 2UL}) {
        for (const std::size_t stride : {1UL, 2UL}) {
          // A window wide enough that every output sees an input.
          const std::size_t kernel_w =
              std::max<std::size_t>(3, 2 * padding + 1);
          Conv2D::Config cfg{in_channels,
                             4,
                             (ow - 1) * stride + kernel_w - 2 * padding,
                             7,
                             3,
                             kernel_w,
                             stride,
                             padding};
          for (int which = 0; which < 3; ++which) {
            Network net;
            auto& conv = net.emplace<Conv2D>(cfg);
            if (which == 1) net.emplace<ReLU>(conv.output_shape());
            if (which == 2) net.emplace<LeakyReLU>(conv.output_shape(), 0.01F);
            ASSERT_EQ(conv.out_width(), ow);
            randomise(net, rng);
            make_zero_prone(conv.weights(), conv.bias());
            expect_one_sample_matches_columns(
                net, conv.name() + " activation " + std::to_string(which),
                rng);
            if (::testing::Test::HasFailure()) return;
          }
        }
      }
    }
    for (const std::size_t stride : {2UL, 1UL}) {
      const std::size_t window = stride == 2 ? 2 : 3;
      Network net;
      auto& pool = net.emplace<MaxPool2D>(
          Pooling::Config{3, 5, (ow - 1) * stride + window, window, stride});
      ASSERT_EQ(pool.output_shape()[2], ow);
      expect_one_sample_matches_columns(
          net, pool.name() + " width " + std::to_string(ow), rng);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

// ---- Zonotopes -----------------------------------------------------------

/// The Δ-ball around c over ng of its coordinates, spread evenly across
/// it, the others fixed: one generator per perturbed coordinate, so the
/// affine layers of a chain see exactly ng generators (even at Δ = 0).
/// Fills `lo` and `hi` with the floats nearest c ± Δ inside the real ball
/// (c itself on the fixed coordinates).
inline Zonotope partial_ball(const std::vector<float>& c, std::size_t ng,
                             float delta, std::vector<float>& lo,
                             std::vector<float>& hi) {
  const std::size_t d = c.size();
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> gens(d * ng, 0.0F);
  lo = c;
  hi = c;
  for (std::size_t i = 0; i < ng; ++i) {
    const std::size_t j = i * d / ng;
    gens[j * ng + i] = delta;
    lo[j] = c[j] - delta;
    hi[j] = c[j] + delta;
    if (double(lo[j]) < double(c[j]) - delta) {
      lo[j] = std::nextafter(lo[j], inf);
    }
    if (double(hi[j]) > double(c[j]) + delta) {
      hi[j] = std::nextafter(hi[j], -inf);
    }
  }
  return Zonotope(c, std::move(gens));
}

/// Layer by layer, each layer's concretised zonotope must hold the
/// layer-by-layer float forward pass of every point. When `degenerate`
/// (Δ = 0: the points are all the centre), it must also be no wider than
/// rounding radii make it, 2^-12·(1 + |y|) against at most 7.6e-6·(1 +
/// |y|) seen: generators that picked up mass they should not have would
/// widen it and still hold the points. Returns the boxes' bounds, every
/// layer's in turn.
inline std::vector<float> expect_zonotope_holds_points(
    const Network& net, Zonotope z, const std::vector<Tensor>& points,
    const std::string& what, bool degenerate = false) {
  std::vector<Tensor> ys = points;
  std::vector<float> bounds;
  for (std::size_t k = 1; k <= net.num_layers(); ++k) {
    z = net.layer(k).propagate(z);
    const IntervalVector box = z.to_box();
    for (std::size_t j = 0; j < box.size(); ++j) {
      bounds.push_back(box[j].lo);
      bounds.push_back(box[j].hi);
    }
    for (std::size_t p = 0; p < ys.size(); ++p) {
      ys[p] = net.layer(k).forward(ys[p]);
      for (std::size_t j = 0; j < box.size(); ++j) {
        const bool tight =
            !degenerate || double(box[j].hi) - box[j].lo <=
                               0x1p-12 * (1.0 + std::fabs(ys[p][j]));
        if (tight && ys[p][j] >= box[j].lo && ys[p][j] <= box[j].hi) continue;
        ADD_FAILURE() << what << ", layer " << k << " (" << net.layer(k).name()
                      << "), point " << p << ", neuron " << j << ": "
                      << ys[p][j] << (tight ? " outside [" : ", box too wide [")
                      << box[j].lo << ", " << box[j].hi << "]";
        return bounds;
      }
    }
  }
  return bounds;
}

// The zonotope transfers of Conv2D, AvgPool2D and Dense run those layers'
// own forward kernels on a zonotope's generators as a batch and their box
// kernels on its radii. A chain of Conv2D (stride 2, padding 1), AvgPool2D
// (window 3, so its float scale is not 1/9 exactly) and Dense, with no
// activation between them, then LeakyReLU, Dense and ReLU, at 1, 2, 7 and
// 33 generators: the one-sample tiles, an odd last column, the pair tiles
// and the full tiles all run. At Δ = 0 and Δ > 0 every layer's box must
// hold the float forward pass at the ball's vertices (all of them up to 7
// generators, 64 random ones at 33) and at random points inside, at Δ = 0
// be no wider than its rounding radii, and be the baseline level's box
// bit for bit.
inline void check_zonotope_chains() {
  Rng rng(26);
  Network net;
  auto& conv = net.emplace<Conv2D>(Conv2D::Config{2, 7, 8, 5, 3, 3, 2, 1});
  auto& avg = net.emplace<AvgPool2D>(
      Pooling::Config{5, conv.out_height(), conv.out_width(), 3, 1});
  net.emplace<Flatten>(avg.output_shape());
  net.emplace<Dense>(avg.output_size(), 9);
  net.emplace<LeakyReLU>(Shape{9}, 0.1F);
  net.emplace<Dense>(9, 4);
  net.emplace<ReLU>(Shape{4});
  randomise(net, rng);
  const std::size_t d = net.layer(1).input_size();
  std::vector<Zonotope> balls;
  std::vector<float> here;
  for (const std::size_t ng : {1UL, 2UL, 7UL, 33UL}) {
    for (const float delta : {0.0F, 0.01F, 0.3F}) {
      std::vector<float> c(d), lo, hi;
      for (float& v : c) v = rng.uniform_f(-1.0F, 1.0F);
      balls.push_back(partial_ball(c, ng, delta, lo, hi));
      std::vector<Tensor> points;
      const std::size_t vertices = ng <= 7 ? std::size_t{1} << ng : 64;
      for (std::size_t v = 0; v < vertices + 16; ++v) {
        Tensor x(net.layer(1).input_shape());
        std::copy(c.begin(), c.end(), x.data());
        for (std::size_t i = 0; i < ng; ++i) {
          const std::size_t j = i * d / ng;
          if (v < vertices) {
            // Vertex v: bit i of v (past 7 generators, a coin) picks
            // generator i's end.
            const bool up = ng <= 7 ? ((v >> i) & 1U) != 0
                                    : rng.uniform_f(0.0F, 1.0F) < 0.5F;
            x[j] = up ? hi[j] : lo[j];
          } else {
            x[j] = std::clamp(rng.uniform_f(lo[j], hi[j]), lo[j], hi[j]);
          }
        }
        points.push_back(std::move(x));
      }
      const std::vector<float> bounds = expect_zonotope_holds_points(
          net, balls.back(), points,
          std::to_string(ng) + " generators, Δ " + std::to_string(delta),
          delta == 0.0F);
      if (::testing::Test::HasFailure()) return;
      here.insert(here.end(), bounds.begin(), bounds.end());
    }
  }
  const ScopedKernelIsa baseline(Isa::kBaseline);
  std::vector<float> base;
  for (const Zonotope& ball : balls) {
    const std::vector<float> bounds =
        expect_zonotope_holds_points(net, ball, {}, "");
    base.insert(base.end(), bounds.begin(), bounds.end());
  }
  expect_same_bytes(here, base, "zonotope boxes against the baseline level");
}

// ---- Backward kernels ----------------------------------------------------

/// The parameter gradients of `layer`, concatenated.
inline std::vector<float> gradient_values(Layer& layer) {
  std::vector<float> out;
  for (const Tensor* g : layer.gradients()) {
    out.insert(out.end(), g->data(), g->data() + g->numel());
  }
  return out;
}

/// One layer's backward_batch over n samples in one call against n
/// one-sample calls in sample order, byte for byte: the parameter
/// gradients they accumulate and every input gradient. The output
/// gradients hold +0, -0 (every third and fifth element) and an all-zero
/// column (column 1), so the kernels' zero skips run; every fourth sample
/// is quantised to quarters, so max-pool windows tie and the activations
/// see exact zeros. A null grad_in must leave the parameter gradients the
/// same bytes.
inline void expect_backward_columns(Layer& layer, Rng& rng) {
  const std::size_t in = layer.input_size();
  const std::size_t out = layer.output_size();
  for (const std::size_t n : {1U, 3U, 16U, 17U}) {
    std::vector<float> x(in * n), y(out * n), g(out * n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < in; ++j) {
        const float v = rng.uniform_f(-1.0F, 1.0F);
        x[j * n + i] = i % 4 == 0 ? std::round(v * 4.0F) / 4.0F : v;
      }
      for (std::size_t j = 0; j < out; ++j) {
        const std::size_t e = j * n + i;
        g[e] = i == 1          ? (j % 2 == 0 ? 0.0F : -0.0F)
               : e % 3 == 0 ? 0.0F
               : e % 5 == 0 ? -0.0F
                            : rng.uniform_f(-1.0F, 1.0F);
      }
    }
    layer.forward_batch(x.data(), y.data(), n);
    const std::string what = layer.name() + " at n = " + std::to_string(n);

    for (Tensor* t : layer.gradients()) t->zero();
    std::vector<float> grad_in(in * n);
    layer.backward_batch(x.data(), y.data(), g.data(), grad_in.data(), n);
    const std::vector<float> batch = gradient_values(layer);

    for (Tensor* t : layer.gradients()) t->zero();
    std::vector<float> one_in(in * n), xs(in), ys(out), gs(out), gi(in);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < in; ++j) xs[j] = x[j * n + i];
      for (std::size_t j = 0; j < out; ++j) {
        ys[j] = y[j * n + i];
        gs[j] = g[j * n + i];
      }
      layer.backward_batch(xs.data(), ys.data(), gs.data(), gi.data(), 1);
      for (std::size_t j = 0; j < in; ++j) one_in[j * n + i] = gi[j];
    }
    expect_same_bytes(batch, gradient_values(layer),
                      what + ": parameter gradients");
    expect_same_bytes(grad_in, one_in, what + ": input gradients");

    for (Tensor* t : layer.gradients()) t->zero();
    layer.backward_batch(x.data(), y.data(), g.data(), nullptr, n);
    expect_same_bytes(batch, gradient_values(layer),
                      what + ": parameter gradients without grad_in");
  }
}

// Every layer kind's backward kernel at batch sizes 1, 3, 16 and 17:
// Dense inside one block of inputs and across blocks with a remainder;
// Conv2D padded like the lab convnet's (6 channels in 8 lanes), strided
// and unpadded over 2 channels, and with 9 output channels (two lane
// vectors) and a 5 × 5 kernel whose padding leaves windows of the border
// rows almost empty; MaxPool2D in tiles and overlapping; AvgPool2D; and
// Flatten, Normalization and the four activations.
inline void check_backward_columns() {
  Rng rng(37);
  std::vector<std::unique_ptr<Layer>> layers;
  layers.push_back(std::make_unique<Dense>(37, 5));
  layers.push_back(std::make_unique<Dense>(150, 9));
  const auto conv = [](std::size_t in_c, std::size_t side, std::size_t out_c,
                       std::size_t k, std::size_t stride, std::size_t pad) {
    Conv2D::Config cfg;
    cfg.in_channels = in_c;
    cfg.in_height = side;
    cfg.in_width = side + 1;
    cfg.out_channels = out_c;
    cfg.kernel_h = k;
    cfg.kernel_w = k;
    cfg.stride = stride;
    cfg.padding = pad;
    return std::make_unique<Conv2D>(cfg);
  };
  layers.push_back(conv(1, 8, 6, 3, 1, 1));
  layers.push_back(conv(2, 9, 3, 3, 2, 0));
  layers.push_back(conv(1, 6, 9, 5, 1, 3));
  const auto pool = [](std::size_t window, std::size_t stride) {
    Pooling::Config cfg;
    cfg.channels = 3;
    cfg.in_height = 6;
    cfg.in_width = 7;
    cfg.window = window;
    cfg.stride = stride;
    return cfg;
  };
  layers.push_back(std::make_unique<MaxPool2D>(pool(2, 2)));
  layers.push_back(std::make_unique<MaxPool2D>(pool(3, 1)));
  layers.push_back(std::make_unique<AvgPool2D>(pool(3, 2)));
  layers.push_back(std::make_unique<Flatten>(Shape{2, 3, 4}));
  layers.push_back(std::make_unique<Normalization>(
      Shape{2, 5}, random_stats(10, rng, -0.5F, 0.5F),
      random_stats(10, rng, 0.5F, 2.0F)));
  layers.push_back(std::make_unique<ReLU>(Shape{13}));
  layers.push_back(std::make_unique<LeakyReLU>(Shape{13}, 0.1F));
  layers.push_back(std::make_unique<Sigmoid>(Shape{13}));
  layers.push_back(std::make_unique<Tanh>(Shape{13}));
  for (auto& layer : layers) {
    for (Tensor* p : layer->parameters()) {
      for (std::size_t i = 0; i < p->numel(); ++i) {
        (*p)[i] = rng.uniform_f(-0.6F, 0.6F);
      }
    }
    expect_backward_columns(*layer, rng);
  }
}

// ---- Training ----------------------------------------------------------

// FNV-1a step over the raw bytes of one float.
inline std::uint64_t hash_float(std::uint64_t h, float v) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  for (int b = 0; b < 4; ++b) {
    h ^= (bits >> (8 * b)) & 0xFFU;
    h *= 1099511628211ULL;
  }
  return h;
}

// FNV-1a over the raw bytes of every trainable parameter.
inline std::uint64_t weight_hash(Network& net) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const Tensor* p : net.parameters()) {
    for (std::size_t i = 0; i < p->numel(); ++i) h = hash_float(h, (*p)[i]);
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

// Golden, recorded on the per-sample trainer the minibatch step replaced:
// the lab convnet at the shape perfbench trains (32×32, 6 channels,
// hidden 32), 2 epochs over 100 samples, so each epoch ends on a short
// minibatch of 4 and the next one starts from zeroed gradients. The hash
// covers every weight and the last epoch's mean loss.
inline void check_lab_convnet_full_shape_golden() {
  LabConfig cfg;
  cfg.train_samples = 100;
  cfg.test_samples = 1;
  cfg.ood_samples = 1;
  cfg.epochs = 2;
  cfg.seed = 11;
  LabSetup setup = make_lab_setup(cfg);
  EXPECT_EQ(hash_float(weight_hash(setup.net), setup.final_train_loss),
            1937976383117587073ULL);
}

// A chain with a backward pass of every kind: Normalization, a strided
// unpadded Conv2D over 2 channels with its ReLU fused, AvgPool2D, Tanh, an
// overlapping MaxPool2D (window 2, stride 1), Sigmoid, Flatten, and Dense
// with ReLU fused before the Dense head. Every fourth input is quantised
// to quarters, so max-pool windows tie and ReLU sees exact zeros.
inline Network backward_chain(Rng& rng) {
  Network net;
  const Shape in{2, 9, 9};
  net.emplace<Normalization>(
      in, random_stats(shape_numel(in), rng, -0.2F, 0.2F),
      random_stats(shape_numel(in), rng, 0.5F, 2.0F));
  Conv2D::Config conv;
  conv.in_channels = 2;
  conv.in_height = 9;
  conv.in_width = 9;
  conv.out_channels = 3;
  conv.stride = 2;
  conv.padding = 0;
  net.emplace<Conv2D>(conv);  // 3 x 4 x 4
  net.emplace<ReLU>(Shape{3, 4, 4});
  Pooling::Config avg;
  avg.channels = 3;
  avg.in_height = 4;
  avg.in_width = 4;
  avg.window = 2;
  avg.stride = 1;
  net.emplace<AvgPool2D>(avg);  // 3 x 3 x 3
  net.emplace<Tanh>(Shape{3, 3, 3});
  Pooling::Config max = avg;
  max.in_height = 3;
  max.in_width = 3;
  net.emplace<MaxPool2D>(max);  // 3 x 2 x 2
  net.emplace<Sigmoid>(Shape{3, 2, 2});
  net.emplace<Flatten>(Shape{3, 2, 2});
  net.emplace<Dense>(12, 5);
  net.emplace<ReLU>(Shape{5});
  net.emplace<Dense>(5, 3);
  randomise(net, rng);
  return net;
}

// 37 training pairs for backward_chain (a short last minibatch of 5 at
// batch 8): MSE targets in [-1, 1]^3, or a class index in {0, 1, 2}.
inline void backward_chain_data(Rng& rng, bool classes,
                                std::vector<Tensor>& inputs,
                                std::vector<Tensor>& targets) {
  for (std::size_t i = 0; i < 37; ++i) {
    Tensor x = Tensor::random_uniform({2, 9, 9}, rng, -1.0F, 1.0F);
    if (i % 4 == 0) {
      for (std::size_t j = 0; j < x.numel(); ++j) {
        x[j] = std::round(x[j] * 4.0F) / 4.0F;
      }
    }
    inputs.push_back(std::move(x));
    if (classes) {
      targets.push_back(Tensor::vector({static_cast<float>(i % 3)}));
    } else {
      targets.push_back(Tensor::random_uniform({3}, rng, -1.0F, 1.0F));
    }
  }
}

// Golden, recorded on the per-sample trainer the minibatch step replaced:
// backward_chain trained 3 epochs at batch 8, under SGD with momentum and
// weight decay on MSE, and under Adam on softmax cross-entropy. The hashes
// cover every weight and every epoch's mean loss.
inline void check_backward_chain_training_golden() {
  const auto run = [](bool adam) {
    Rng rng(adam ? 31 : 29);
    Network net = backward_chain(rng);
    std::vector<Tensor> inputs, targets;
    backward_chain_data(rng, adam, inputs, targets);
    std::uint64_t h = 1469598103934665603ULL;
    TrainConfig cfg;
    cfg.epochs = 3;
    cfg.batch_size = 8;
    cfg.on_epoch = [&h](const EpochStats& s) {
      EXPECT_TRUE(std::isfinite(s.mean_loss));
      h = hash_float(h, s.mean_loss);
    };
    if (adam) {
      Adam::Config ac;
      ac.learning_rate = 1e-2F;
      Adam opt(net.parameters(), net.gradients(), ac);
      SoftmaxCrossEntropyLoss loss;
      (void)train(net, opt, loss, inputs, targets, cfg, rng);
    } else {
      SGD::Config sc;
      sc.learning_rate = 0.05F;
      sc.weight_decay = 1e-3F;
      SGD opt(net.parameters(), net.gradients(), sc);
      MSELoss loss;
      (void)train(net, opt, loss, inputs, targets, cfg, rng);
    }
    return h ^ weight_hash(net);
  };
  EXPECT_EQ(run(false), 14514655589470451824ULL) << "SGD + MSE";
  EXPECT_EQ(run(true), 6101747300938125536ULL)
      << "Adam + softmax cross-entropy";
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

/// Box propagation through layers l..k one layer's kernel at a time, with
/// no fused steps: the reference for Network::propagate_box_batch.
inline BoxBatch layer_by_layer(const Network& net, std::size_t l,
                               std::size_t k, const BoxBatch& in,
                               const BoundBackend& backend) {
  BoxBatch cur = in;
  for (std::size_t i = l; i <= k; ++i) {
    BoxBatch next;
    net.layer(i).propagate_batch(backend, cur, next);
    cur = std::move(next);
  }
  return cur;
}

/// Conv2D + LeakyReLU, MaxPool2D, Flatten, Dense + ReLU, Dense: two
/// fusable pairs and a view.
inline Network make_fusion_chain(Rng& rng) {
  Network net;
  net.emplace<Conv2D>(Conv2D::Config{1, 6, 6, 3, 3, 3, 1, 1});
  net.emplace<LeakyReLU>(Shape{3, 6, 6}, 0.05F);
  net.emplace<MaxPool2D>(Pooling::Config{3, 6, 6, 2, 2});
  net.emplace<Flatten>(Shape{3, 3, 3});
  net.emplace<Dense>(27, 5);
  net.emplace<ReLU>(Shape{5});
  net.emplace<Dense>(5, 2);
  randomise(net, rng);
  return net;
}

// Fusion never crosses the end of a pass: a pass ending at an affine
// layer returns that layer's own outputs, and one starting at the
// activation after it runs the activation alone. Every prefix
// forward_batch(k) and every slice propagate_box_batch(l, k) must equal
// the layer-by-layer reference bit for bit, and propagate_ball_batch the
// pack, ball and propagation it replaces.
inline void check_fusion_boundaries() {
  Rng rng(41);
  const Network net = make_fusion_chain(rng);
  const std::size_t layers = net.num_layers();
  // The plan: 1+2 and 5+6 fuse unless the pass ends at 1 or 5; 4 is a view.
  EXPECT_EQ(net.step(1, 1).last, 1U);
  EXPECT_EQ(net.step(1, 2).last, 2U);
  EXPECT_EQ(net.step(2, 7).last, 2U);
  EXPECT_TRUE(net.step(4, 7).view);
  EXPECT_EQ(net.step(5, 5).last, 5U);
  EXPECT_EQ(net.step(5, 7).last, 6U);
  EXPECT_EQ(net.step(7, 7).last, 7U);

  std::vector<Tensor> inputs;
  for (int i = 0; i < 40; ++i) {
    inputs.push_back(Tensor::random_uniform(net.input_shape(), rng));
  }
  for (std::size_t k = 1; k <= layers; ++k) {
    const FeatureBatch batch = net.forward_batch(k, inputs);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const Tensor one = net.forward_to(k, inputs[i]);
      expect_same_bytes(batch.sample(i), one.span(),
                        "forward_batch k=" + std::to_string(k) +
                            " i=" + std::to_string(i));
    }
  }
  const VectorizedBoundBackend vectorized;
  for (const std::size_t n : {1UL, 40UL}) {
    for (std::size_t l = 1; l <= layers; ++l) {
      const BoxBatch in = BoxBatch::linf_ball(
          random_centers(net.layer(l).input_size(), n, rng), 0.05F);
      for (std::size_t k = l; k <= layers; ++k) {
        expect_bit_identical(layer_by_layer(net, l, k, in, vectorized),
                             net.propagate_box_batch(l, k, in, vectorized));
      }
    }
  }
  for (const std::size_t n : {0UL, 1UL, 33UL, 40UL}) {
    const std::span<const Tensor> some(inputs.data(), n);
    for (std::size_t k = 1; k <= layers; ++k) {
      for (std::size_t kp = 0; kp < k; ++kp) {
        const BoxBatch ball =
            BoxBatch::linf_ball(net.forward_batch(kp, some), 0.02F);
        const BoxBatch want = n == 0 ? BoxBatch(net.layer(k).output_size(), 0)
                                     : net.propagate_box_batch(
                                           kp + 1, k, ball, vectorized);
        const BoxBatch got =
            net.propagate_ball_batch(kp, k, some, 0.02F, vectorized);
        expect_bit_identical(want, got);
        if (::testing::Test::HasFailure()) return;
      }
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
      // The pass runs fused steps; each layer's kernel on its own must
      // give the same bits.
      expect_bit_identical(layer_by_layer(net, 1, k, in, vectorized), vec);
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
