// Monte-Carlo soundness harness for the batched bound-propagation
// subsystem. Two properties:
//
//  1. Bound soundness (Definition 1, sampled): for Δ-bounded perturbations
//     applied at the output of layer kp, the concretely executed suffix
//     G^{kp+1↪k} must land inside the batched perturbation estimate — for
//     the box domain on each bound backend, passed explicitly, and for the
//     zonotope domain.
//
//  2. Robust-construction soundness (the paper's ⊎R guarantee, sampled):
//     a robustly built monitor — flat or sharded — must not warn on any
//     Δ-bounded perturbation of a training input.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/monitor_builder.hpp"
#include "eval/experiment.hpp"
#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "nn/init.hpp"
#include "nn/normalization.hpp"
#include "util/rng.hpp"

namespace ranm {
namespace {

// Concrete float execution and double-accumulated bounds can disagree by
// sub-ulp noise; the seed perturbation test uses the same cushion.
constexpr float kTol = 1e-4F;

std::vector<Tensor> random_inputs(const Shape& shape, std::size_t n,
                                  Rng& rng) {
  std::vector<Tensor> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(Tensor::random_uniform(shape, rng));
  }
  return out;
}

/// Normalization + Tanh head exercises the normalize/monotone kernels in
/// a net the other soundness cases do not cover.
Network make_norm_tanh_net(Rng& rng) {
  Network net;
  net.emplace<Normalization>(Shape{6}, 0.3F, 1.7F);
  net.emplace<Dense>(6, 11);
  net.emplace<Tanh>(Shape{11});
  net.emplace<Dense>(11, 4);
  net.init_params(rng);
  return net;
}

/// The box-domain perturbation estimate on an explicit backend: the
/// concrete prefix to kp, its Δ-ball, then layers kp+1..k.
BoxBatch box_estimate(const Network& net, std::size_t kp, std::size_t k,
                      float delta, std::span<const Tensor> inputs,
                      const BoundBackend& backend) {
  const BoxBatch ball =
      BoxBatch::linf_ball(net.forward_batch(kp, inputs), delta);
  return net.propagate_box_batch(kp + 1, k, ball, backend);
}

void check_bounds_contain_concrete(Network& net, const Shape& in_shape,
                                   std::size_t kp, int seed) {
  Rng rng(seed);
  const std::size_t k = net.num_layers();
  const float delta = 0.08F;
  const std::vector<Tensor> inputs = random_inputs(in_shape, 5, rng);
  const ReferenceBoundBackend reference;
  const VectorizedBoundBackend vectorized;
  struct Engine {
    std::string label;
    BoxBatch bounds;
  };
  const Engine engines[] = {
      {"box on reference",
       box_estimate(net, kp, k, delta, inputs, reference)},
      {"box on vectorized",
       box_estimate(net, kp, k, delta, inputs, vectorized)},
      {"zonotope",
       PerturbationEstimator(net, k, {kp, delta, BoundDomain::kZonotope})
           .estimate_batch(inputs)},
  };
  for (const Engine& engine : engines) {
    const BoxBatch& bounds = engine.bounds;
    ASSERT_EQ(bounds.size(), inputs.size());
    ASSERT_EQ(bounds.dimension(), net.layer(k).output_size());

    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const Tensor at_kp = net.forward_to(kp, inputs[i]);
      for (int trial = 0; trial < 60; ++trial) {
        Tensor perturbed = at_kp;
        for (std::size_t j = 0; j < perturbed.numel(); ++j) {
          perturbed[j] += rng.uniform_f(-delta, delta);
        }
        const Tensor out = net.forward_range(kp + 1, k, perturbed);
        for (std::size_t j = 0; j < out.numel(); ++j) {
          EXPECT_GE(out[j], bounds.lo(j, i) - kTol)
              << engine.label << ", sample " << i << ", neuron " << j;
          EXPECT_LE(out[j], bounds.hi(j, i) + kTol)
              << engine.label << ", sample " << i << ", neuron " << j;
        }
      }
    }
  }
}

TEST(BackendSoundness, MlpBoundsContainConcreteRuns) {
  Rng rng(21);
  Network net = make_mlp({6, 12, 9, 4}, rng);
  check_bounds_contain_concrete(net, {6}, 0, 31);
  check_bounds_contain_concrete(net, {6}, 2, 32);
}

TEST(BackendSoundness, ConvnetBoundsContainConcreteRuns) {
  Rng rng(22);
  Network net = make_small_convnet(8, 8, 3, 12, 4, rng);
  check_bounds_contain_concrete(net, {1, 8, 8}, 0, 33);
  check_bounds_contain_concrete(net, {1, 8, 8}, 3, 34);
}

TEST(BackendSoundness, NormTanhBoundsContainConcreteRuns) {
  Rng rng(23);
  Network net = make_norm_tanh_net(rng);
  check_bounds_contain_concrete(net, {6}, 0, 35);
  check_bounds_contain_concrete(net, {6}, 1, 36);
}

/// Robust builds: Δ-bounded input perturbations of training samples must
/// never warn, for flat and sharded monitors and both domains.
TEST(BackendSoundness, RobustBuildsAcceptPerturbedTrainingInputs) {
  Rng rng(44);
  Network net = make_small_convnet(8, 8, 3, 16, 4, rng);
  // Monitored layer: the LeakyReLU after the hidden Dense (the paper's
  // close-to-output feature layer).
  const std::size_t k = net.num_layers() - 1;
  MonitorBuilder builder(net, k);
  const std::vector<Tensor> train = random_inputs({1, 8, 8}, 24, rng);
  const NeuronStats stats = builder.collect_stats(train, true);

  for (const BoundDomain domain :
       {BoundDomain::kBox, BoundDomain::kZonotope}) {
    PerturbationSpec spec;
    spec.kp = 0;
    spec.delta = 0.04F;
    spec.domain = domain;
    for (const std::size_t shards : {std::size_t(1), std::size_t(3)}) {
      MonitorOptions opts;
      opts.family = MonitorFamily::kInterval;
      opts.bits = 2;
      opts.shards = shards;
      opts.threads = 2;
      const std::unique_ptr<Monitor> monitor = make_monitor(opts, stats);
      builder.build_robust(*monitor, train, spec);

      for (std::size_t i = 0; i < train.size(); ++i) {
        for (int trial = 0; trial < 8; ++trial) {
          Tensor perturbed = train[i];
          for (std::size_t j = 0; j < perturbed.numel(); ++j) {
            perturbed[j] +=
                rng.uniform_f(-0.9F * spec.delta, 0.9F * spec.delta);
          }
          EXPECT_FALSE(builder.warns(*monitor, perturbed))
              << "robust monitor warned on a Δ-bounded perturbation: "
              << "domain " << bound_domain_name(domain) << ", shards "
              << shards << ", sample " << i;
        }
      }
    }
  }
}

/// Batch-size edge cases of the batched estimate: an empty batch keeps the
/// feature dimension, and a one-sample batch is exactly the single-sample
/// estimate() (which, in the box domain, is that batch's column 0).
TEST(BackendSoundness, EmptyAndSingletonBatches) {
  Rng rng(55);
  Network net = make_mlp({5, 8, 3}, rng);
  PerturbationSpec spec;
  spec.delta = 0.05F;
  const PerturbationEstimator pe(net, net.num_layers(), spec);

  const BoxBatch empty = pe.estimate_batch({});
  EXPECT_EQ(empty.size(), 0U);
  EXPECT_EQ(empty.dimension(), pe.feature_dim());

  const std::vector<Tensor> one = random_inputs({5}, 1, rng);
  const BoxBatch single = pe.estimate_batch(one);
  ASSERT_EQ(single.size(), 1U);
  const IntervalVector scalar = pe.estimate(one[0]);
  ASSERT_EQ(scalar.size(), single.dimension());
  for (std::size_t j = 0; j < scalar.size(); ++j) {
    EXPECT_EQ(single.lo(j, 0), scalar[j].lo);
    EXPECT_EQ(single.hi(j, 0), scalar[j].hi);
  }
}

}  // namespace
}  // namespace ranm
