#include "core/multi_layer_monitor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>

#include "core/interval_monitor.hpp"
#include "core/minmax_monitor.hpp"
#include "core/monitor_builder.hpp"
#include "nn/init.hpp"
#include "util/rng.hpp"

namespace ranm {
namespace {

std::vector<Tensor> random_inputs(Rng& rng, std::size_t n, std::size_t d) {
  std::vector<Tensor> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(Tensor::random_uniform({d}, rng));
  }
  return out;
}

TEST(MultiLayerMonitor, AttachValidation) {
  Rng rng(1);
  Network net = make_mlp({4, 8, 6, 2}, rng);
  MultiLayerMonitor mlm(net, WarnPolicy::kAny);
  EXPECT_THROW(mlm.attach(2, NeuronSelection::all(8), nullptr),
               std::invalid_argument);
  EXPECT_THROW(mlm.attach(0, NeuronSelection::all(8),
                          std::make_unique<MinMaxMonitor>(8)),
               std::invalid_argument);
  // Selection dim mismatch with the layer.
  EXPECT_THROW(mlm.attach(2, NeuronSelection::all(5),
                          std::make_unique<MinMaxMonitor>(5)),
               std::invalid_argument);
  // Monitor dim mismatch with the selection.
  EXPECT_THROW(mlm.attach(2, NeuronSelection::all(8),
                          std::make_unique<MinMaxMonitor>(3)),
               std::invalid_argument);
  EXPECT_NO_THROW(mlm.attach(2, NeuronSelection::all(8),
                             std::make_unique<MinMaxMonitor>(8)));
  EXPECT_EQ(mlm.num_attached(), 1U);
  EXPECT_EQ(mlm.layer_of(0), 2U);
}

TEST(MultiLayerMonitor, BuildWithoutMonitorsThrows) {
  Rng rng(2);
  Network net = make_mlp({4, 8, 2}, rng);
  MultiLayerMonitor mlm(net, WarnPolicy::kAny);
  std::vector<Tensor> data = random_inputs(rng, 3, 4);
  EXPECT_THROW(mlm.build_standard(data), std::logic_error);
  EXPECT_THROW((void)mlm.warns(data[0]), std::logic_error);
}

TEST(MultiLayerMonitor, SingleLayerMatchesMonitorBuilder) {
  // One attached monitor must behave exactly like the plain builder path.
  Rng rng(3);
  Network net = make_mlp({4, 10, 6, 2}, rng);
  std::vector<Tensor> train = random_inputs(rng, 30, 4);

  MultiLayerMonitor mlm(net, WarnPolicy::kAny);
  mlm.attach(2, NeuronSelection::all(10),
             std::make_unique<MinMaxMonitor>(10));
  mlm.build_standard(train);

  MonitorBuilder builder(net, 2);
  MinMaxMonitor reference(10);
  builder.build_standard(reference, train);

  for (int i = 0; i < 100; ++i) {
    const Tensor probe = Tensor::random_uniform({4}, rng, -2.0F, 2.0F);
    EXPECT_EQ(mlm.warns(probe), builder.warns(reference, probe));
  }
}

TEST(MultiLayerMonitor, RobustBoundsAtAnAffineLayerAreItsOwn) {
  // Monitors at the Conv2D (layer 1), at its LeakyReLU (2) and at the
  // Dense (5) before the second LeakyReLU. The network's passes fuse 1
  // with 2 and 5 with 6, but never across an attached layer, so every
  // envelope must be the one of the layer-by-layer propagation, bit for
  // bit.
  Rng rng(8);
  const Network net = make_small_convnet(8, 8, 3, 16, 4, rng);
  std::vector<Tensor> train;
  for (int i = 0; i < 45; ++i) {
    train.push_back(Tensor::random_uniform(net.input_shape(), rng));
  }
  const std::size_t layers[] = {1, 2, 5};
  MultiLayerMonitor mlm(net, WarnPolicy::kAny);
  for (const std::size_t k : layers) {
    const std::size_t d = net.layer(k).output_size();
    mlm.attach(k, NeuronSelection::all(d), std::make_unique<MinMaxMonitor>(d));
  }
  const float delta = 0.01F;
  mlm.build_robust(train, PerturbationSpec{0, delta, BoundDomain::kBox});

  const VectorizedBoundBackend backend;
  for (std::size_t e = 0; e < 3; ++e) {
    const std::size_t k = layers[e];
    const std::size_t d = net.layer(k).output_size();
    std::vector<float> lo(d, std::numeric_limits<float>::infinity());
    std::vector<float> hi(d, -std::numeric_limits<float>::infinity());
    for (const Tensor& x : train) {
      BoxBatch box(x.numel(), 1);
      box.set_box(0, IntervalVector::linf_ball(x.span(), delta));
      for (std::size_t l = 1; l <= k; ++l) {
        BoxBatch next;
        net.layer(l).propagate_batch(backend, box, next);
        box = std::move(next);
      }
      for (std::size_t j = 0; j < d; ++j) {
        lo[j] = std::min(lo[j], box.lo(j, 0));
        hi[j] = std::max(hi[j], box.hi(j, 0));
      }
    }
    const auto& mm = dynamic_cast<const MinMaxMonitor&>(mlm.monitor(e));
    for (std::size_t j = 0; j < d; ++j) {
      ASSERT_EQ(mm.lower(j), lo[j]) << "layer " << k << " neuron " << j;
      ASSERT_EQ(mm.upper(j), hi[j]) << "layer " << k << " neuron " << j;
    }
  }
}

TEST(MultiLayerMonitor, TrainingDataNeverWarns) {
  Rng rng(4);
  Network net = make_mlp({4, 10, 6, 2}, rng);
  std::vector<Tensor> train = random_inputs(rng, 25, 4);
  MultiLayerMonitor mlm(net, WarnPolicy::kAny);
  mlm.attach(2, NeuronSelection::all(10),
             std::make_unique<MinMaxMonitor>(10));
  mlm.attach(4, NeuronSelection::all(6), std::make_unique<MinMaxMonitor>(6));
  mlm.attach(5, NeuronSelection::all(2), std::make_unique<MinMaxMonitor>(2));
  mlm.build_standard(train);
  for (const Tensor& v : train) EXPECT_FALSE(mlm.warns(v));
}

TEST(MultiLayerMonitor, PoliciesOrderedBySensitivity) {
  Rng rng(5);
  Network net = make_mlp({4, 10, 6, 2}, rng);
  std::vector<Tensor> train = random_inputs(rng, 25, 4);

  auto build = [&](WarnPolicy policy) {
    auto mlm = std::make_unique<MultiLayerMonitor>(net, policy);
    mlm->attach(2, NeuronSelection::all(10),
                std::make_unique<MinMaxMonitor>(10));
    mlm->attach(4, NeuronSelection::all(6),
                std::make_unique<MinMaxMonitor>(6));
    mlm->attach(5, NeuronSelection::all(2),
                std::make_unique<MinMaxMonitor>(2));
    mlm->build_standard(train);
    return mlm;
  };
  auto any = build(WarnPolicy::kAny);
  auto majority = build(WarnPolicy::kMajority);
  auto all = build(WarnPolicy::kAll);

  int n_any = 0, n_maj = 0, n_all = 0;
  for (int i = 0; i < 300; ++i) {
    const Tensor probe = Tensor::random_uniform({4}, rng, -3.0F, 3.0F);
    const bool w_any = any->warns(probe);
    const bool w_maj = majority->warns(probe);
    const bool w_all = all->warns(probe);
    // all => majority => any (warning sets are nested).
    if (w_all) {
      EXPECT_TRUE(w_maj);
    }
    if (w_maj) {
      EXPECT_TRUE(w_any);
    }
    n_any += w_any;
    n_maj += w_maj;
    n_all += w_all;
  }
  EXPECT_GE(n_any, n_maj);
  EXPECT_GE(n_maj, n_all);
}

TEST(MultiLayerMonitor, WarnsEachAlignsWithAttachOrder) {
  Rng rng(6);
  Network net = make_mlp({4, 10, 6, 2}, rng);
  std::vector<Tensor> train = random_inputs(rng, 20, 4);
  MultiLayerMonitor mlm(net, WarnPolicy::kAny);
  mlm.attach(2, NeuronSelection::all(10),
             std::make_unique<MinMaxMonitor>(10));
  mlm.attach(5, NeuronSelection::all(2), std::make_unique<MinMaxMonitor>(2));
  mlm.build_standard(train);
  const Tensor probe = Tensor::random_uniform({4}, rng, 5.0F, 6.0F);
  const auto votes = mlm.warns_each(probe);
  ASSERT_EQ(votes.size(), 2U);
  EXPECT_EQ(mlm.warns(probe), votes[0] || votes[1]);
}

TEST(MultiLayerMonitor, RobustBuildRequiresKpBelowAllLayers) {
  Rng rng(7);
  Network net = make_mlp({4, 10, 6, 2}, rng);
  std::vector<Tensor> train = random_inputs(rng, 5, 4);
  MultiLayerMonitor mlm(net, WarnPolicy::kAny);
  mlm.attach(2, NeuronSelection::all(10),
             std::make_unique<MinMaxMonitor>(10));
  mlm.attach(4, NeuronSelection::all(6), std::make_unique<MinMaxMonitor>(6));
  EXPECT_THROW(
      mlm.build_robust(train, PerturbationSpec{2, 0.1F, BoundDomain::kBox}),
      std::invalid_argument);
  EXPECT_THROW(
      mlm.build_robust(train, PerturbationSpec{0, -0.1F, BoundDomain::kBox}),
      std::invalid_argument);
  EXPECT_NO_THROW(
      mlm.build_robust(train, PerturbationSpec{1, 0.1F, BoundDomain::kBox}));
  // NaN/non-finite deltas are rejected here too, not only in
  // PerturbationEstimator (a NaN would otherwise poison every bound).
  EXPECT_THROW(
      mlm.build_robust(
          train, PerturbationSpec{0, std::numeric_limits<float>::quiet_NaN(),
                                  BoundDomain::kBox}),
      std::invalid_argument);
  EXPECT_THROW(
      mlm.build_robust(
          train, PerturbationSpec{0, std::numeric_limits<float>::infinity(),
                                  BoundDomain::kBox}),
      std::invalid_argument);
}

struct MultiLemmaCase {
  int seed;
  BoundDomain domain;
};

class MultiLayerLemma1 : public ::testing::TestWithParam<MultiLemmaCase> {};

TEST_P(MultiLayerLemma1, RobustMultiLayerNeverWarnsOnDeltaClose) {
  // Lemma 1 lifted to multi-layer monitors under kAny (the strictest
  // combination): every per-layer monitor is robust, so the vote is too.
  const auto param = GetParam();
  Rng rng(param.seed);
  Network net = make_mlp({4, 10, 8, 4}, rng);
  std::vector<Tensor> train = random_inputs(rng, 20, 4);
  const float delta = 0.1F;

  MultiLayerMonitor mlm(net, WarnPolicy::kAny);
  mlm.attach(2, NeuronSelection::all(10),
             std::make_unique<MinMaxMonitor>(10));
  mlm.attach(4, NeuronSelection::all(8), std::make_unique<MinMaxMonitor>(8));
  mlm.build_robust(train, PerturbationSpec{0, delta, param.domain});

  for (const Tensor& v : train) {
    for (int trial = 0; trial < 50; ++trial) {
      Tensor probe = v;
      for (std::size_t j = 0; j < probe.numel(); ++j) {
        probe[j] += trial % 2 == 0 ? (rng.chance(0.5) ? delta : -delta)
                                   : rng.uniform_f(-delta, delta);
      }
      EXPECT_FALSE(mlm.warns(probe));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MultiLayerLemma1,
    ::testing::Values(MultiLemmaCase{1, BoundDomain::kBox},
                      MultiLemmaCase{2, BoundDomain::kBox},
                      MultiLemmaCase{3, BoundDomain::kZonotope}));

TEST(MultiLayerMonitor, SubsetSelectionStillSound) {
  // Monitoring a neuron subset accepts a superset of what full monitoring
  // accepts (fewer constraints), and never warns on training data.
  Rng rng(8);
  Network net = make_mlp({4, 12, 6, 2}, rng);
  std::vector<Tensor> train = random_inputs(rng, 30, 4);

  MonitorBuilder builder(net, 2);
  NeuronStats stats = builder.collect_stats(train, true);

  MultiLayerMonitor full(net, WarnPolicy::kAny);
  full.attach(2, NeuronSelection::all(12),
              std::make_unique<MinMaxMonitor>(12));
  full.build_standard(train);

  MultiLayerMonitor subset(net, WarnPolicy::kAny);
  subset.attach(2, NeuronSelection::top_variance(stats, 4),
                std::make_unique<MinMaxMonitor>(4));
  subset.build_standard(train);

  for (const Tensor& v : train) EXPECT_FALSE(subset.warns(v));
  for (int i = 0; i < 200; ++i) {
    const Tensor probe = Tensor::random_uniform({4}, rng, -2.0F, 2.0F);
    // subset warns => full warns (subset constraints are a projection).
    if (subset.warns(probe)) {
      EXPECT_TRUE(full.warns(probe));
    }
  }
}

TEST(WarnPolicy, Names) {
  EXPECT_EQ(warn_policy_name(WarnPolicy::kAny), "any");
  EXPECT_EQ(warn_policy_name(WarnPolicy::kAll), "all");
  EXPECT_EQ(warn_policy_name(WarnPolicy::kMajority), "majority");
}

}  // namespace
}  // namespace ranm
