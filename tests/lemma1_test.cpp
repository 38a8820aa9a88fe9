// Lemma 1 (the paper's provable-robustness claim): if the robust monitor
// M_{G,k,kp,Δ} warns on v_op, then no training input v_tr satisfies
// |G^{kp}_j(v_op) - G^{kp}_j(v_tr)| <= Δ for all j. Contrapositively: any
// operational input whose layer-kp activation is Δ-close to some training
// input's layer-kp activation must NOT trigger a warning. We check the
// contrapositive by construction: perturb G^{kp}(v_tr) by at most Δ and
// feed the result through the suffix network — the monitor must accept.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/interval_monitor.hpp"
#include "core/minmax_monitor.hpp"
#include "core/monitor_builder.hpp"
#include "core/onoff_monitor.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/init.hpp"
#include "util/rng.hpp"

namespace ranm {
namespace {

struct Lemma1Case {
  Lemma1Case(int seed_in, std::size_t kp_in, float delta_in,
             BoundDomain domain_in, std::uint32_t name_bytes_in = 0)
      : seed(seed_in),
        name_bytes(name_bytes_in),
        kp(kp_in),
        delta(delta_in),
        domain(domain_in) {}

  int seed;
  // gtest_discover_tests names each case after the raw bytes of its
  // parameter. Bytes 4-7 used to be uninitialised alignment padding, so
  // the ctest names changed from run to run; as a real field they are
  // fixed, and the values keep each case under its registered name.
  std::uint32_t name_bytes;
  std::size_t kp;
  float delta;
  BoundDomain domain;
};
static_assert(sizeof(Lemma1Case) == 24,
              "the printed case name covers 24 bytes");

class Lemma1 : public ::testing::TestWithParam<Lemma1Case> {
 protected:
  /// Builds a random net + training set, constructs the three robust
  /// monitor types, and returns the number of Lemma-1 violations found by
  /// sampling Δ-close probes. Must be zero for every monitor.
  void run_check() {
    const auto param = GetParam();
    Rng rng(param.seed);
    Network net = make_mlp({5, 12, 8, 6}, rng);
    const std::size_t k = net.num_layers();

    std::vector<Tensor> train;
    for (int i = 0; i < 25; ++i) {
      train.push_back(Tensor::random_uniform({5}, rng));
    }

    MonitorBuilder builder(net, k);
    const std::size_t d = builder.feature_dim();
    PerturbationSpec spec{param.kp, param.delta, param.domain};

    // Thresholds from the training features.
    NeuronStats stats = builder.collect_stats(train, /*keep_samples=*/true);
    MinMaxMonitor minmax(d);
    OnOffMonitor onoff(ThresholdSpec::from_means(stats));
    IntervalMonitor interval(ThresholdSpec::from_percentiles(stats, 2));

    builder.build_robust(minmax, train, spec);
    builder.build_robust(onoff, train, spec);
    builder.build_robust(interval, train, spec);

    // Probe: v_op whose layer-kp activation is within Δ of a training
    // input's layer-kp activation (sampled uniformly in the Δ-ball and at
    // the ball's corners, which are the worst case).
    for (const Tensor& v : train) {
      const Tensor at_kp = net.forward_to(spec.kp, v);
      for (int trial = 0; trial < 60; ++trial) {
        Tensor probe = at_kp;
        const bool corner = trial % 2 == 0;
        for (std::size_t j = 0; j < probe.numel(); ++j) {
          probe[j] += corner
                          ? (rng.chance(0.5) ? spec.delta : -spec.delta)
                          : rng.uniform_f(-spec.delta, spec.delta);
        }
        const Tensor feat_t = net.forward_range(spec.kp + 1, k, probe);
        const std::vector<float> feat(feat_t.data(),
                                      feat_t.data() + feat_t.numel());
        EXPECT_FALSE(minmax.warn(feat)) << "min-max monitor violated L1";
        EXPECT_FALSE(onoff.warn(feat)) << "on-off monitor violated L1";
        EXPECT_FALSE(interval.warn(feat)) << "interval monitor violated L1";
      }
    }
  }
};

TEST_P(Lemma1, NoWarningOnDeltaCloseInputs) { run_check(); }

INSTANTIATE_TEST_SUITE_P(
    Sweep, Lemma1,
    ::testing::Values(
        Lemma1Case{1, 0, 0.05F, BoundDomain::kBox},
        Lemma1Case{2, 0, 0.3F, BoundDomain::kBox, 0x7365745FU},
        Lemma1Case{3, 1, 0.1F, BoundDomain::kBox},
        Lemma1Case{4, 2, 0.2F, BoundDomain::kBox},
        Lemma1Case{5, 3, 0.15F, BoundDomain::kBox, 0xEFD00000U},
        Lemma1Case{6, 4, 0.4F, BoundDomain::kBox},
        Lemma1Case{7, 0, 0.1F, BoundDomain::kZonotope, 0x00091E03U},
        Lemma1Case{8, 2, 0.25F, BoundDomain::kZonotope, 0xCAC50000U}));

TEST(Lemma1Standard, StandardMonitorDoesWarnOnPerturbation) {
  // Sanity check of the paper's *motivation*: the standard (non-robust)
  // monitor generally does warn on slightly perturbed training inputs —
  // that is the false-positive problem robust construction removes.
  Rng rng(99);
  Network net = make_mlp({5, 12, 8, 6}, rng);
  const std::size_t k = net.num_layers();
  std::vector<Tensor> train;
  for (int i = 0; i < 25; ++i) {
    train.push_back(Tensor::random_uniform({5}, rng));
  }
  MonitorBuilder builder(net, k);
  NeuronStats stats = builder.collect_stats(train, true);
  IntervalMonitor standard(ThresholdSpec::from_percentiles(stats, 2));
  builder.build_standard(standard, train);

  int warned = 0, total = 0;
  const float delta = 0.3F;
  for (const Tensor& v : train) {
    for (int trial = 0; trial < 20; ++trial) {
      Tensor probe = v;
      for (std::size_t j = 0; j < probe.numel(); ++j) {
        probe[j] += rng.chance(0.5) ? delta : -delta;
      }
      warned += builder.warns(standard, probe);
      ++total;
    }
  }
  // The standard monitor has a substantial FP rate under perturbation.
  EXPECT_GT(warned, total / 10);
}

/// Lemma 1 at Δ = 0 when the bias cancels the weighted sum: the forward
/// pass rounds w·x = 1 + 3e-8 to 1.0F before it adds b = -1, so the ReLU
/// activation is exactly 0. A bound that adds b inside its double
/// accumulator rounds once, lands on [3e-8, 3e-8] and misses it; a 1-bit
/// on-off monitor built robustly from that bound then warns on its own
/// training input, which the standard build accepts. Both domains must
/// cover the forward pass's rounding.
class Lemma1Rounding : public ::testing::TestWithParam<BoundDomain> {
 protected:
  void expect_robust_accepts_own_input(const Network& net,
                                       const Tensor& input) const {
    const std::vector<Tensor> train{input};
    const std::size_t k = net.num_layers();
    const float activation = net.forward(train[0])[0];
    ASSERT_EQ(activation, 0.0F);

    const PerturbationSpec spec{0, 0.0F, GetParam()};
    const IntervalVector box =
        PerturbationEstimator(net, k, spec).estimate(train[0]);
    EXPECT_LE(box[0].lo, activation);
    EXPECT_GE(box[0].hi, activation);

    MonitorBuilder builder(net, k);
    const std::vector<float> zero{0.0F};
    OnOffMonitor standard(ThresholdSpec::onoff(zero));
    builder.build_standard(standard, train);
    EXPECT_FALSE(builder.warns(standard, train[0]));
    OnOffMonitor robust(ThresholdSpec::onoff(zero));
    builder.build_robust(robust, train, spec);
    EXPECT_FALSE(builder.warns(robust, train[0]))
        << "robust monitor warned on its own training input";
  }
};

TEST_P(Lemma1Rounding, DenseBiasCancellationAtZeroDelta) {
  Network net;
  Dense& dense = net.emplace<Dense>(1, 1);
  dense.weights()[0] = 1.0F / 3.0F;
  dense.bias()[0] = -1.0F;
  net.emplace<ReLU>(Shape{1});
  expect_robust_accepts_own_input(net, Tensor::vector({3.0F}));
}

TEST_P(Lemma1Rounding, ConvBiasCancellationAtZeroDelta) {
  Network net;
  Conv2D& conv = net.emplace<Conv2D>(Conv2D::Config{1, 1, 1, 1, 1, 1, 1, 0});
  conv.weights()[0] = 1.0F / 3.0F;
  conv.bias()[0] = -1.0F;
  net.emplace<ReLU>(Shape{1, 1, 1});
  expect_robust_accepts_own_input(net, Tensor({1, 1, 1}, 3.0F));
}

INSTANTIATE_TEST_SUITE_P(
    Domains, Lemma1Rounding,
    ::testing::Values(BoundDomain::kBox, BoundDomain::kZonotope),
    [](const ::testing::TestParamInfo<BoundDomain>& param) {
      return std::string(bound_domain_name(param.param));
    });

}  // namespace
}  // namespace ranm
