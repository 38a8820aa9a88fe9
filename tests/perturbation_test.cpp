// Definition 1: the perturbation estimate pe^G_k(v, kp, Δ) must bound
// G^{kp+1↪k}(v') for every Δ-bounded perturbation v' of G^{kp}(v). We
// verify by sampling perturbations *at layer kp* (not merely at the
// input), which is the exact quantification of the definition.
#include "core/perturbation_estimator.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "nn/init.hpp"
#include "util/rng.hpp"

namespace ranm {
namespace {

struct PeCase {
  PeCase(int seed_in, std::size_t kp_in, float delta_in, BoundDomain domain_in,
         std::uint32_t name_bytes_in = 0)
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
static_assert(sizeof(PeCase) == 24, "the printed case name covers 24 bytes");

class PerturbationEstimate : public ::testing::TestWithParam<PeCase> {};

TEST_P(PerturbationEstimate, Definition1Holds) {
  const auto param = GetParam();
  Rng rng(param.seed);
  // MLP with 5 layers: Dense, ReLU, Dense, ReLU, Dense.
  Network net = make_mlp({5, 10, 8, 4}, rng);
  const std::size_t k = net.num_layers();

  PerturbationSpec spec;
  spec.kp = param.kp;
  spec.delta = param.delta;
  spec.domain = param.domain;
  PerturbationEstimator pe(net, k, spec);
  EXPECT_EQ(pe.feature_dim(), 4U);

  for (int input_idx = 0; input_idx < 5; ++input_idx) {
    const Tensor v = Tensor::random_uniform({5}, rng);
    const IntervalVector bounds = pe.estimate(v);

    // ˘v = G^{kp}(v) + δ with |δ_j| <= Δ, pushed through layers kp+1..k.
    const Tensor at_kp = net.forward_to(spec.kp, v);
    for (int trial = 0; trial < 200; ++trial) {
      Tensor perturbed = at_kp;
      for (std::size_t j = 0; j < perturbed.numel(); ++j) {
        perturbed[j] += rng.uniform_f(-spec.delta, spec.delta);
      }
      const Tensor out = net.forward_range(spec.kp + 1, k, perturbed);
      for (std::size_t j = 0; j < out.numel(); ++j) {
        EXPECT_GE(out[j], bounds[j].lo - 1e-4F)
            << "kp=" << spec.kp << " j=" << j;
        EXPECT_LE(out[j], bounds[j].hi + 1e-4F)
            << "kp=" << spec.kp << " j=" << j;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PerturbationEstimate,
    ::testing::Values(
        PeCase{1, 0, 0.05F, BoundDomain::kBox},
        PeCase{2, 0, 0.2F, BoundDomain::kBox},
        PeCase{3, 1, 0.1F, BoundDomain::kBox, 0x5F747365U},
        PeCase{4, 2, 0.1F, BoundDomain::kBox, 0x65745F6EU},
        PeCase{5, 3, 0.3F, BoundDomain::kBox},
        PeCase{6, 4, 0.5F, BoundDomain::kBox, 0xEFC00000U},
        PeCase{7, 0, 0.05F, BoundDomain::kZonotope},
        PeCase{8, 1, 0.1F, BoundDomain::kZonotope},
        PeCase{9, 2, 0.2F, BoundDomain::kZonotope, 0xCAD00000U},
        PeCase{10, 4, 0.5F, BoundDomain::kZonotope}));

TEST(PerturbationEstimator, ZeroDeltaGivesPointBounds) {
  Rng rng(20);
  Network net = make_mlp({4, 6, 3}, rng);
  PerturbationSpec spec;
  spec.kp = 0;
  spec.delta = 0.0F;
  PerturbationEstimator pe(net, net.num_layers(), spec);
  const Tensor v = Tensor::random_uniform({4}, rng);
  const IntervalVector bounds = pe.estimate(v);
  const auto f = pe.features(v);
  for (std::size_t j = 0; j < f.size(); ++j) {
    EXPECT_NEAR(bounds[j].lo, f[j], 1e-5F);
    EXPECT_NEAR(bounds[j].hi, f[j], 1e-5F);
  }
}

TEST(PerturbationEstimator, ZonotopeAtLeastAsTightAsBox) {
  Rng rng(21);
  Network net = make_mlp({6, 12, 12, 4}, rng);
  const Tensor v = Tensor::random_uniform({6}, rng);
  PerturbationSpec box_spec{0, 0.1F, BoundDomain::kBox};
  PerturbationSpec zono_spec{0, 0.1F, BoundDomain::kZonotope};
  const auto box =
      PerturbationEstimator(net, net.num_layers(), box_spec).estimate(v);
  const auto zono =
      PerturbationEstimator(net, net.num_layers(), zono_spec).estimate(v);
  for (std::size_t j = 0; j < box.size(); ++j) {
    EXPECT_LE(zono[j].width(), box[j].width() + 1e-4F);
  }
}

TEST(PerturbationEstimator, BoundsWidenWithDelta) {
  Rng rng(22);
  Network net = make_mlp({4, 8, 4}, rng);
  const Tensor v = Tensor::random_uniform({4}, rng);
  float prev = -1.0F;
  for (float delta : {0.0F, 0.05F, 0.1F, 0.5F}) {
    PerturbationSpec spec{0, delta, BoundDomain::kBox};
    const auto bounds =
        PerturbationEstimator(net, net.num_layers(), spec).estimate(v);
    EXPECT_GE(bounds.total_width(), prev);
    prev = bounds.total_width();
  }
}

TEST(PerturbationEstimator, LaterKpGivesTighterBounds) {
  // Perturbation injected later passes through fewer layers, so the same
  // Δ produces narrower feature bounds — the reason feature-level
  // perturbation modelling is attractive.
  Rng rng(23);
  Network net = make_mlp({6, 12, 12, 4}, rng);
  const Tensor v = Tensor::random_uniform({6}, rng);
  const std::size_t k = net.num_layers();
  PerturbationSpec early{0, 0.1F, BoundDomain::kBox};
  PerturbationSpec late{k - 1, 0.1F, BoundDomain::kBox};
  const auto wide = PerturbationEstimator(net, k, early).estimate(v);
  const auto narrow = PerturbationEstimator(net, k, late).estimate(v);
  EXPECT_LE(narrow.total_width(), wide.total_width());
}

TEST(PerturbationEstimator, Validation) {
  Rng rng(24);
  Network net = make_mlp({3, 4, 2}, rng);
  PerturbationSpec ok{0, 0.1F, BoundDomain::kBox};
  EXPECT_THROW(PerturbationEstimator(net, 0, ok), std::invalid_argument);
  EXPECT_THROW(PerturbationEstimator(net, 99, ok), std::invalid_argument);
  PerturbationSpec bad_kp{3, 0.1F, BoundDomain::kBox};
  EXPECT_THROW(PerturbationEstimator(net, 3, bad_kp), std::invalid_argument);
  PerturbationSpec neg{0, -0.1F, BoundDomain::kBox};
  EXPECT_THROW(PerturbationEstimator(net, 3, neg), std::invalid_argument);
}

TEST(PerturbationEstimator, DomainNames) {
  EXPECT_EQ(bound_domain_name(BoundDomain::kBox), "box");
  EXPECT_EQ(bound_domain_name(BoundDomain::kZonotope), "zonotope");
}

TEST(PerturbationEstimator, RejectsNonFiniteDelta) {
  // `delta < 0` alone waves NaN through (NaN fails every comparison):
  // the validity predicate must reject NaN and ±inf too.
  Rng rng(25);
  Network net = make_mlp({3, 4, 2}, rng);
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity(), -1.0F}) {
    PerturbationSpec spec{0, bad, BoundDomain::kBox};
    EXPECT_THROW(PerturbationEstimator(net, net.num_layers(), spec),
                 std::invalid_argument)
        << "delta = " << bad;
  }
}

/// Batch-size independence on the seed networks: an n-column estimate is
/// bit-for-bit the n one-column estimates, and estimate() is the
/// one-column estimate, in both domains.
TEST(PerturbationEstimator, BatchedMatchesScalarOnSeedNetworks) {
  struct NetCase {
    Network net;
    Shape in_shape;
    std::size_t kp;
  };
  Rng rng(26);
  std::vector<NetCase> cases;
  cases.push_back({make_mlp({5, 10, 8, 4}, rng), {5}, 0});
  cases.push_back({make_mlp({5, 10, 8, 4}, rng), {5}, 2});
  cases.push_back({make_small_convnet(8, 8, 3, 12, 4, rng), {1, 8, 8}, 0});

  for (NetCase& c : cases) {
    std::vector<Tensor> inputs;
    for (int i = 0; i < 9; ++i) {
      inputs.push_back(Tensor::random_uniform(c.in_shape, rng));
    }
    for (const BoundDomain domain :
         {BoundDomain::kBox, BoundDomain::kZonotope}) {
      const PerturbationEstimator pe(c.net, c.net.num_layers(),
                                     PerturbationSpec{c.kp, 0.05F, domain});
      const BoxBatch batched = pe.estimate_batch(inputs);
      ASSERT_EQ(batched.size(), inputs.size());
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        const BoxBatch one = pe.estimate_batch({&inputs[i], 1});
        const IntervalVector scalar = pe.estimate(inputs[i]);
        ASSERT_EQ(one.size(), 1U);
        ASSERT_EQ(one.dimension(), batched.dimension());
        ASSERT_EQ(scalar.size(), batched.dimension());
        for (std::size_t j = 0; j < scalar.size(); ++j) {
          EXPECT_EQ(batched.lo(j, i), one.lo(j, 0))
              << bound_domain_name(domain) << " sample " << i;
          EXPECT_EQ(batched.hi(j, i), one.hi(j, 0))
              << bound_domain_name(domain) << " sample " << i;
          EXPECT_EQ(scalar[j].lo, one.lo(j, 0))
              << bound_domain_name(domain) << " sample " << i;
          EXPECT_EQ(scalar[j].hi, one.hi(j, 0))
              << bound_domain_name(domain) << " sample " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace ranm
