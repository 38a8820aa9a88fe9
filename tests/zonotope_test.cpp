#include "absint/zonotope.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "nn/activations.hpp"
#include "nn/network.hpp"
#include "nn/normalization.hpp"
#include "util/rng.hpp"

namespace ranm {
namespace {

// concretize() rounds one ulp outward for float soundness; compare with a
// matching tolerance.
void expect_interval_near(const Interval& actual, float lo, float hi,
                          float tol = 1e-5F) {
  EXPECT_NEAR(actual.lo, lo, tol);
  EXPECT_NEAR(actual.hi, hi, tol);
  // Outward rounding must never shrink the interval.
  EXPECT_LE(actual.lo, lo);
  EXPECT_GE(actual.hi, hi);
}

TEST(Zonotope, FromPointIsDegenerate) {
  const std::vector<float> c{1.0F, 2.0F};
  Zonotope z = Zonotope::from_point(c);
  EXPECT_EQ(z.dim(), 2U);
  EXPECT_EQ(z.num_generators(), 0U);
  expect_interval_near(z.concretize(0), 1.0F, 1.0F);
}

TEST(Zonotope, LinfBallBox) {
  const std::vector<float> c{1.0F, -1.0F};
  Zonotope z = Zonotope::linf_ball(c, 0.5F);
  EXPECT_EQ(z.num_generators(), 2U);
  auto box = z.to_box();
  EXPECT_FLOAT_EQ(box[0].lo, 0.5F);
  EXPECT_FLOAT_EQ(box[0].hi, 1.5F);
  EXPECT_FLOAT_EQ(box[1].lo, -1.5F);
  EXPECT_FLOAT_EQ(box[1].hi, -0.5F);
}

TEST(Zonotope, FromBoxSkipsDegenerateDims) {
  IntervalVector box(
      std::vector<Interval>{Interval(1, 1), Interval(0, 2)});
  Zonotope z = Zonotope::from_box(box);
  EXPECT_EQ(z.num_generators(), 1U);
  expect_interval_near(z.concretize(0), 1.0F, 1.0F);
  expect_interval_near(z.concretize(1), 0.0F, 2.0F);
}

TEST(Zonotope, AffineExactOnBall) {
  // y = W x + b maps the ball exactly; compare with direct interval math.
  const std::vector<float> c{0.0F, 0.0F};
  Zonotope z = Zonotope::linf_ball(c, 1.0F);
  const std::vector<float> w{1.0F, 1.0F, 1.0F, -1.0F};  // rows: [1,1],[1,-1]
  const std::vector<float> b{0.0F, 10.0F};
  Zonotope y = z.affine(w, 2, b);
  EXPECT_EQ(y.dim(), 2U);
  // Exact up to the float rounding radius (4u of the magnitude).
  expect_interval_near(y.concretize(0), -2.0F, 2.0F);
  expect_interval_near(y.concretize(1), 8.0F, 12.0F);
}

TEST(Zonotope, AffineValidatesSizes) {
  Zonotope z = Zonotope::linf_ball(std::vector<float>{0.0F, 0.0F}, 1.0F);
  EXPECT_THROW((void)z.affine(std::vector<float>{1.0F}, 1,
                              std::vector<float>{0.0F, 0.0F}),
               std::invalid_argument);
}

TEST(Zonotope, AffineChainsTrackCorrelations) {
  // x -> (x, x) -> first minus second should be 0 width for a zonotope
  // (correlated), while interval arithmetic would give width 4.
  Zonotope z = Zonotope::linf_ball(std::vector<float>{0.0F}, 1.0F);
  const std::vector<float> dup{1.0F, 1.0F};  // two rows of [1]
  Zonotope two = z.affine(dup, 2, std::vector<float>{0.0F, 0.0F});
  const std::vector<float> diff{1.0F, -1.0F};  // one row [1, -1]
  Zonotope d = two.affine(diff, 1, std::vector<float>{0.0F});
  // Width 0 up to the two layers' float rounding radii.
  expect_interval_near(d.concretize(0), 0.0F, 0.0F);
}

TEST(Zonotope, ScaleShift) {
  Zonotope z = Zonotope::linf_ball(std::vector<float>{1.0F, 2.0F}, 1.0F);
  // (x - 0) * 2 and (x - 5) * -1.
  Zonotope s = z.normalize(std::vector<float>{0.0F, 5.0F},
                           std::vector<float>{2.0F, -1.0F});
  expect_interval_near(s.concretize(0), 0.0F, 4.0F);
  expect_interval_near(s.concretize(1), 2.0F, 4.0F);
}

TEST(Zonotope, ReluFixedSignExact) {
  Zonotope z = Zonotope::linf_ball(std::vector<float>{5.0F, -5.0F}, 1.0F);
  Zonotope r = z.relu();
  expect_interval_near(r.concretize(0), 4.0F, 6.0F);  // positive: identity
  expect_interval_near(r.concretize(1), 0.0F, 0.0F);  // negative: zero
}

TEST(Zonotope, ReluCrossingIsSoundAndBounded) {
  Zonotope z = Zonotope::linf_ball(std::vector<float>{0.5F}, 1.0F);
  Zonotope r = z.relu();
  const auto iv = r.concretize(0);
  // Sound: contains [0, 1.5] (the true image of relu on [-0.5, 1.5]).
  EXPECT_LE(iv.lo, 0.0F);
  EXPECT_GE(iv.hi, 1.5F);
  // Not absurdly loose: within the DeepZ relaxation's guarantee.
  EXPECT_GE(iv.lo, -0.5F);
  EXPECT_LE(iv.hi, 2.0F);
}

// Property: sampled points inside the input ball map inside the
// concretised output box, for affine + relu chains.
class ZonotopeSoundness : public ::testing::TestWithParam<int> {};

TEST_P(ZonotopeSoundness, ReluAffineChain) {
  Rng rng(GetParam());
  const std::size_t d = 4;
  std::vector<float> center(d), w(d * d), bias(d);
  for (auto& v : center) v = rng.uniform_f(-1, 1);
  for (auto& v : w) v = rng.uniform_f(-1, 1);
  for (auto& v : bias) v = rng.uniform_f(-1, 1);
  const float delta = 0.3F;

  Zonotope z = Zonotope::linf_ball(center, delta);
  Zonotope out = z.affine(w, d, bias).relu();
  const IntervalVector box = out.to_box();

  for (int trial = 0; trial < 300; ++trial) {
    // Sample x in the ball, push through the same concrete function.
    std::vector<float> x(d), y(d, 0.0F);
    for (std::size_t j = 0; j < d; ++j) {
      x[j] = center[j] + rng.uniform_f(-delta, delta);
    }
    for (std::size_t r = 0; r < d; ++r) {
      float acc = bias[r];
      for (std::size_t j = 0; j < d; ++j) acc += w[r * d + j] * x[j];
      y[r] = std::max(0.0F, acc);
    }
    for (std::size_t r = 0; r < d; ++r) {
      EXPECT_GE(y[r], box[r].lo - 1e-4F);
      EXPECT_LE(y[r], box[r].hi + 1e-4F);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ZonotopeSoundness,
                         ::testing::Values(10, 11, 12, 13));

TEST(Zonotope, TighterThanIntervalOnAffineChain) {
  // Two affine layers with sign-mixing weights: zonotope must be at least
  // as tight as interval bound propagation (usually strictly tighter).
  Rng rng(99);
  const std::size_t d = 6;
  std::vector<float> center(d), w1(d * d), w2(d * d), b(d, 0.0F);
  for (auto& v : center) v = rng.uniform_f(-1, 1);
  for (auto& v : w1) v = rng.uniform_f(-1, 1);
  for (auto& v : w2) v = rng.uniform_f(-1, 1);

  const float delta = 0.2F;
  Zonotope z = Zonotope::linf_ball(center, delta);
  const IntervalVector zbox = z.affine(w1, d, b).affine(w2, d, b).to_box();

  // Interval propagation of the same chain.
  IntervalVector box = IntervalVector::linf_ball(center, delta);
  auto affine_box = [&](const IntervalVector& in,
                        const std::vector<float>& w) {
    IntervalVector out(d);
    for (std::size_t r = 0; r < d; ++r) {
      Interval acc(0.0F);
      for (std::size_t j = 0; j < d; ++j) {
        acc = acc + in[j].scaled(w[r * d + j]);
      }
      out[r] = acc;
    }
    return out;
  };
  const IntervalVector ibox = affine_box(affine_box(box, w1), w2);

  float ztotal = 0.0F, itotal = 0.0F;
  for (std::size_t r = 0; r < d; ++r) {
    EXPECT_LE(zbox[r].width(), ibox[r].width() + 1e-4F);
    ztotal += zbox[r].width();
    itotal += ibox[r].width();
  }
  EXPECT_LT(ztotal, itotal);  // strictly tighter in aggregate
}

TEST(Zonotope, ReducedStaysSound) {
  Rng rng(7);
  const std::size_t d = 3;
  std::vector<float> center{0.0F, 1.0F, -1.0F};
  Zonotope z = Zonotope::linf_ball(center, 1.0F);
  // Chain a couple of affine maps to create many small generators.
  std::vector<float> w(d * d);
  for (auto& v : w) v = rng.uniform_f(-0.3F, 0.3F);
  Zonotope out = z.affine(w, d, std::vector<float>(d, 0.0F)).relu();
  Zonotope red = out.reduced(0.05F);
  const auto full = out.to_box();
  const auto small = red.to_box();
  for (std::size_t j = 0; j < d; ++j) {
    EXPECT_LE(small[j].lo, full[j].lo + 1e-5F);
    EXPECT_GE(small[j].hi, full[j].hi - 1e-5F);
  }
}

TEST(Zonotope, GeneratorAccessor) {
  Zonotope z = Zonotope::linf_ball(std::vector<float>{1.0F, 2.0F}, 0.5F);
  ASSERT_EQ(z.num_generators(), 2U);
  const auto g0 = z.generator(0);
  ASSERT_EQ(g0.size(), 2U);
  EXPECT_FLOAT_EQ(g0[0], 0.5F);
  EXPECT_FLOAT_EQ(g0[1], 0.0F);
  EXPECT_THROW((void)z.generator(2), std::out_of_range);
}

TEST(Zonotope, ConstructorValidatesGeneratorStorage) {
  EXPECT_THROW(Zonotope(std::vector<float>{1.0F, 2.0F},
                        std::vector<float>{1.0F, 2.0F, 3.0F}),
               std::invalid_argument);
}

TEST(Zonotope, LeakyReluFixedSignKeepsSlope) {
  Zonotope z = Zonotope::linf_ball(std::vector<float>{-5.0F}, 1.0F);
  Zonotope r = z.leaky_relu(0.1F);
  const auto iv = r.concretize(0);
  EXPECT_NEAR(iv.lo, -0.6F, 1e-5F);
  EXPECT_NEAR(iv.hi, -0.4F, 1e-5F);
}

std::vector<float> uniform_vector(std::size_t n, Rng& rng, float lo,
                                  float hi) {
  std::vector<float> v(n);
  for (float& x : v) x = rng.uniform_f(lo, hi);
  return v;
}

TEST(Zonotope, LeakyReluNormalizationChainHoldsTheFloatForwardPass) {
  // At Δ > 0 every elementwise layer of the concrete float pass rounds its
  // outputs; the zonotope's box must still hold them. Each layer is
  // increasing per dimension, so an output's extremes over the ball are at
  // the ball's lowest and highest float vertices.
  constexpr std::size_t kDim = 512;
  Rng rng(41);
  Network net;
  for (const float alpha : {0.1F, 0.01F, 0.3F}) {
    net.emplace<Normalization>(Shape{kDim},
                               uniform_vector(kDim, rng, -1.0F, 1.0F),
                               uniform_vector(kDim, rng, 0.3F, 7.0F));
    net.emplace<LeakyReLU>(Shape{kDim}, alpha);
  }
  const float inf = std::numeric_limits<float>::infinity();
  for (const float delta : {1e-4F, 0.01F, 0.3F}) {
    for (int trial = 0; trial < 8; ++trial) {
      const std::vector<float> c = uniform_vector(kDim, rng, -2.0F, 2.0F);
      const Zonotope z = net.propagate_zonotope(
          1, net.num_layers(), Zonotope::linf_ball(c, delta));
      std::vector<Tensor> inputs(3, Tensor(Shape{kDim}));
      for (std::size_t j = 0; j < kDim; ++j) {
        // The floats nearest c ± Δ inside the real ball.
        float lo = c[j] - delta, hi = c[j] + delta;
        if (double(lo) < double(c[j]) - delta) lo = std::nextafter(lo, inf);
        if (double(hi) > double(c[j]) + delta) hi = std::nextafter(hi, -inf);
        inputs[0][j] = lo;
        inputs[1][j] = hi;
        inputs[2][j] = rng.uniform_f(lo, hi);
      }
      for (const Tensor& x : inputs) {
        const Tensor y = net.forward(x);
        for (std::size_t j = 0; j < kDim; ++j) {
          const Interval box = z.concretize(j);
          ASSERT_GE(y[j], box.lo) << "Δ " << delta << ", dimension " << j;
          ASSERT_LE(y[j], box.hi) << "Δ " << delta << ", dimension " << j;
        }
      }
    }
  }
}

TEST(Zonotope, MonotoneViaBoxSound) {
  Zonotope z = Zonotope::linf_ball(std::vector<float>{0.0F}, 2.0F);
  Zonotope s = z.monotone_via_box(
      +[](const Interval& iv) { return iv.tanh_(); });
  const auto iv = s.concretize(0);
  EXPECT_NEAR(iv.lo, std::tanh(-2.0F), 1e-5F);
  EXPECT_NEAR(iv.hi, std::tanh(2.0F), 1e-5F);
}

}  // namespace
}  // namespace ranm
