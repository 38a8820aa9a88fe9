#include "absint/interval.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.hpp"

namespace ranm {
namespace {

TEST(Interval, Construction) {
  Interval iv(1.0F, 2.0F);
  EXPECT_EQ(iv.lo, 1.0F);
  EXPECT_EQ(iv.hi, 2.0F);
  EXPECT_THROW(Interval(2.0F, 1.0F), std::invalid_argument);
  EXPECT_FALSE(iv.is_empty());
  EXPECT_TRUE(Interval::make_unchecked(2.0F, 1.0F).is_empty());
}

TEST(Interval, Around) {
  Interval iv = Interval::around(3.0F, 0.5F);
  EXPECT_FLOAT_EQ(iv.lo, 2.5F);
  EXPECT_FLOAT_EQ(iv.hi, 3.5F);
  EXPECT_THROW(Interval::around(0.0F, -1.0F), std::invalid_argument);
}

TEST(Interval, Geometry) {
  Interval iv(1.0F, 3.0F);
  EXPECT_FLOAT_EQ(iv.width(), 2.0F);
  EXPECT_FLOAT_EQ(iv.center(), 2.0F);
  EXPECT_FLOAT_EQ(iv.radius(), 1.0F);
}

TEST(Interval, Contains) {
  Interval iv(1.0F, 3.0F);
  EXPECT_TRUE(iv.contains(1.0F));
  EXPECT_TRUE(iv.contains(3.0F));
  EXPECT_TRUE(iv.contains(2.0F));
  EXPECT_FALSE(iv.contains(0.999F));
  EXPECT_TRUE(iv.contains(Interval(1.5F, 2.5F)));
  EXPECT_FALSE(iv.contains(Interval(0.5F, 2.5F)));
}

TEST(Interval, Hull) {
  Interval h = Interval(1.0F, 2.0F).hull(Interval(3.0F, 4.0F));
  EXPECT_EQ(h.lo, 1.0F);
  EXPECT_EQ(h.hi, 4.0F);
}

TEST(Interval, Addition) {
  Interval s = Interval(1, 2) + Interval(10, 20);
  EXPECT_EQ(s.lo, 11.0F);
  EXPECT_EQ(s.hi, 22.0F);
}

TEST(Interval, Subtraction) {
  Interval d = Interval(1, 2) - Interval(10, 20);
  EXPECT_EQ(d.lo, -19.0F);
  EXPECT_EQ(d.hi, -8.0F);
}

TEST(Interval, MultiplicationMixedSigns) {
  Interval p = Interval(-2, 3) * Interval(-1, 4);
  EXPECT_EQ(p.lo, -8.0F);  // -2 * 4
  EXPECT_EQ(p.hi, 12.0F);  // 3 * 4
}

TEST(Interval, ScaledNegative) {
  Interval s = Interval(1, 2).scaled(-3.0F);
  EXPECT_EQ(s.lo, -6.0F);
  EXPECT_EQ(s.hi, -3.0F);
}

TEST(Interval, MonotoneTransfers) {
  const Interval iv(-1.0F, 1.0F);
  const Interval s = iv.sigmoid();
  EXPECT_NEAR(s.lo, 1.0F / (1.0F + std::exp(1.0F)), 1e-5F);
  EXPECT_NEAR(s.hi, 1.0F / (1.0F + std::exp(-1.0F)), 1e-5F);
  const Interval t = iv.tanh_();
  EXPECT_NEAR(t.lo, std::tanh(-1.0F), 1e-5F);
  EXPECT_NEAR(t.hi, std::tanh(1.0F), 1e-5F);
}

// Property: interval arithmetic is sound — f(x) op g(y) lies inside
// IV(f) op IV(g) for sampled points. Parameterised over seeds.
class IntervalSoundness : public ::testing::TestWithParam<int> {};

TEST_P(IntervalSoundness, ArithmeticContainsSampledValues) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    const float a1 = rng.uniform_f(-5, 5), a2 = rng.uniform_f(-5, 5);
    const float b1 = rng.uniform_f(-5, 5), b2 = rng.uniform_f(-5, 5);
    const Interval ia(std::min(a1, a2), std::max(a1, a2));
    const Interval ib(std::min(b1, b2), std::max(b1, b2));
    const float x = rng.uniform_f(ia.lo, ia.hi);
    const float y = rng.uniform_f(ib.lo, ib.hi);
    EXPECT_TRUE((ia + ib).contains(x + y));
    EXPECT_TRUE((ia - ib).contains(x - y));
    EXPECT_TRUE((ia * ib).contains(x * y));
    EXPECT_TRUE(ia.scaled(2.5F).contains(2.5F * x));
    EXPECT_TRUE(ia.scaled(-1.5F).contains(-1.5F * x));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalSoundness,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(IntervalVector, PointAndBall) {
  const std::vector<float> v{1.0F, -2.0F};
  auto p = IntervalVector::from_point(v);
  EXPECT_EQ(p.size(), 2U);
  EXPECT_EQ(p[0].lo, 1.0F);
  EXPECT_EQ(p[0].hi, 1.0F);
  auto b = IntervalVector::linf_ball(v, 0.5F);
  EXPECT_FLOAT_EQ(b[1].lo, -2.5F);
  EXPECT_FLOAT_EQ(b[1].hi, -1.5F);
  EXPECT_THROW(IntervalVector::linf_ball(v, -0.1F), std::invalid_argument);
}

TEST(IntervalVector, Contains) {
  auto b = IntervalVector::linf_ball(std::vector<float>{0.0F, 0.0F}, 1.0F);
  EXPECT_TRUE(b.contains(std::vector<float>{0.5F, -1.0F}));
  EXPECT_FALSE(b.contains(std::vector<float>{1.5F, 0.0F}));
  EXPECT_FALSE(b.contains(std::vector<float>{0.0F}));  // wrong dim
}

TEST(IntervalVector, HullAndWidths) {
  IntervalVector a(std::vector<Interval>{Interval(0, 1), Interval(0, 2)});
  IntervalVector b(std::vector<Interval>{Interval(-1, 0), Interval(1, 3)});
  auto h = a.hull(b);
  EXPECT_EQ(h[0].lo, -1.0F);
  EXPECT_EQ(h[1].hi, 3.0F);
  EXPECT_FLOAT_EQ(a.max_width(), 2.0F);
  EXPECT_FLOAT_EQ(a.total_width(), 3.0F);
}

TEST(IntervalVector, LowersUppersCenters) {
  IntervalVector a(std::vector<Interval>{Interval(0, 2), Interval(-4, 4)});
  EXPECT_EQ(a.lowers(), (std::vector<float>{0.0F, -4.0F}));
  EXPECT_EQ(a.uppers(), (std::vector<float>{2.0F, 4.0F}));
  EXPECT_EQ(a.centers(), (std::vector<float>{1.0F, 0.0F}));
}

}  // namespace
}  // namespace ranm
