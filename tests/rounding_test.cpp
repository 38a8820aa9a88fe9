// Pins the outward-rounding primitives round_down/round_up that every
// bound backend relies on at the double -> float narrowing: one-ulp
// stepping in the normal range, saturation at extreme magnitudes (where a
// bare float cast would be undefined behaviour), subnormals, and ±0.
// Soundness invariant: round_down(v) <= v <= round_up(v) for every double.
// The primitives are integer selects on the float's bits; the Oracle cases
// pin them bit for bit to the clamp-then-std::nextafter definition they
// replace, kept below as the oracle.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "absint/interval.hpp"
#include "util/rng.hpp"

namespace ranm {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kFloatMax = std::numeric_limits<float>::max();
constexpr float kTrueMin = std::numeric_limits<float>::denorm_min();

/// The definition the bit-select primitives must reproduce: clamp to
/// ±FLT_MAX, narrow, then step one ulp outward with std::nextafter.
float oracle_narrow(double v) {
  constexpr double kMax = kFloatMax;
  return v > kMax ? kFloatMax : v < -kMax ? -kFloatMax : static_cast<float>(v);
}
float oracle_down(double v) { return std::nextafter(oracle_narrow(v), -kInf); }
float oracle_up(double v) { return std::nextafter(oracle_narrow(v), kInf); }

/// Bitwise agreement with the oracle on one input (NaN must stay NaN; its
/// payload is not pinned). Returns false and records a failure otherwise.
bool matches_oracle(double v) {
  const float down = round_down(v);
  const float up = round_up(v);
  if (std::isnan(v)) {
    EXPECT_TRUE(std::isnan(down) && std::isnan(up)) << "NaN input";
    return std::isnan(down) && std::isnan(up);
  }
  const bool ok =
      std::bit_cast<std::uint32_t>(down) ==
          std::bit_cast<std::uint32_t>(oracle_down(v)) &&
      std::bit_cast<std::uint32_t>(up) ==
          std::bit_cast<std::uint32_t>(oracle_up(v));
  EXPECT_TRUE(ok) << "v = " << v << " (bits 0x" << std::hex
                  << std::bit_cast<std::uint64_t>(v) << ")";
  return ok;
}

TEST(Rounding, StepsOneUlpInNormalRange) {
  EXPECT_EQ(round_down(1.0), std::nextafter(1.0F, -kInf));
  EXPECT_EQ(round_up(1.0), std::nextafter(1.0F, kInf));
  EXPECT_EQ(round_down(-3.5), std::nextafter(-3.5F, -kInf));
  EXPECT_EQ(round_up(-3.5), std::nextafter(-3.5F, kInf));
  // A double strictly between two floats: the cast rounds to nearest and
  // the step moves outward from there.
  const double between = 1.0 + 1e-9;  // rounds to 1.0f
  EXPECT_LE(double(round_down(between)), between);
  EXPECT_GE(double(round_up(between)), between);
}

TEST(Rounding, SignedZero) {
  // Both zeros step to the adjacent subnormal: a zero bound widens by one
  // denormal ulp rather than staying exact.
  EXPECT_EQ(round_down(0.0), -kTrueMin);
  EXPECT_EQ(round_down(-0.0), -kTrueMin);
  EXPECT_EQ(round_up(0.0), kTrueMin);
  EXPECT_EQ(round_up(-0.0), kTrueMin);
}

TEST(Rounding, Subnormals) {
  // 0.6 * FLT_TRUE_MIN casts (round-to-nearest) to FLT_TRUE_MIN; the
  // outward step keeps each bound on the sound side of the true value.
  const double tiny = 0.6 * double(kTrueMin);
  EXPECT_EQ(round_down(tiny), 0.0F);
  EXPECT_EQ(round_up(tiny), 2.0F * kTrueMin);
  EXPECT_EQ(round_down(double(kTrueMin)), 0.0F);
  EXPECT_EQ(round_down(-double(kTrueMin)), -2.0F * kTrueMin);
  EXPECT_EQ(round_up(-double(kTrueMin)), -0.0F);
  // Largest subnormal boundary.
  const double min_normal = double(std::numeric_limits<float>::min());
  EXPECT_LT(round_down(min_normal), std::numeric_limits<float>::min());
  EXPECT_TRUE(std::isfinite(round_down(min_normal)));
}

TEST(Rounding, ExtremeMagnitudesSaturate) {
  // Beyond float range the cast would be UB; the primitives clamp to
  // ±FLT_MAX and still take the unconditional one-ulp outward step, so
  // the double-accumulation cushion survives saturation (a double just
  // past FLT_MAX may stand for a true value just below it).
  const float below_max = std::nextafter(kFloatMax, -kInf);
  const float above_neg_max = std::nextafter(-kFloatMax, kInf);
  EXPECT_EQ(round_down(1e300), below_max);
  EXPECT_EQ(round_up(1e300), kInf);
  EXPECT_EQ(round_down(-1e300), -kInf);
  EXPECT_EQ(round_up(-1e300), above_neg_max);
  EXPECT_EQ(round_down(std::numeric_limits<double>::max()), below_max);
  EXPECT_EQ(round_up(-std::numeric_limits<double>::max()), above_neg_max);
  // Infinities stay on the sound side too.
  EXPECT_EQ(round_down(double(kInf)), below_max);
  EXPECT_EQ(round_up(double(kInf)), kInf);
  EXPECT_EQ(round_down(-double(kInf)), -kInf);
  EXPECT_EQ(round_up(-double(kInf)), above_neg_max);
  // Exactly FLT_MAX is representable: normal one-ulp stepping applies.
  EXPECT_EQ(round_down(double(kFloatMax)), std::nextafter(kFloatMax, -kInf));
  EXPECT_EQ(round_up(double(kFloatMax)), kInf);
  EXPECT_EQ(round_down(-double(kFloatMax)), -kInf);
}

TEST(Rounding, NanPropagates) {
  EXPECT_TRUE(std::isnan(round_down(std::nan(""))));
  EXPECT_TRUE(std::isnan(round_up(std::nan(""))));
}

TEST(Rounding, SoundnessPropertyRandomized) {
  Rng rng(2024);
  for (int trial = 0; trial < 20000; ++trial) {
    // Log-uniform magnitude sweep covering subnormals through overflow.
    const double exponent = double(rng.uniform_f(-320.0F, 320.0F));
    const double sign = rng.uniform_f(0.0F, 1.0F) < 0.5F ? -1.0 : 1.0;
    const double mantissa = 1.0 + double(rng.uniform_f(0.0F, 1.0F));
    const double v = sign * mantissa * std::pow(10.0, exponent);
    EXPECT_LE(double(round_down(v)), v) << "v = " << v;
    EXPECT_GE(double(round_up(v)), v) << "v = " << v;
  }
}

TEST(Rounding, OracleSpecialValues) {
  constexpr double kDoubleMax = std::numeric_limits<double>::max();
  const double max = kFloatMax;
  const double min_normal = std::numeric_limits<float>::min();
  const double specials[] = {
      0.0, -0.0, double(kTrueMin), -double(kTrueMin), 0.5 * kTrueMin,
      -0.5 * kTrueMin, 0.6 * kTrueMin, -0.6 * kTrueMin, min_normal,
      -min_normal, std::nextafter(min_normal, 0.0),
      std::nextafter(-min_normal, 0.0), 1.0, -1.0, max, -max,
      std::nextafter(max, kDoubleMax), std::nextafter(-max, -kDoubleMax),
      std::nextafter(max, 0.0), std::nextafter(-max, 0.0),
      // Halfway to the next binade above FLT_MAX, and either side of it:
      // where narrowing switches between FLT_MAX and infinity.
      max + std::ldexp(1.0, 103),
      std::nextafter(max + std::ldexp(1.0, 103), 0.0),
      -(max + std::ldexp(1.0, 103)), 1e39, -1e39, kDoubleMax, -kDoubleMax,
      double(kInf), -double(kInf), std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN()};
  for (const double v : specials) matches_oracle(v);
}

TEST(Rounding, OracleStridedFloatPatternsAndNeighbours) {
  // Every 251st float bit pattern (both signs, every exponent, subnormals,
  // infinities and NaNs), each as a double and as its two double
  // neighbours, which sit just inside and just outside the float.
  constexpr std::uint64_t kStride = 251;
  std::size_t mismatches = 0;
  for (std::uint64_t bits = 0; bits <= 0xffffffffULL; bits += kStride) {
    const double v = std::bit_cast<float>(static_cast<std::uint32_t>(bits));
    const double neighbours[] = {
        v, std::nextafter(v, -std::numeric_limits<double>::infinity()),
        std::nextafter(v, std::numeric_limits<double>::infinity())};
    for (const double x : neighbours) {
      if (!matches_oracle(x) && ++mismatches > 10) FAIL() << "stopping";
    }
  }
}

TEST(Rounding, OracleRandomDoubles) {
  // Random bit patterns cover every double exponent; uniform magnitudes
  // in the float range cover the values the kernels actually narrow.
  Rng rng(17);
  std::size_t mismatches = 0;
  for (int trial = 0; trial < 2'000'000; ++trial) {
    const double any = std::bit_cast<double>(rng.next_u64());
    const double in_range = rng.uniform(-1.0, 1.0) *
                            std::ldexp(1.0, int(rng.below(260)) - 150);
    if ((!matches_oracle(any) || !matches_oracle(in_range)) &&
        ++mismatches > 10) {
      FAIL() << "stopping";
    }
  }
}

TEST(Rounding, IntervalAroundStaysOrdered) {
  // The ball constructors feed these primitives downstream; a degenerate
  // radius must still produce an ordered interval after outward rounding.
  const Interval iv = Interval::make_unchecked(round_down(0.25 - 0.0),
                                               round_up(0.25 + 0.0));
  EXPECT_LE(iv.lo, 0.25F);
  EXPECT_GE(iv.hi, 0.25F);
  EXPECT_FALSE(iv.is_empty());
}

}  // namespace
}  // namespace ranm
