#include "core/threshold_spec.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "core/neuron_stats.hpp"

namespace ranm {
namespace {

TEST(ThresholdSpec, OnOffStrictGreater) {
  // Paper §III-A: b_j = 1 iff v_j > c_j (equality maps to 0).
  const auto spec = ThresholdSpec::onoff(std::vector<float>{0.0F, 1.0F});
  EXPECT_EQ(spec.bits(), 1U);
  EXPECT_EQ(spec.dimension(), 2U);
  EXPECT_EQ(spec.num_codes(), 2U);
  EXPECT_EQ(spec.code(0, 0.1F), 1U);
  EXPECT_EQ(spec.code(0, 0.0F), 0U);
  EXPECT_EQ(spec.code(0, -0.1F), 0U);
  EXPECT_EQ(spec.code(1, 1.0F), 0U);
  EXPECT_EQ(spec.code(1, 1.001F), 1U);
}

TEST(ThresholdSpec, PaperTwoBitBucketBoundaries) {
  // Paper §III-C: b=11 if v>c3; 10 if c3>=v>=c2; 01 if c2>v>c1; 00 if v<=c1.
  const std::vector<float> c1{1.0F}, c2{2.0F}, c3{3.0F};
  const auto spec = ThresholdSpec::paper_two_bit(c1, c2, c3);
  EXPECT_EQ(spec.bits(), 2U);
  EXPECT_EQ(spec.code(0, 0.5F), 0U);   // v < c1
  EXPECT_EQ(spec.code(0, 1.0F), 0U);   // v == c1 -> 00 ("otherwise")
  EXPECT_EQ(spec.code(0, 1.5F), 1U);   // c1 < v < c2 -> 01
  EXPECT_EQ(spec.code(0, 2.0F), 2U);   // v == c2 -> 10 (c3 >= v >= c2)
  EXPECT_EQ(spec.code(0, 2.5F), 2U);
  EXPECT_EQ(spec.code(0, 3.0F), 2U);   // v == c3 -> 10
  EXPECT_EQ(spec.code(0, 3.1F), 3U);   // v > c3 -> 11
}

TEST(ThresholdSpec, CodeRangeMonotoneContiguous) {
  const std::vector<float> c1{1.0F}, c2{2.0F}, c3{3.0F};
  const auto spec = ThresholdSpec::paper_two_bit(c1, c2, c3);
  // All the paper's robust cases from §III-C.2:
  EXPECT_EQ(spec.code_range(0, 3.5F, 4.0F), (std::pair<std::uint64_t,
            std::uint64_t>{3, 3}));              // {11}
  EXPECT_EQ(spec.code_range(0, 2.0F, 3.0F), (std::pair<std::uint64_t,
            std::uint64_t>{2, 2}));              // {10}
  EXPECT_EQ(spec.code_range(0, 1.2F, 1.8F), (std::pair<std::uint64_t,
            std::uint64_t>{1, 1}));              // {01}
  EXPECT_EQ(spec.code_range(0, 0.0F, 1.0F), (std::pair<std::uint64_t,
            std::uint64_t>{0, 0}));              // {00}
  EXPECT_EQ(spec.code_range(0, 0.5F, 1.5F), (std::pair<std::uint64_t,
            std::uint64_t>{0, 1}));              // {00, 01}
  EXPECT_EQ(spec.code_range(0, 1.5F, 2.5F), (std::pair<std::uint64_t,
            std::uint64_t>{1, 2}));              // {01, 10}
  EXPECT_EQ(spec.code_range(0, 2.5F, 3.5F), (std::pair<std::uint64_t,
            std::uint64_t>{2, 3}));              // {10, 11}
  EXPECT_EQ(spec.code_range(0, 0.5F, 2.5F), (std::pair<std::uint64_t,
            std::uint64_t>{0, 2}));              // {00, 01, 10}
  EXPECT_EQ(spec.code_range(0, 1.5F, 3.5F), (std::pair<std::uint64_t,
            std::uint64_t>{1, 3}));              // {01, 10, 11}
  EXPECT_EQ(spec.code_range(0, 0.5F, 3.5F), (std::pair<std::uint64_t,
            std::uint64_t>{0, 3}));              // all four
  EXPECT_THROW((void)spec.code_range(0, 2.0F, 1.0F), std::invalid_argument);
}

TEST(ThresholdSpec, FromMinMaxFootnote3) {
  // Footnote 3: c3 = max, c2 = min, c1 = -inf. Code 2 <=> in [min, max].
  const std::vector<float> mins{-1.0F}, maxs{2.0F};
  const auto spec = ThresholdSpec::from_minmax(mins, maxs);
  EXPECT_EQ(spec.code(0, -1.0F), 2U);  // v == min stays inside
  EXPECT_EQ(spec.code(0, 2.0F), 2U);   // v == max stays inside
  EXPECT_EQ(spec.code(0, 0.0F), 2U);
  EXPECT_EQ(spec.code(0, -1.5F), 1U);  // below min
  EXPECT_EQ(spec.code(0, 2.5F), 3U);   // above max
  // No value can reach code 0 (c1 = -inf).
  EXPECT_EQ(spec.code(0, -std::numeric_limits<float>::max()), 1U);
}

TEST(ThresholdSpec, FromMinMaxDegenerateNeuron) {
  // A constant neuron (min == max) must still produce a valid spec.
  const std::vector<float> mins{1.0F}, maxs{1.0F};
  const auto spec = ThresholdSpec::from_minmax(mins, maxs);
  EXPECT_EQ(spec.code(0, 1.0F), 2U);
  EXPECT_EQ(spec.code(0, 0.9F), 1U);
}

TEST(ThresholdSpec, ValidatesConstruction) {
  EXPECT_THROW(ThresholdSpec(0, {0.0F}, {1}), std::invalid_argument);
  EXPECT_THROW(ThresholdSpec(17, {0.0F}, {1}), std::invalid_argument);
  EXPECT_THROW(ThresholdSpec(1, {}, {}), std::invalid_argument);
  // Wrong threshold count for 2 bits.
  EXPECT_THROW(ThresholdSpec(2, {0.0F}, {1}), std::invalid_argument);
  // One flag per value.
  EXPECT_THROW(ThresholdSpec(1, {0.0F, 1.0F}, {1}), std::invalid_argument);
  // Non-ascending, and NaN, which orders nowhere.
  EXPECT_THROW(ThresholdSpec(2, {1.0F, 1.0F, 2.0F}, {1, 1, 1}),
               std::invalid_argument);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_THROW(ThresholdSpec(1, {nan}, {1}), std::invalid_argument);
  EXPECT_THROW(ThresholdSpec(2, {0.0F, nan, 2.0F}, {1, 1, 1}),
               std::invalid_argument);
  // Flags are 0 or 1: any other byte would read as inclusive to one
  // coder and exclusive to another.
  EXPECT_THROW(ThresholdSpec(1, {0.0F}, {2}), std::invalid_argument);
  // +-inf are ordinary extremes; the next neuron starts a fresh run.
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_NO_THROW(ThresholdSpec(2, {-inf, 0.0F, inf, -1.0F, 0.0F, 1.0F},
                                {0, 1, 0, 1, 0, 1}));
}

TEST(ThresholdSpec, FromPercentilesEqualMass) {
  NeuronStats stats(1, true);
  for (int i = 0; i <= 100; ++i) stats.add(std::vector<float>{float(i)});
  const auto spec = ThresholdSpec::from_percentiles(stats, 2);
  // Thresholds at the 25/50/75 percentiles split codes evenly.
  EXPECT_EQ(spec.code(0, 10.0F), 0U);
  EXPECT_EQ(spec.code(0, 30.0F), 1U);
  EXPECT_EQ(spec.code(0, 60.0F), 2U);
  EXPECT_EQ(spec.code(0, 90.0F), 3U);
}

TEST(ThresholdSpec, FromPercentilesHandlesConstantNeuron) {
  NeuronStats stats(1, true);
  for (int i = 0; i < 10; ++i) stats.add(std::vector<float>{1.0F});
  // Repeated values force nextafter-based tie-breaking; must not throw.
  const auto spec = ThresholdSpec::from_percentiles(stats, 2);
  EXPECT_EQ(spec.values().size(), 3U);
}

TEST(ThresholdSpec, FromMeans) {
  NeuronStats stats(2);
  stats.add(std::vector<float>{0.0F, 10.0F});
  stats.add(std::vector<float>{2.0F, 20.0F});
  const auto spec = ThresholdSpec::from_means(stats);
  EXPECT_EQ(spec.bits(), 1U);
  EXPECT_EQ(spec.code(0, 1.5F), 1U);  // > mean 1.0
  EXPECT_EQ(spec.code(1, 14.0F), 0U);  // <= mean 15.0
}

TEST(ThresholdSpec, ThresholdsAccessor) {
  const auto spec = ThresholdSpec::paper_two_bit(
      std::vector<float>{0.5F}, std::vector<float>{1.0F},
      std::vector<float>{1.5F});
  EXPECT_EQ(spec.thresholds_per_neuron(), 3U);
  ASSERT_EQ(spec.values().size(), 3U);
  EXPECT_FLOAT_EQ(spec.values()[0], 0.5F);
  EXPECT_FLOAT_EQ(spec.values()[2], 1.5F);
  EXPECT_EQ(spec.inclusive()[0], 1U);
  EXPECT_EQ(spec.inclusive()[1], 0U);
  EXPECT_EQ(spec.inclusive()[2], 1U);
  EXPECT_THROW((void)spec.subset(std::vector<std::uint32_t>{1}),
               std::out_of_range);
}

TEST(ThresholdSpec, ThreeBitCodes) {
  // 3 bits => 7 thresholds => 8 codes.
  const ThresholdSpec spec(3, {1.0F, 2.0F, 3.0F, 4.0F, 5.0F, 6.0F, 7.0F},
                           std::vector<std::uint8_t>(7, 1));
  EXPECT_EQ(spec.num_codes(), 8U);
  EXPECT_EQ(spec.code(0, 0.5F), 0U);
  EXPECT_EQ(spec.code(0, 4.5F), 4U);
  EXPECT_EQ(spec.code(0, 7.5F), 7U);
}

}  // namespace
}  // namespace ranm
