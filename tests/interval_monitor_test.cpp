#include "core/interval_monitor.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "core/minmax_monitor.hpp"
#include "core/monitor_dot.hpp"
#include "core/neuron_stats.hpp"
#include "core/sharded_monitor.hpp"
#include "io/serialize.hpp"
#include "util/rng.hpp"

namespace ranm {
namespace {

ThresholdSpec two_bit(std::size_t dim) {
  return ThresholdSpec::paper_two_bit(std::vector<float>(dim, -1.0F),
                                      std::vector<float>(dim, 0.0F),
                                      std::vector<float>(dim, 1.0F));
}

TEST(IntervalMonitor, EmptyWarnsAlways) {
  IntervalMonitor m(two_bit(2));
  EXPECT_TRUE(m.warn(std::vector<float>{0.0F, 0.0F}));
  EXPECT_DOUBLE_EQ(m.pattern_count(), 0.0);
}

TEST(IntervalMonitor, ObservedCodeWordAccepted) {
  IntervalMonitor m(two_bit(2));
  m.observe(std::vector<float>{0.5F, -2.0F});  // codes (2, 0)
  EXPECT_EQ(m.codes(std::vector<float>{0.5F, -2.0F}),
            (std::vector<std::uint64_t>{2, 0}));
  // Same codes, different values: accepted.
  EXPECT_FALSE(m.warn(std::vector<float>{0.9F, -1.5F}));
  // Different code in one neuron: warned.
  EXPECT_TRUE(m.warn(std::vector<float>{2.0F, -2.0F}));
  EXPECT_DOUBLE_EQ(m.pattern_count(), 1.0);
}

TEST(IntervalMonitor, RobustRangeInsertion) {
  IntervalMonitor m(two_bit(1));
  // Bound [-0.5, 0.5] straddles codes 1 and 2.
  m.observe_bounds(std::vector<float>{-0.5F}, std::vector<float>{0.5F});
  EXPECT_FALSE(m.warn(std::vector<float>{-0.5F}));  // code 1
  EXPECT_FALSE(m.warn(std::vector<float>{0.5F}));   // code 2
  EXPECT_TRUE(m.warn(std::vector<float>{-1.5F}));   // code 0
  EXPECT_TRUE(m.warn(std::vector<float>{1.5F}));    // code 3
  EXPECT_DOUBLE_EQ(m.pattern_count(), 2.0);
}

TEST(IntervalMonitor, RobustMultiNeuronProduct) {
  IntervalMonitor m(two_bit(2));
  // Neuron 0 straddles {1,2}; neuron 1 fixed to {3}. Product = 2 words.
  m.observe_bounds(std::vector<float>{-0.5F, 2.0F},
                   std::vector<float>{0.5F, 3.0F});
  EXPECT_DOUBLE_EQ(m.pattern_count(), 2.0);
  EXPECT_FALSE(m.warn(std::vector<float>{-0.2F, 5.0F}));
  EXPECT_FALSE(m.warn(std::vector<float>{0.2F, 5.0F}));
  EXPECT_TRUE(m.warn(std::vector<float>{0.2F, 0.5F}));
}

TEST(IntervalMonitor, RobustSupersetOfStandard) {
  Rng rng(11);
  IntervalMonitor standard(two_bit(4)), robust(two_bit(4));
  std::vector<std::vector<float>> features;
  for (int i = 0; i < 60; ++i) {
    std::vector<float> v(4), lo(4), hi(4);
    for (int j = 0; j < 4; ++j) {
      v[j] = rng.uniform_f(-2, 2);
      lo[j] = v[j] - 0.3F;
      hi[j] = v[j] + 0.3F;
    }
    standard.observe(v);
    robust.observe_bounds(lo, hi);
    features.push_back(std::move(v));
  }
  for (const auto& v : features) EXPECT_FALSE(robust.warn(v));
  EXPECT_GE(robust.pattern_count(), standard.pattern_count());
}

TEST(IntervalMonitor, GeneralisesMinMaxMonitor) {
  // Footnote 3: with c3 = max, c2 = min, c1 = -inf the 2-bit interval
  // monitor that observed the training data equals the min-max monitor.
  Rng rng(12);
  const std::size_t d = 3;
  std::vector<std::vector<float>> data;
  MinMaxMonitor mm(d);
  for (int i = 0; i < 30; ++i) {
    std::vector<float> v(d);
    for (std::size_t j = 0; j < d; ++j) v[j] = rng.uniform_f(-3, 3);
    mm.observe(v);
    data.push_back(std::move(v));
  }
  std::vector<float> mins(d), maxs(d);
  for (std::size_t j = 0; j < d; ++j) {
    mins[j] = mm.lower(j);
    maxs[j] = mm.upper(j);
  }
  IntervalMonitor im(ThresholdSpec::from_minmax(mins, maxs));
  for (const auto& v : data) im.observe(v);

  // Both monitors agree on a probe grid, including boundary values.
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<float> probe(d);
    for (std::size_t j = 0; j < d; ++j) probe[j] = rng.uniform_f(-4, 4);
    EXPECT_EQ(im.warn(probe), mm.warn(probe)) << "trial " << trial;
  }
  for (std::size_t j = 0; j < d; ++j) {
    std::vector<float> probe(d, 0.0F);
    probe[j] = mins[j];
    EXPECT_EQ(im.warn(probe), mm.warn(probe));
    probe[j] = maxs[j];
    EXPECT_EQ(im.warn(probe), mm.warn(probe));
  }
}

TEST(IntervalMonitor, GeneralisesOnOffMonitor) {
  // Footnote 3 second half: c3 = +inf-ish, c1 = -inf-ish reduces the 2-bit
  // monitor to the on-off monitor with threshold c2. We emulate with very
  // large sentinels (inf itself breaks strict ordering of +-inf pairs).
  Rng rng(13);
  const std::size_t d = 4;
  const float big = 1e30F;
  auto spec2 = ThresholdSpec::paper_two_bit(std::vector<float>(d, -big),
                                            std::vector<float>(d, 0.0F),
                                            std::vector<float>(d, big));
  IntervalMonitor im(std::move(spec2));
  IntervalMonitor om(ThresholdSpec::onoff(std::vector<float>(d, 0.0F)));
  // NOTE: on-off uses v > c; the 2-bit bucket [c2, c3] uses v >= c2, so
  // agreement holds for values != 0, which random floats are a.s.
  std::vector<std::vector<float>> data;
  for (int i = 0; i < 40; ++i) {
    std::vector<float> v(d);
    for (std::size_t j = 0; j < d; ++j) v[j] = rng.uniform_f(-2, 2);
    im.observe(v);
    om.observe(v);
    data.push_back(std::move(v));
  }
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<float> probe(d);
    for (std::size_t j = 0; j < d; ++j) probe[j] = rng.uniform_f(-3, 3);
    EXPECT_EQ(im.warn(probe), om.warn(probe));
  }
}

TEST(IntervalMonitor, ThreeBitFinerThanOneBit) {
  // More bits => finer abstraction => more warnings (or equal) on a fixed
  // probe set, given the same observed data.
  Rng rng(14);
  const std::size_t d = 3;
  NeuronStats stats(d, true);
  std::vector<std::vector<float>> data;
  for (int i = 0; i < 50; ++i) {
    std::vector<float> v(d);
    for (std::size_t j = 0; j < d; ++j) v[j] = rng.uniform_f(-1, 1);
    stats.add(v);
    data.push_back(std::move(v));
  }
  IntervalMonitor coarse(ThresholdSpec::from_percentiles(stats, 1));
  IntervalMonitor fine(ThresholdSpec::from_percentiles(stats, 3));
  for (const auto& v : data) {
    coarse.observe(v);
    fine.observe(v);
  }
  int coarse_warn = 0, fine_warn = 0;
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<float> probe(d);
    for (std::size_t j = 0; j < d; ++j) probe[j] = rng.uniform_f(-2, 2);
    // Any probe accepted by the fine monitor maps to a visited fine code
    // word, whose coarse projection was also visited.
    if (!fine.warn(probe)) {
      EXPECT_FALSE(coarse.warn(probe));
    }
    coarse_warn += coarse.warn(probe);
    fine_warn += fine.warn(probe);
  }
  EXPECT_GE(fine_warn, coarse_warn);
}

TEST(IntervalMonitor, BddStaysSmallWithWideBounds) {
  // A very uncertain bound (all codes possible) inserts TRUE-like
  // structure, not an exponential union.
  const std::size_t d = 64;
  IntervalMonitor m(two_bit(d));
  m.observe_bounds(std::vector<float>(d, -10.0F),
                   std::vector<float>(d, 10.0F));
  EXPECT_LE(m.bdd_node_count(), 4U);
  EXPECT_FALSE(m.warn(std::vector<float>(d, 0.5F)));
}

TEST(IntervalMonitor, DimensionValidation) {
  IntervalMonitor m(two_bit(2));
  EXPECT_THROW(m.observe(std::vector<float>{1.0F}), std::invalid_argument);
  EXPECT_THROW(m.observe_bounds(std::vector<float>{0.0F, 0.0F},
                                std::vector<float>{0.0F}),
               std::invalid_argument);
  EXPECT_THROW((void)m.codes(std::vector<float>{1.0F}),
               std::invalid_argument);
}

TEST(IntervalMonitor, HammingDistanceCountsBitFlips) {
  IntervalMonitor m(two_bit(2));
  m.observe(std::vector<float>{0.5F, 0.5F});  // codes (2, 2) = bits 10 10
  // Same codes: distance 0.
  EXPECT_EQ(m.hamming_distance(std::vector<float>{0.9F, 0.1F}, 4),
            std::optional<unsigned>(0));
  // Neuron 0 at code 3 (11): one bit differs from 10.
  EXPECT_EQ(m.hamming_distance(std::vector<float>{2.0F, 0.5F}, 4),
            std::optional<unsigned>(1));
  // Neuron 0 at code 1 (01): two bits differ from 10.
  EXPECT_EQ(m.hamming_distance(std::vector<float>{-0.5F, 0.5F}, 4),
            std::optional<unsigned>(2));
  // Cap respected.
  EXPECT_EQ(m.hamming_distance(std::vector<float>{-0.5F, 0.5F}, 1),
            std::nullopt);
  // Empty monitor.
  IntervalMonitor empty(two_bit(2));
  EXPECT_EQ(empty.hamming_distance(std::vector<float>{0.0F, 0.0F}, 4),
            std::nullopt);
  EXPECT_THROW((void)m.hamming_distance(std::vector<float>{0.0F}, 4),
               std::invalid_argument);
}

TEST(IntervalMonitor, HammingDistanceZeroIffContained) {
  Rng rng(19);
  IntervalMonitor m(two_bit(3));
  for (int i = 0; i < 20; ++i) {
    std::vector<float> v(3);
    for (auto& x : v) x = rng.uniform_f(-2, 2);
    m.observe(v);
  }
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<float> probe(3);
    for (auto& x : probe) x = rng.uniform_f(-2, 2);
    const auto d = m.hamming_distance(probe, 6);
    EXPECT_EQ(d.has_value() && *d == 0, m.contains(probe));
  }
}

TEST(IntervalMonitor, DescribeMentionsBits) {
  IntervalMonitor m(two_bit(2));
  EXPECT_NE(m.describe().find("bits=2"), std::string::npos);
}

// The on-off monitor (paper §III-A) is the 1-bit IntervalMonitor. Its
// cases keep the OnOffMonitor suite name so their test ids stay stable.
IntervalMonitor sign_monitor(std::size_t dim) {
  return IntervalMonitor(ThresholdSpec::onoff(std::vector<float>(dim, 0.0F)));
}

TEST(OnOffMonitor, RequiresOneBitSpec) {
  // An artifact under the on-off tag must carry a 1-bit spec: a 2-bit
  // interval artifact relabelled with that tag is refused, and its 1-bit
  // counterpart loads.
  IntervalMonitor two(ThresholdSpec::paper_two_bit(
      std::vector<float>{0.0F}, std::vector<float>{1.0F},
      std::vector<float>{2.0F}));
  std::stringstream two_bytes;
  save_monitor(two_bytes, two);
  std::string relabelled = two_bytes.str();
  relabelled[4] = 2;  // the tag word after the magic: MonitorTag::kOnOff
  std::istringstream any_in(relabelled);
  try {
    (void)load_any_monitor(any_in);
    ADD_FAILURE() << "2-bit spec loaded under the on-off tag";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("multi-bit"), std::string::npos)
        << e.what();
  }
  std::istringstream interval_in(relabelled);
  EXPECT_THROW((void)load_interval_monitor(interval_in), std::runtime_error);

  std::stringstream one_bytes;
  save_monitor(one_bytes, sign_monitor(1));
  EXPECT_EQ(one_bytes.str()[4], 2);
  EXPECT_NO_THROW((void)load_any_monitor(one_bytes));
}

TEST(OnOffMonitor, EmptySetWarnsAlways) {
  auto m = sign_monitor(3);
  EXPECT_TRUE(m.warn(std::vector<float>{1.0F, 1.0F, 1.0F}));
  EXPECT_DOUBLE_EQ(m.pattern_count(), 0.0);
}

TEST(OnOffMonitor, ObservedPatternAccepted) {
  auto m = sign_monitor(3);
  m.observe(std::vector<float>{1.0F, -1.0F, 2.0F});  // pattern 101
  EXPECT_FALSE(m.warn(std::vector<float>{0.5F, -3.0F, 0.1F}));  // same word
  EXPECT_TRUE(m.warn(std::vector<float>{-0.5F, -3.0F, 0.1F}));  // 001
  EXPECT_DOUBLE_EQ(m.pattern_count(), 1.0);
}

TEST(OnOffMonitor, PatternExtraction) {
  auto m = sign_monitor(3);
  const auto p = m.codes(std::vector<float>{1.0F, 0.0F, -2.0F});
  // v > c strictly: 0.0 at threshold 0.0 maps to 0.
  EXPECT_EQ(p, (std::vector<std::uint64_t>{1, 0, 0}));
}

TEST(OnOffMonitor, RobustBoundsInsertDontCares) {
  auto m = sign_monitor(3);
  // Neuron 0 certainly on, neuron 1 certainly off, neuron 2 straddles.
  m.observe_bounds(std::vector<float>{1.0F, -2.0F, -0.5F},
                   std::vector<float>{2.0F, -1.0F, 0.5F});
  // Both resolutions of the don't-care bit are in the set.
  EXPECT_FALSE(m.warn(std::vector<float>{1.5F, -1.5F, 1.0F}));   // 1,0,1
  EXPECT_FALSE(m.warn(std::vector<float>{1.5F, -1.5F, -1.0F}));  // 1,0,0
  EXPECT_TRUE(m.warn(std::vector<float>{-1.0F, -1.5F, 0.0F}));   // 0,0,0
  EXPECT_DOUBLE_EQ(m.pattern_count(), 2.0);
}

TEST(OnOffMonitor, RobustSupersetOfStandard) {
  // abR covers ab: every feature accepted by the standard monitor is
  // accepted by the robust monitor built from enclosing bounds.
  Rng rng(5);
  auto standard = sign_monitor(6);
  auto robust = sign_monitor(6);
  std::vector<std::vector<float>> features;
  for (int i = 0; i < 40; ++i) {
    std::vector<float> v(6), lo(6), hi(6);
    for (int j = 0; j < 6; ++j) {
      v[j] = rng.uniform_f(-1, 1);
      lo[j] = v[j] - 0.2F;
      hi[j] = v[j] + 0.2F;
    }
    standard.observe(v);
    robust.observe_bounds(lo, hi);
    features.push_back(std::move(v));
  }
  for (const auto& v : features) {
    EXPECT_FALSE(robust.warn(v));
  }
  EXPECT_GE(robust.pattern_count(), standard.pattern_count());
}

TEST(OnOffMonitor, Word2SetLinearBddGrowth) {
  // Footnote 2: inserting a word with many don't-cares must stay linear.
  const std::size_t dim = 128;
  auto m = sign_monitor(dim);
  std::vector<float> lo(dim, -1.0F), hi(dim, 1.0F);
  // Constrain only the first 4 neurons; 124 don't-cares.
  for (int j = 0; j < 4; ++j) {
    lo[j] = 0.5F;
    hi[j] = 1.0F;
  }
  m.observe_bounds(lo, hi);
  // 2^124 words stored in a tiny BDD.
  EXPECT_LE(m.bdd_node_count(), 8U);
  EXPECT_GT(m.pattern_count(), 1e30);
}

TEST(OnOffMonitor, HammingEnlargeGrowsSet) {
  auto m = sign_monitor(4);
  m.observe(std::vector<float>{1.0F, 1.0F, 1.0F, 1.0F});  // 1111
  EXPECT_DOUBLE_EQ(m.pattern_count(), 1.0);
  m.enlarge_hamming(1);
  EXPECT_DOUBLE_EQ(m.pattern_count(), 5.0);  // 1111 + 4 flips
  EXPECT_FALSE(m.warn(std::vector<float>{-1.0F, 1.0F, 1.0F, 1.0F}));
  EXPECT_TRUE(m.warn(std::vector<float>{-1.0F, -1.0F, 1.0F, 1.0F}));
}

TEST(OnOffMonitor, HammingEnlargeRadiusTwo) {
  auto m = sign_monitor(4);
  m.observe(std::vector<float>{1.0F, 1.0F, 1.0F, 1.0F});
  m.enlarge_hamming(2);
  // 1 + 4 + 6 = 11 words within distance 2.
  EXPECT_DOUBLE_EQ(m.pattern_count(), 11.0);
}

TEST(OnOffMonitor, HammingDistanceQuantitative) {
  auto m = sign_monitor(4);
  m.observe(std::vector<float>{1.0F, 1.0F, 1.0F, 1.0F});
  const std::vector<float> off1{-1.0F, 1.0F, 1.0F, 1.0F};
  const std::vector<float> off3{-1.0F, -1.0F, -1.0F, 1.0F};
  EXPECT_EQ(m.hamming_distance(std::vector<float>{2.0F, 2.0F, 2.0F, 2.0F}, 4),
            std::optional<unsigned>(0));
  EXPECT_EQ(m.hamming_distance(off1, 4), std::optional<unsigned>(1));
  EXPECT_EQ(m.hamming_distance(off3, 4), std::optional<unsigned>(3));
  EXPECT_EQ(m.hamming_distance(off3, 2), std::nullopt);  // capped
}

TEST(OnOffMonitor, HammingDistanceEmptySet) {
  auto m = sign_monitor(2);
  EXPECT_EQ(m.hamming_distance(std::vector<float>{1.0F, 1.0F}, 2),
            std::nullopt);
}

TEST(IntervalMonitor, EmptyOneBitHammingDistanceChecksDimension) {
  // The dimension check comes before the empty-set answer.
  auto m = sign_monitor(2);
  EXPECT_THROW((void)m.hamming_distance(std::vector<float>{1.0F}, 2),
               std::invalid_argument);
}

TEST(OnOffMonitor, MeanThresholds) {
  // The "average of visited values" strategy from the paper.
  NeuronStats stats(2);
  stats.add(std::vector<float>{0.0F, 10.0F});
  stats.add(std::vector<float>{4.0F, 30.0F});
  IntervalMonitor m(ThresholdSpec::from_means(stats));
  m.observe(std::vector<float>{3.0F, 15.0F});  // pattern (1, 0)
  EXPECT_FALSE(m.warn(std::vector<float>{100.0F, 0.0F}));
  EXPECT_TRUE(m.warn(std::vector<float>{0.0F, 0.0F}));
}

TEST(OnOffMonitor, DimensionValidation) {
  auto m = sign_monitor(2);
  EXPECT_THROW(m.observe(std::vector<float>{1.0F}), std::invalid_argument);
  EXPECT_THROW(m.observe_bounds(std::vector<float>{1.0F},
                                std::vector<float>{1.0F, 2.0F}),
               std::invalid_argument);
  EXPECT_THROW((void)m.contains(std::vector<float>{1.0F, 2.0F, 3.0F}),
               std::invalid_argument);
}

TEST(OnOffMonitor, DescribeMentionsPatterns) {
  auto m = sign_monitor(2);
  m.observe(std::vector<float>{1.0F, 1.0F});
  EXPECT_NE(m.describe().find("patterns="), std::string::npos);
}

TEST(MonitorDot, GoldenTinyMonitor) {
  // One stored pattern (x0 = 1, x1 = 0) gives the two-node BDD
  // x0 AND NOT x1. The rendering is fully deterministic, so the whole
  // string is pinned.
  auto m = sign_monitor(2);
  m.observe(std::vector<float>{1.0F, -1.0F});
  EXPECT_EQ(monitor_to_dot(m),
            "digraph bdd {\n"
            "  n0 [label=\"0\", shape=box];\n"
            "  n1 [label=\"1\", shape=box];\n"
            "  n2 [label=\"x1\"];\n"
            "  n2 -> n1 [style=dashed];\n"
            "  n2 -> n0;\n"
            "  n3 [label=\"x0\"];\n"
            "  n3 -> n0 [style=dashed];\n"
            "  n3 -> n2;\n"
            "}\n");
}

TEST(MonitorDot, ShardedClustersPerShard) {
  const std::size_t dim = 4;
  const ThresholdSpec spec =
      ThresholdSpec::onoff(std::vector<float>(dim, 0.0F));
  const ShardPlan plan = ShardPlan::make(ShardStrategy::kContiguous, dim, 2);
  ShardedMonitor sm = ShardedMonitor::interval(plan, spec);
  sm.observe(std::vector<float>{1.0F, -1.0F, 1.0F, -1.0F});
  const std::string dot = monitor_to_dot(sm);
  EXPECT_NE(dot.find("subgraph cluster_s0"), std::string::npos);
  EXPECT_NE(dot.find("subgraph cluster_s1"), std::string::npos);
  EXPECT_NE(dot.find("label=\"shard 1\""), std::string::npos);
  EXPECT_NE(dot.find("s0_n2 [label=\"x1\"];"), std::string::npos);
  EXPECT_NE(dot.find("s1_n2"), std::string::npos);
}

TEST(MonitorDot, RejectsNonBddFamilies) {
  // Min-max monitors have no BDD to render.
  const ShardPlan plan = ShardPlan::make(ShardStrategy::kContiguous, 4, 2);
  ShardedMonitor sm = ShardedMonitor::minmax(plan);
  EXPECT_THROW((void)monitor_to_dot(sm), std::invalid_argument);
}

}  // namespace
}  // namespace ranm
