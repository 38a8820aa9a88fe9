#include "core/onoff_monitor.hpp"

#include <gtest/gtest.h>

#include "core/monitor_dot.hpp"
#include "core/neuron_stats.hpp"
#include "core/sharded_monitor.hpp"
#include "util/rng.hpp"

namespace ranm {
namespace {

OnOffMonitor sign_monitor(std::size_t dim) {
  return OnOffMonitor(ThresholdSpec::onoff(std::vector<float>(dim, 0.0F)));
}

TEST(OnOffMonitor, RequiresOneBitSpec) {
  const std::vector<float> c{0.0F};
  EXPECT_THROW(OnOffMonitor(ThresholdSpec::paper_two_bit(
                   std::vector<float>{0.0F}, std::vector<float>{1.0F},
                   std::vector<float>{2.0F})),
               std::invalid_argument);
  EXPECT_NO_THROW(OnOffMonitor(ThresholdSpec::onoff(c)));
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
  const auto p = m.pattern(std::vector<float>{1.0F, 0.0F, -2.0F});
  // v > c strictly: 0.0 at threshold 0.0 maps to 0.
  EXPECT_EQ(p, (std::vector<bool>{true, false, false}));
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
  OnOffMonitor m(ThresholdSpec::onoff(std::vector<float>(dim, 0.0F)));
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

TEST(OnOffMonitor, MeanThresholds) {
  // The "average of visited values" strategy from the paper.
  NeuronStats stats(2);
  stats.add(std::vector<float>{0.0F, 10.0F});
  stats.add(std::vector<float>{4.0F, 30.0F});
  OnOffMonitor m(ThresholdSpec::from_means(stats));
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
  ShardedMonitor sm = ShardedMonitor::onoff(plan, spec);
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
