// Randomized round-trip properties for io/serialize and bdd/bdd_io.
//
// The property checked everywhere is stronger than "same answers": after
// save → load, the reloaded object must be *structurally* equal to the
// original — identical canonical BDD covers (including don't-care cubes),
// identical bounds, and a byte-identical stream when saved again. Because
// both serializers emit a deterministic post-order / field order, double
// serialization is an exact structural-equality probe.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "bdd/bdd_io.hpp"
#include "core/interval_monitor.hpp"
#include "core/minmax_monitor.hpp"
#include "io/serialize.hpp"
#include "nn/init.hpp"
#include "util/rng.hpp"

namespace ranm {
namespace {

using bdd::BddManager;
using bdd::CubeBit;
using bdd::NodeRef;

std::vector<CubeBit> random_cube(Rng& rng, std::uint32_t n,
                                 double dont_care_p) {
  std::vector<CubeBit> bits(n);
  for (auto& b : bits) {
    if (rng.chance(dont_care_p)) {
      b = CubeBit::kDontCare;
    } else {
      b = rng.chance(0.5) ? CubeBit::kOne : CubeBit::kZero;
    }
  }
  return bits;
}

class BddIoProperty : public ::testing::TestWithParam<int> {};

TEST_P(BddIoProperty, SaveLoadPreservesCanonicalStructure) {
  Rng rng{std::uint64_t(GetParam())};
  for (int trial = 0; trial < 20; ++trial) {
    const auto n = std::uint32_t(3 + rng.below(8));
    BddManager mgr(n);
    NodeRef f = bdd::kFalse;
    const int cubes = 1 + int(rng.below(12));
    for (int c = 0; c < cubes; ++c) {
      f = mgr.or_(f, mgr.cube(random_cube(rng, n, 0.4)));
    }

    std::stringstream ss;
    save_bdd(ss, mgr, f);
    const std::string bytes = ss.str();

    BddManager mgr2(n);
    const NodeRef g = bdd::load_bdd(ss, mgr2);

    // ROBDDs are canonical: the reloaded function must have the same DAG
    // size and the same DFS cube cover, don't-cares included.
    EXPECT_EQ(mgr2.node_count(g), mgr.node_count(f));
    auto cover_f = mgr.enumerate_cubes(f);
    auto cover_g = mgr2.enumerate_cubes(g);
    std::sort(cover_f.begin(), cover_f.end());
    std::sort(cover_g.begin(), cover_g.end());
    EXPECT_EQ(cover_f, cover_g);
    EXPECT_DOUBLE_EQ(mgr2.sat_count(g), mgr.sat_count(f));

    // Saving the reloaded BDD must reproduce the exact byte stream.
    std::stringstream ss2;
    save_bdd(ss2, mgr2, g);
    EXPECT_EQ(ss2.str(), bytes);
  }
}

TEST_P(BddIoProperty, DontCareCubesSurviveManagerMigration) {
  // A single cube with don't-cares is the paper's word2set of a robust
  // insertion; its cover must survive a round-trip into a *larger* manager.
  Rng rng(std::uint64_t(GetParam()) + 40);
  for (int trial = 0; trial < 20; ++trial) {
    const auto n = std::uint32_t(2 + rng.below(10));
    BddManager mgr(n);
    const auto bits = random_cube(rng, n, 0.5);
    const NodeRef f = mgr.cube(bits);

    std::stringstream ss;
    save_bdd(ss, mgr, f);
    BddManager bigger(n + 4);
    const NodeRef g = bdd::load_bdd(ss, bigger);

    if (f == bdd::kFalse || f == bdd::kTrue) {
      EXPECT_EQ(g, f);
      continue;
    }
    const auto cover = bigger.enumerate_cubes(g);
    ASSERT_EQ(cover.size(), 1U);
    // Variables beyond the saved manager's range are unconstrained.
    for (std::uint32_t v = 0; v < n; ++v) EXPECT_EQ(cover[0][v], bits[v]);
    for (std::uint32_t v = n; v < n + 4; ++v) {
      EXPECT_EQ(cover[0][v], CubeBit::kDontCare);
    }
  }
}

class SerializeProperty : public ::testing::TestWithParam<int> {};

TEST_P(SerializeProperty, MinMaxMonitorStructuralRoundTrip) {
  Rng rng(std::uint64_t(GetParam()) + 100);
  for (int trial = 0; trial < 20; ++trial) {
    const auto dim = std::size_t(1 + rng.below(12));
    MinMaxMonitor m(dim);
    const int obs = int(rng.below(10));
    for (int i = 0; i < obs; ++i) {
      std::vector<float> v(dim);
      for (auto& x : v) x = rng.uniform_f(-5, 5);
      m.observe(v);
    }

    std::stringstream ss;
    save_monitor(ss, m);
    const std::string bytes = ss.str();
    const auto loaded = load_minmax_monitor(ss);

    ASSERT_EQ(loaded.dimension(), m.dimension());
    EXPECT_EQ(loaded.observation_count(), m.observation_count());
    for (std::size_t j = 0; j < dim; ++j) {
      EXPECT_EQ(loaded.lower(j), m.lower(j));
      EXPECT_EQ(loaded.upper(j), m.upper(j));
    }
    std::stringstream ss2;
    save_monitor(ss2, loaded);
    EXPECT_EQ(ss2.str(), bytes);
  }
}

TEST_P(SerializeProperty, PatternMonitorsStructuralRoundTrip) {
  // On-off and interval monitors, both with robust (don't-care producing)
  // bound observations mixed in: the serialized BDD pattern set must come
  // back structurally identical.
  Rng rng(std::uint64_t(GetParam()) + 200);
  for (int trial = 0; trial < 8; ++trial) {
    const auto dim = std::size_t(2 + rng.below(5));
    std::vector<float> zeros(dim, 0.0F);
    std::vector<float> lo(dim, -1.0F), mid(dim, 0.0F), hi(dim, 1.0F);
    IntervalMonitor onoff(ThresholdSpec::onoff(zeros));
    IntervalMonitor interval(ThresholdSpec::paper_two_bit(lo, mid, hi));

    Monitor* monitors[] = {&onoff, &interval};
    for (Monitor* m : monitors) {
      const int obs = 1 + int(rng.below(12));
      for (int i = 0; i < obs; ++i) {
        std::vector<float> v(dim);
        for (auto& x : v) x = rng.uniform_f(-2, 2);
        if (rng.chance(0.5)) {
          // Robust insertion: a nonempty box straddling thresholds yields
          // don't-care bits in the inserted word.
          std::vector<float> vhi(dim);
          for (std::size_t j = 0; j < dim; ++j) {
            vhi[j] = v[j] + rng.uniform_f(0.0F, 1.5F);
          }
          m->observe_bounds(v, vhi);
        } else {
          m->observe(v);
        }
      }

      std::stringstream ss;
      save_any_monitor(ss, *m);
      const std::string bytes = ss.str();
      const auto loaded = load_any_monitor(ss);
      ASSERT_NE(loaded, nullptr);
      ASSERT_EQ(loaded->dimension(), m->dimension());

      std::stringstream ss2;
      save_any_monitor(ss2, *loaded);
      EXPECT_EQ(ss2.str(), bytes);

      for (int probe = 0; probe < 100; ++probe) {
        std::vector<float> v(dim);
        for (auto& x : v) x = rng.uniform_f(-3, 3);
        EXPECT_EQ(loaded->warn(v), m->warn(v));
      }
    }
  }
}

TEST_P(SerializeProperty, NetworkAndDatasetByteStableRoundTrip) {
  Rng rng(std::uint64_t(GetParam()) + 300);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<std::size_t> widths{1 + rng.below(6)};
    const int hidden = 1 + int(rng.below(3));
    for (int i = 0; i < hidden; ++i) widths.push_back(1 + rng.below(10));
    widths.push_back(1 + rng.below(4));
    Network net = make_mlp(widths, rng);

    std::stringstream ss;
    save_network(ss, net);
    const std::string bytes = ss.str();
    Network loaded = load_network(ss);
    std::stringstream ss2;
    save_network(ss2, loaded);
    EXPECT_EQ(ss2.str(), bytes);

    Dataset ds;
    const int samples = int(rng.below(6));
    for (int i = 0; i < samples; ++i) {
      ds.inputs.push_back(Tensor::random_uniform({widths.front()}, rng));
      ds.targets.push_back(Tensor::random_uniform({widths.back()}, rng));
    }
    std::stringstream ds_ss;
    save_dataset(ds_ss, ds);
    const std::string ds_bytes = ds_ss.str();
    const Dataset ds_loaded = load_dataset(ds_ss);
    std::stringstream ds_ss2;
    save_dataset(ds_ss2, ds_loaded);
    EXPECT_EQ(ds_ss2.str(), ds_bytes);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddIoProperty, ::testing::Values(1, 2, 3));
INSTANTIATE_TEST_SUITE_P(Seeds, SerializeProperty, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace ranm
