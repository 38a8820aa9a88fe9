// Batched inserts into BDD monitors: observe_batch and observe_bounds_batch
// reduce a batch's words in a balanced OR-tree and OR the result into the
// set once. Folding the same samples one scalar observe / observe_bounds
// at a time must give the same function and — the BDD being canonical —
// the same bdd_node_count(), for on-off and interval monitors, standard
// and robust, flat and sharded.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/interval_monitor.hpp"
#include "core/neuron_stats.hpp"
#include "core/sharded_monitor.hpp"
#include "util/rng.hpp"

namespace ranm {
namespace {

// Odd, so every level of the OR-tree but the last carries a leftover word.
constexpr std::size_t kSamples = 257;

enum class Family { kOnOff, kInterval };

struct Case {
  Family family;
  bool robust;
  std::size_t shards;  // 0: a flat monitor
};

std::string case_name(const Case& c) {
  return std::string(c.family == Family::kOnOff ? "onoff" : "interval") +
         (c.robust ? " robust" : " standard") +
         (c.shards == 0 ? " flat" : " shards=" + std::to_string(c.shards));
}

// ctest names each case after its printed parameter; printing the name
// keeps it fixed (the raw bytes would include the struct's padding).
void PrintTo(const Case& c, std::ostream* os) { *os << case_name(c); }

std::vector<float> random_feature(std::size_t dim, Rng& rng) {
  std::vector<float> v(dim);
  for (auto& x : v) x = float(rng.uniform() * 4.0 - 2.0);
  return v;
}

ThresholdSpec random_spec(std::size_t dim, std::size_t bits, Rng& rng) {
  NeuronStats stats(dim, true);
  for (int s = 0; s < 40; ++s) stats.add(random_feature(dim, rng));
  return bits == 1 ? ThresholdSpec::from_means(stats)
                   : ThresholdSpec::from_percentiles(stats, bits);
}

std::unique_ptr<Monitor> make_monitor(const Case& c,
                                      const ThresholdSpec& spec) {
  if (c.shards > 0) {
    const ShardPlan plan = ShardPlan::contiguous(spec.dimension(), c.shards);
    return std::make_unique<ShardedMonitor>(
        ShardedMonitor::interval(plan, spec));
  }
  // The family picks the spec width: on-off is the 1-bit interval monitor.
  return std::make_unique<IntervalMonitor>(spec);
}

/// The BDD-backed monitors a monitor is made of: itself, or its shards.
std::vector<const Monitor*> bdd_parts(const Monitor& m) {
  const auto* sharded = dynamic_cast<const ShardedMonitor*>(&m);
  if (sharded == nullptr) return {&m};
  std::vector<const Monitor*> parts;
  for (std::size_t s = 0; s < sharded->shard_count(); ++s) {
    parts.push_back(&sharded->shard(s));
  }
  return parts;
}

struct BddOf {
  const bdd::BddManager* mgr;
  bdd::NodeRef root;
  std::size_t nodes;
};

BddOf bdd_of(const Monitor& m) {
  const auto& iv = dynamic_cast<const IntervalMonitor&>(m);
  return {&iv.manager(), iv.root(), iv.bdd_node_count()};
}

/// Exact function equality of two BDDs held in different managers under
/// the same variable order. Reduced ordered BDDs are canonical, so equal
/// functions have isomorphic graphs: walk both in lockstep, pairing nodes.
/// Each pair must agree on its variable (or be the same terminal), and a
/// node met twice must meet the same partner; by induction from the
/// terminals every pair then computes one function.
bool isomorphic(const BddOf& a, const BddOf& b) {
  std::unordered_map<bdd::NodeRef, bdd::NodeRef> partner;
  std::vector<std::pair<bdd::NodeRef, bdd::NodeRef>> stack{{a.root, b.root}};
  while (!stack.empty()) {
    const auto [x, y] = stack.back();
    stack.pop_back();
    if (x <= bdd::kTrue || y <= bdd::kTrue) {
      if (x != y) return false;
      continue;
    }
    const auto [it, fresh] = partner.emplace(x, y);
    if (!fresh) {
      if (it->second != y) return false;
      continue;
    }
    const auto vx = a.mgr->view(x);
    const auto vy = b.mgr->view(y);
    if (vx.var != vy.var) return false;
    stack.emplace_back(vx.lo, vy.lo);
    stack.emplace_back(vx.hi, vy.hi);
  }
  return true;
}

class BatchInsert : public ::testing::TestWithParam<Case> {};

TEST_P(BatchInsert, TreeReducedBatchMatchesScalarFold) {
  const Case c = GetParam();
  SCOPED_TRACE(case_name(c));
  Rng rng(20260 + std::uint64_t(c.family) * 7 + c.shards * 3 +
          (c.robust ? 1 : 0));
  // Per BDD part: 12 on-off neurons or 8 two-bit interval neurons, few
  // enough for the 258 samples to leave most words out of the set.
  const std::size_t dim = (c.family == Family::kOnOff ? 12 : 8) *
                          (c.shards == 0 ? 1 : c.shards);
  const std::size_t bits = c.family == Family::kOnOff ? 1 : 2;
  const ThresholdSpec spec = random_spec(dim, bits, rng);

  const std::unique_ptr<Monitor> batched = make_monitor(c, spec);
  const std::unique_ptr<Monitor> folded = make_monitor(c, spec);
  // A first sample already in the set, so the batch ORs into a non-empty
  // set as every chunk after the first does in a build.
  const std::vector<float> first = random_feature(dim, rng);
  batched->observe(first);
  folded->observe(first);

  FeatureBatch lo(dim, kSamples), hi(dim, kSamples);
  for (std::size_t i = 0; i < kSamples; ++i) {
    std::vector<float> l = random_feature(dim, rng);
    std::vector<float> h = l;
    if (c.robust) {
      // Widths up to about one threshold gap: a mix of fixed and
      // don't-care bits.
      for (auto& x : h) x += float(rng.uniform() * 0.8);
    }
    lo.set_sample(i, l);
    hi.set_sample(i, h);
    if (c.robust) {
      folded->observe_bounds(l, h);
    } else {
      folded->observe(l);
    }
  }
  if (c.robust) {
    batched->observe_bounds_batch(lo, hi);
  } else {
    batched->observe_batch(lo);
  }

  const auto parts_b = bdd_parts(*batched);
  const auto parts_f = bdd_parts(*folded);
  ASSERT_EQ(parts_b.size(), parts_f.size());
  std::size_t total_nodes = 0;
  for (std::size_t s = 0; s < parts_b.size(); ++s) {
    const BddOf b = bdd_of(*parts_b[s]);
    const BddOf f = bdd_of(*parts_f[s]);
    EXPECT_EQ(b.nodes, f.nodes) << "part " << s;
    EXPECT_TRUE(isomorphic(b, f)) << "part " << s;
    total_nodes += b.nodes;
  }
  EXPECT_GT(total_nodes, 2U * parts_b.size());  // not a constant function

  // Membership agrees too, on the inserted samples and on fresh ones.
  std::vector<float> probe(dim);
  for (std::size_t i = 0; i < kSamples; ++i) {
    lo.copy_sample(i, probe);
    EXPECT_TRUE(batched->contains(probe));
    const std::vector<float> fresh = random_feature(dim, rng);
    EXPECT_EQ(batched->contains(fresh), folded->contains(fresh));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Monitors, BatchInsert,
    ::testing::Values(Case{Family::kOnOff, false, 0},
                      Case{Family::kOnOff, true, 0},
                      Case{Family::kOnOff, false, 4},
                      Case{Family::kOnOff, true, 4},
                      Case{Family::kInterval, false, 0},
                      Case{Family::kInterval, true, 0},
                      Case{Family::kInterval, false, 4},
                      Case{Family::kInterval, true, 4}),
    [](const ::testing::TestParamInfo<Case>& param) {
      std::string name = case_name(param.param);
      for (char& ch : name) {
        if (ch == ' ' || ch == '=') ch = '_';
      }
      return name;
    });

TEST(BatchInsert, BoundViolationLeavesTheSetUntouched) {
  Rng rng(811);
  const ThresholdSpec spec = random_spec(6, 1, rng);
  IntervalMonitor onoff(spec);
  IntervalMonitor interval(random_spec(6, 2, rng));
  FeatureBatch lo(6, 3), hi(6, 3);
  for (std::size_t i = 0; i < 3; ++i) {
    const std::vector<float> v = random_feature(6, rng);
    lo.set_sample(i, v);
    hi.set_sample(i, v);
  }
  hi.at(4, 2) = lo.at(4, 2) - 1.0F;  // the last sample is malformed
  EXPECT_THROW(onoff.observe_bounds_batch(lo, hi), std::invalid_argument);
  EXPECT_THROW(interval.observe_bounds_batch(lo, hi), std::invalid_argument);
  EXPECT_EQ(onoff.root(), bdd::kFalse);
  EXPECT_EQ(interval.root(), bdd::kFalse);
}

}  // namespace
}  // namespace ranm
