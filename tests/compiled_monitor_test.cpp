// CompiledMonitor: compiled-vs-interpreted differential tests.
//
// The contract under test is bit-for-bit equivalence: for every monitor
// family (min-max, on-off, interval, box-cluster, sharded compositions of
// those) and every build mode (standard, robust/don't-care), the compiled
// monitor must answer contains / contains_batch exactly like the monitor
// it was lowered from — including NaN features, empty batches, size-1
// batches, and batch sizes that are not multiples of any internal lane
// width. The BDD families run through the shared verdict oracle
// (oracle.hpp), with data that reaches both lowerings: covers within the
// cube limit and covers beyond it, which lower to the flat node array.
// BDD programs on both sides of the evaluator crossover
// (compile::kBddWalkHopCost) pin the bit-parallel sweep and the
// interleaved walk to the same verdicts.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <vector>

#include "compile/compiled_monitor.hpp"
#include "compile/lower.hpp"
#include "core/box_cluster_monitor.hpp"
#include "core/interval_monitor.hpp"
#include "core/minmax_monitor.hpp"
#include "core/neuron_stats.hpp"
#include "core/sharded_monitor.hpp"
#include "oracle.hpp"
#include "util/rng.hpp"

namespace ranm {
namespace {

using compile::compile_monitor;
using compile::CompiledMonitor;
using compile::kBddWalkHopCost;

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

/// Query mix: random vectors, stored training vectors (guaranteed hits),
/// and vectors with NaN entries when requested.
FeatureBatch query_batch(std::size_t dim, std::size_t n,
                         const std::vector<std::vector<float>>& stored,
                         bool with_nan, Rng& rng) {
  FeatureBatch batch(dim, n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<float> v = (i % 3 == 0 && !stored.empty())
                               ? stored[i % stored.size()]
                               : random_feature(dim, rng);
    if (with_nan && i % 4 == 1) {
      v[rng.below(dim)] = std::numeric_limits<float>::quiet_NaN();
    }
    batch.set_sample(i, v);
  }
  return batch;
}

/// Feeds the same 15 observations (point or interval) into a monitor and
/// records the point vectors so queries can include guaranteed members.
void observe_all(Monitor& monitor, std::size_t dim, bool robust, Rng& rng,
                 std::vector<std::vector<float>>& stored) {
  for (int i = 0; i < 15; ++i) {
    std::vector<float> v = random_feature(dim, rng);
    stored.push_back(v);
    if (robust) {
      std::vector<float> lo(v), hi(v);
      for (std::size_t j = 0; j < dim; ++j) {
        const float d = float(rng.uniform() * 0.5);
        lo[j] -= d;
        hi[j] += d;
      }
      monitor.observe_bounds(lo, hi);
    } else {
      monitor.observe(v);
    }
  }
}

/// Asserts bitwise-equal verdicts on scalar and batched query paths over
/// empty, size-1, and non-lane-multiple batch sizes.
void expect_match(const Monitor& interpreted, const CompiledMonitor& compiled,
                  std::size_t dim,
                  const std::vector<std::vector<float>>& stored, bool with_nan,
                  Rng& rng) {
  ASSERT_EQ(compiled.dimension(), dim);
  for (const std::size_t n : {0UL, 1UL, 3UL, 7UL, 33UL, 100UL}) {
    const FeatureBatch queries = query_batch(dim, n, stored, with_nan, rng);
    auto want = std::make_unique<bool[]>(n + 1);
    auto got = std::make_unique<bool[]>(n + 1);
    interpreted.contains_batch(queries, {want.get(), n});
    compiled.contains_batch(queries, {got.get(), n});
    std::vector<float> sample(dim);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(got[i], want[i]) << "batch " << n << " sample " << i;
      queries.copy_sample(i, sample);
      EXPECT_EQ(compiled.contains(sample), want[i])
          << "scalar, batch " << n << " sample " << i;
    }
  }
}

enum class Family { kMinMax, kOnOff, kInterval, kBoxCluster };

std::unique_ptr<Monitor> build_flat(Family family, std::size_t dim,
                                    bool robust, Rng& rng,
                                    std::vector<std::vector<float>>& stored) {
  std::unique_ptr<Monitor> monitor;
  switch (family) {
    case Family::kMinMax:
      monitor = std::make_unique<MinMaxMonitor>(dim);
      break;
    case Family::kOnOff:
      monitor = std::make_unique<IntervalMonitor>(random_spec(dim, 1, rng));
      break;
    case Family::kInterval:
      monitor = std::make_unique<IntervalMonitor>(random_spec(dim, 2, rng));
      break;
    case Family::kBoxCluster:
      monitor = std::make_unique<BoxClusterMonitor>(dim, 4);
      break;
  }
  observe_all(*monitor, dim, robust, rng, stored);
  if (family == Family::kBoxCluster) {
    static_cast<BoxClusterMonitor&>(*monitor).finalize(rng);
  }
  return monitor;
}

TEST(CompiledMonitor, FlatFamiliesMatchBitForBit) {
  Rng rng(4242);
  for (const Family family : {Family::kMinMax, Family::kBoxCluster}) {
    for (const bool robust : {false, true}) {
      for (const bool with_nan : {false, true}) {
        SCOPED_TRACE("family=" + std::to_string(int(family)) +
                     (robust ? " robust" : " standard") +
                     (with_nan ? " nan" : ""));
        const std::size_t dim = 5 + rng.below(6);
        std::vector<std::vector<float>> stored;
        const std::unique_ptr<Monitor> interpreted =
            build_flat(family, dim, robust, rng, stored);
        const CompiledMonitor compiled = compile_monitor(*interpreted);
        EXPECT_EQ(compiled.shard_count(), 1U);
        EXPECT_EQ(compiled.source(), interpreted->describe());
        expect_match(*interpreted, compiled, dim, stored, with_nan, rng);
      }
    }
  }
  // On-off and interval: few observations lower to a cube cover, many to
  // the node array; the oracle checks both against the scalar walk.
  std::uint64_t seed = 4243;
  for (const std::size_t bits : {1UL, 2UL}) {
    std::set<compile::ProgramKind> kinds;
    for (const bool robust : {false, true}) {
      for (const std::size_t observations : {15UL, 150UL}) {
        const auto got = oracle::check_interval_case(
            {bits, robust, 1, observations, seed++});
        kinds.insert(got.begin(), got.end());
      }
    }
    EXPECT_EQ(kinds.count(compile::ProgramKind::kCube), 1U) << bits;
    EXPECT_EQ(kinds.count(compile::ProgramKind::kBdd), 1U) << bits;
  }
}

TEST(CompiledMonitor, ShardedMatchesBitForBit) {
  Rng rng(9001);
  for (const std::size_t shards : {1UL, 3UL, 8UL}) {
    for (const bool robust : {false, true}) {
      for (const int family : {0, 1, 2}) {
        SCOPED_TRACE("shards=" + std::to_string(shards) +
                     (robust ? " robust" : " standard") + " family=" +
                     std::to_string(family));
        const std::size_t dim = 12 + rng.below(6);
        const ShardPlan plan = ShardPlan::make(
            shards % 2 == 0 ? ShardStrategy::kContiguous
                            : ShardStrategy::kRoundRobin,
            dim, shards);
        if (family != 0) {
          // The BDD family: the oracle's thresholds and probes, queried
          // inline and on 4 threads after a lowering on the monitor's
          // own pool.
          ShardedMonitor interpreted = ShardedMonitor::interval(
              plan, oracle::random_spec(dim, std::size_t(family), rng));
          const auto stored = oracle::observe(interpreted, robust, 15, rng);
          interpreted.set_threads(shards > 1 ? 3 : 1);
          const auto probes = oracle::probe_batches(dim, stored, rng);
          oracle::expect_engines_agree(interpreted, probes);
          oracle::expect_engines_agree(interpreted, probes, 4);
          continue;
        }
        ShardedMonitor interpreted = ShardedMonitor::minmax(plan);
        std::vector<std::vector<float>> stored;
        observe_all(interpreted, dim, robust, rng, stored);
        // Parallel shard lowering (on the monitor's own pool) must
        // produce the same artifact a sequential lowering would have.
        interpreted.set_threads(shards > 1 ? 3 : 1);
        CompiledMonitor compiled = compile_monitor(interpreted);
        EXPECT_EQ(compiled.shard_count(), plan.shard_count());
        expect_match(interpreted, compiled, dim, stored, true, rng);
        // Threaded querying is a runtime property, not a semantic one.
        compiled.set_threads(4);
        EXPECT_EQ(compiled.threads(), 4U);
        expect_match(interpreted, compiled, dim, stored, true, rng);
        compiled.set_threads(1);
        EXPECT_EQ(compiled.threads(), 1U);
      }
    }
  }
}

// Moving a monitor copies its Monitor base, which starts without the
// cached program (perfbench moves compile_monitor's result into a
// unique_ptr). The moved monitor must re-lower, keep its pool, and still
// answer like the scalar path on both sides of the small-batch and pool
// thresholds.
TEST(CompiledMonitor, MovedMonitorsMatchScalar) {
  Rng rng(3141);
  const std::size_t dim = 16;
  ShardedMonitor source = ShardedMonitor::interval(
      ShardPlan::contiguous(dim, 4), random_spec(dim, 2, rng));
  std::vector<std::vector<float>> stored;
  observe_all(source, dim, true, rng, stored);
  source.set_threads(4);
  CompiledMonitor compiled = compile_monitor(source);
  compiled.set_threads(4);
  const std::vector<std::size_t> sizes = {1, 7, 8, 33, 64};
  const auto check = [&](const Monitor& monitor, const char* what) {
    EXPECT_EQ(monitor.threads(), 4U) << what;
    std::vector<float> sample(dim);
    for (const std::size_t n : sizes) {
      const FeatureBatch queries = query_batch(dim, n, stored, true, rng);
      auto got = std::make_unique<bool[]>(n);
      monitor.contains_batch(queries, {got.get(), n});
      for (std::size_t i = 0; i < n; ++i) {
        queries.copy_sample(i, sample);
        EXPECT_EQ(got[i], monitor.contains(sample))
            << what << ", batch " << n << " sample " << i;
      }
    }
  };
  // Query first, so each source has a cached program the move drops.
  check(source, "sharded");
  check(compiled, "compiled");
  const ShardedMonitor moved_sharded = std::move(source);
  const auto moved_compiled =
      std::make_unique<CompiledMonitor>(std::move(compiled));
  check(moved_sharded, "moved sharded");
  check(*moved_compiled, "moved compiled");
}

/// Supported variables of a BDD unit: the cost model's path-length bound.
std::size_t supported_vars(const compile::CompiledUnit& unit) {
  std::size_t vars = 0;
  for (const std::uint64_t w : unit.support) vars += std::popcount(w);
  return vars;
}

/// Asserts which side of the crossover every shard's BDD program sits on:
/// `large` programs walk every batch (even a full 64-sample block), small
/// ones sweep every batch of 8 or more.
void expect_crossover_side(const CompiledMonitor& compiled, bool large) {
  for (const compile::Shard& sh : compiled.shards()) {
    ASSERT_EQ(sh.unit.kind, compile::ProgramKind::kBdd);
    const std::size_t nodes = sh.unit.bdd.nodes.size();
    const std::size_t vars = supported_vars(sh.unit);
    if (large) {
      EXPECT_GT(nodes, kBddWalkHopCost * 64 * vars);
      EXPECT_TRUE(compile::bdd_always_walks(nodes, vars));
    } else {
      EXPECT_LE(nodes, kBddWalkHopCost * 8 * vars);
      EXPECT_FALSE(compile::bdd_always_walks(nodes, vars));
    }
  }
}

TEST(CompiledMonitor, BddEvaluatorsAgreeAcrossTheCrossover) {
  Rng rng(8128);
  // Every 8-way interleave remainder and both sides of the 64-lane block
  // edge, plus a batch whose large two-shard programs clear the pool's
  // work grain, so the shards run on the pool.
  const std::vector<std::size_t> batch_sizes = {
      1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 200, 2048};
  for (const bool large : {false, true}) {
    for (const std::size_t shards : {1UL, 2UL}) {
      for (const std::size_t bits : {1UL, 2UL}) {
        for (const bool robust : {false, true}) {
          SCOPED_TRACE(std::string(large ? "large" : "small") +
                       " shards=" + std::to_string(shards) + " bits=" +
                       std::to_string(bits) +
                       (robust ? " robust" : " standard"));
          // Large: per shard 20 variables and 1500 random patterns put
          // the program past kBddWalkHopCost * 64 * vars nodes. Small:
          // per 8-neuron shard, every neuron below all its thresholds or
          // above them all, an even number above: 128 words whose cover
          // needs 128 cubes (past the cube limit, so the node array) while
          // the parity BDD stays under kBddWalkHopCost * 8 * vars nodes.
          const std::size_t per_shard = large ? 20 / bits : 8;
          const std::size_t dim = shards * per_shard;
          const std::size_t count = large ? 1500 : 128;
          const ThresholdSpec spec = random_spec(dim, bits, rng);
          const ShardPlan plan = ShardPlan::contiguous(dim, shards);
          std::unique_ptr<Monitor> interpreted;
          if (shards == 1) {
            interpreted = std::make_unique<IntervalMonitor>(spec);
          } else {
            interpreted = std::make_unique<ShardedMonitor>(
                ShardedMonitor::interval(plan, spec));
          }
          std::vector<std::vector<float>> stored;
          for (std::size_t i = 0; i < count; ++i) {
            std::vector<float> v(dim);
            if (large) {
              v = random_feature(dim, rng);
            } else {
              const std::size_t word = i | ((std::popcount(i) % 2) << 7);
              for (std::size_t j = 0; j < dim; ++j) {
                v[j] = (word >> (j % per_shard)) & 1U ? 3.0F : -3.0F;
              }
            }
            stored.push_back(v);
            if (robust) {
              // Narrow boxes: a few straddled thresholds per pattern.
              std::vector<float> lo(v), hi(v);
              for (std::size_t j = 0; j < dim; ++j) {
                const float d = float(rng.uniform() * 0.05);
                lo[j] -= d;
                hi[j] += d;
              }
              interpreted->observe_bounds(lo, hi);
            } else {
              interpreted->observe(v);
            }
          }
          CompiledMonitor compiled = compile_monitor(*interpreted);
          expect_crossover_side(compiled, large);
          if (shards == 1) {
            EXPECT_EQ(compiled.total_nodes(),
                      compiled.shards()[0].unit.bdd.nodes.size());
          }
          // The pool path sizes its grain with the same cost model.
          compiled.set_threads(shards);
          std::vector<float> sample(dim);
          for (const std::size_t n : batch_sizes) {
            const FeatureBatch queries =
                query_batch(dim, n, stored, true, rng);
            auto want = std::make_unique<bool[]>(n);
            auto got = std::make_unique<bool[]>(n);
            interpreted->contains_batch(queries, {want.get(), n});
            compiled.contains_batch(queries, {got.get(), n});
            std::size_t hits = 0;
            for (std::size_t i = 0; i < n; ++i) {
              ASSERT_EQ(got[i], want[i]) << "batch " << n << " sample " << i;
              queries.copy_sample(i, sample);
              ASSERT_EQ(compiled.contains(sample), interpreted->contains(sample))
                  << "scalar, batch " << n << " sample " << i;
              hits += want[i] ? 1 : 0;
            }
            // Stored samples guarantee both verdicts in larger batches.
            if (n >= 9) {
              EXPECT_GT(hits, 0U) << "batch " << n;
              EXPECT_LT(hits, n) << "batch " << n;
            }
          }
        }
      }
    }
  }
}

TEST(CompiledMonitor, ObserveEntryPointsThrow) {
  Rng rng(77);
  const std::size_t dim = 4;
  std::vector<std::vector<float>> stored;
  const std::unique_ptr<Monitor> interpreted =
      build_flat(Family::kOnOff, dim, false, rng, stored);
  CompiledMonitor compiled = compile_monitor(*interpreted);
  const std::vector<float> v(dim, 0.0F);
  EXPECT_THROW(compiled.observe(v), std::logic_error);
  EXPECT_THROW(compiled.observe_bounds(v, v), std::logic_error);
  const FeatureBatch batch(dim, 2);
  EXPECT_THROW(compiled.observe_batch(batch), std::logic_error);
  EXPECT_THROW(compiled.observe_bounds_batch(batch, batch),
               std::logic_error);
  // Query paths still work after the failed observes.
  EXPECT_NO_THROW((void)compiled.contains(v));
}

TEST(CompiledMonitor, UnfinalizedBoxClusterRefusesToCompile) {
  BoxClusterMonitor unfinalized(6, 3);
  unfinalized.observe(std::vector<float>(6, 0.5F));
  EXPECT_THROW((void)compile_monitor(unfinalized), std::logic_error);
}

TEST(CompiledMonitor, CompiledSourceIsNotRecompilable) {
  Rng rng(31);
  std::vector<std::vector<float>> stored;
  const std::unique_ptr<Monitor> interpreted =
      build_flat(Family::kMinMax, 5, false, rng, stored);
  const CompiledMonitor compiled = compile_monitor(*interpreted);
  EXPECT_THROW((void)compile_monitor(compiled), std::invalid_argument);
}

}  // namespace
}  // namespace ranm
