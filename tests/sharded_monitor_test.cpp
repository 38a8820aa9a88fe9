// ShardedMonitor: randomized sharded-vs-unsharded equivalence and artifact
// round-trips.
//
// Two equivalence notions are asserted, both bitwise:
//  - S = 1: a sharded monitor with one shard answers exactly like the
//    plain single-manager monitor (same spec, same fold order).
//  - S > 1: a sharded monitor answers exactly like the AND-composition of
//    S independent unsharded monitors, each built over its shard's
//    threshold slice and feature projections — the sequential reference
//    the sharding machinery (row views, thread fan-out, serialisation)
//    must not perturb. For the min-max family sharding is exact for any
//    S, so there the unsharded monitor itself is the reference.
// Covers standard and robust (don't-care) builds, NaN features,
// empty/size-1 batches, scalar-vs-batch paths, thread counts, concurrent
// first batch queries (which lower each monitor's program), and
// save -> load -> save byte-identical round-trips of the sharded format.
#include <gtest/gtest.h>

#include <cmath>
#include <latch>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "compile/compiled_monitor.hpp"
#include "compile/lower.hpp"
#include "core/interval_monitor.hpp"
#include "core/minmax_monitor.hpp"
#include "core/neuron_stats.hpp"
#include "core/sharded_monitor.hpp"
#include "io/serialize.hpp"
#include "util/rng.hpp"

namespace ranm {
namespace {

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

/// The sequential AND-composition reference for a sharded build.
class ReferenceComposition {
 public:
  ReferenceComposition(const ShardPlan& plan,
                       std::vector<std::unique_ptr<Monitor>> monitors)
      : plan_(plan), monitors_(std::move(monitors)) {}

  [[nodiscard]] bool contains(std::span<const float> feature) const {
    std::vector<float> scratch;
    for (std::size_t s = 0; s < monitors_.size(); ++s) {
      const auto neurons = plan_.neurons(s);
      scratch.resize(neurons.size());
      for (std::size_t lj = 0; lj < neurons.size(); ++lj) {
        scratch[lj] = feature[neurons[lj]];
      }
      if (!monitors_[s]->contains(scratch)) return false;
    }
    return true;
  }

 private:
  const ShardPlan& plan_;
  std::vector<std::unique_ptr<Monitor>> monitors_;
};

enum class Family { kOnOff, kInterval };

/// Builds (sharded, reference) pairs over identical observations and
/// asserts bitwise-equal answers on scalar and batched query paths.
void check_equivalence(Family family, std::size_t dim, std::size_t bits,
                       std::size_t shards, bool robust, bool with_nan,
                       std::size_t threads, Rng& rng) {
  SCOPED_TRACE("family=" + std::to_string(int(family)) +
               " dim=" + std::to_string(dim) + " shards=" +
               std::to_string(shards) + (robust ? " robust" : " standard") +
               " threads=" + std::to_string(threads));
  const ThresholdSpec spec = random_spec(dim, bits, rng);
  const ShardPlan plan = ShardPlan::make(
      shards % 2 == 0 ? ShardStrategy::kContiguous
                      : ShardStrategy::kRoundRobin,
      dim, shards);

  // Both families are interval monitors; on-off is the 1-bit one.
  ShardedMonitor sharded = ShardedMonitor::interval(plan, spec);
  sharded.set_threads(threads);
  std::vector<std::unique_ptr<Monitor>> refs;
  for (std::size_t s = 0; s < plan.shard_count(); ++s) {
    refs.push_back(
        std::make_unique<IntervalMonitor>(spec.subset(plan.neurons(s))));
  }

  // Identical observations: the sharded monitor folds whole vectors (via
  // the batched path); each reference folds its own projection.
  std::vector<std::vector<float>> stored;
  const std::size_t observations = 15;
  FeatureBatch train(dim, observations);
  FeatureBatch train_lo(dim, observations), train_hi(dim, observations);
  for (std::size_t i = 0; i < observations; ++i) {
    std::vector<float> v = random_feature(dim, rng);
    stored.push_back(v);
    train.set_sample(i, v);
    std::vector<float> lo(v), hi(v);
    for (std::size_t j = 0; j < dim; ++j) {
      const float d = float(rng.uniform());
      lo[j] -= d;
      hi[j] += d;
    }
    train_lo.set_sample(i, lo);
    train_hi.set_sample(i, hi);
  }
  if (robust) {
    sharded.observe_bounds_batch(train_lo, train_hi);
  } else {
    sharded.observe_batch(train);
  }
  std::vector<float> scratch_lo, scratch_hi;
  for (std::size_t s = 0; s < plan.shard_count(); ++s) {
    const auto neurons = plan.neurons(s);
    scratch_lo.resize(neurons.size());
    scratch_hi.resize(neurons.size());
    for (std::size_t i = 0; i < observations; ++i) {
      for (std::size_t lj = 0; lj < neurons.size(); ++lj) {
        scratch_lo[lj] = train_lo.at(neurons[lj], i);
        scratch_hi[lj] = train_hi.at(neurons[lj], i);
      }
      if (robust) {
        refs[s]->observe_bounds(scratch_lo, scratch_hi);
      } else {
        for (std::size_t lj = 0; lj < neurons.size(); ++lj) {
          scratch_lo[lj] = train.at(neurons[lj], i);
        }
        refs[s]->observe(scratch_lo);
      }
    }
  }
  const ReferenceComposition reference(plan, std::move(refs));

  EXPECT_EQ(sharded.observation_count(), observations);
  for (const std::size_t n : {0UL, 1UL, 3UL, 8UL, 33UL, 100UL}) {
    const FeatureBatch queries = query_batch(dim, n, stored, with_nan, rng);
    auto out = std::make_unique<bool[]>(n);
    sharded.contains_batch(queries, {out.get(), n});
    std::vector<float> sample(dim);
    bool any_inside = false;
    for (std::size_t i = 0; i < n; ++i) {
      queries.copy_sample(i, sample);
      const bool expected = reference.contains(sample);
      EXPECT_EQ(out[i], expected) << "batch " << n << " sample " << i;
      EXPECT_EQ(sharded.contains(sample), expected)
          << "scalar, batch " << n << " sample " << i;
      any_inside = any_inside || expected;
    }
    if (n >= 33 && !robust && !with_nan) {
      EXPECT_TRUE(any_inside) << "query mix should contain stored points";
    }
  }
}

TEST(ShardedMonitor, SingleShardMatchesUnshardedBitwise) {
  Rng rng(811);
  for (const bool robust : {false, true}) {
    const std::size_t dim = 6 + rng.below(6);
    const ThresholdSpec spec = random_spec(dim, 2, rng);
    IntervalMonitor plain(spec);
    ShardedMonitor sharded =
        ShardedMonitor::interval(ShardPlan::contiguous(dim, 1), spec);
    std::vector<std::vector<float>> stored;
    for (int i = 0; i < 15; ++i) {
      std::vector<float> v = random_feature(dim, rng);
      stored.push_back(v);
      if (robust) {
        std::vector<float> lo(v), hi(v);
        for (auto& x : lo) x -= 0.3F;
        for (auto& x : hi) x += 0.3F;
        plain.observe_bounds(lo, hi);
        sharded.observe_bounds(lo, hi);
      } else {
        plain.observe(v);
        sharded.observe(v);
      }
    }
    for (const std::size_t n : {0UL, 1UL, 3UL, 8UL, 33UL, 100UL}) {
      const FeatureBatch queries = query_batch(dim, n, stored, false, rng);
      auto plain_out = std::make_unique<bool[]>(n);
      auto sharded_out = std::make_unique<bool[]>(n);
      plain.contains_batch(queries, {plain_out.get(), n});
      sharded.contains_batch(queries, {sharded_out.get(), n});
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(sharded_out[i], plain_out[i])
            << (robust ? "robust" : "standard") << " batch " << n
            << " sample " << i;
      }
    }
  }
}

TEST(ShardedMonitor, OnOffEquivalentToReferenceAcrossShardCounts) {
  Rng rng(821);
  for (const std::size_t shards : {1UL, 2UL, 3UL, 8UL}) {
    for (const bool robust : {false, true}) {
      check_equivalence(Family::kOnOff, 8 + rng.below(5), 1, shards,
                        robust, false, 1, rng);
    }
  }
}

TEST(ShardedMonitor, IntervalEquivalentToReferenceAcrossShardCounts) {
  Rng rng(822);
  for (const std::size_t shards : {1UL, 2UL, 3UL, 8UL}) {
    for (const bool robust : {false, true}) {
      check_equivalence(Family::kInterval, 8 + rng.below(5), 2, shards,
                        robust, false, 1, rng);
    }
  }
}

TEST(ShardedMonitor, NaNFeaturesAnswerIdentically) {
  Rng rng(823);
  for (const std::size_t shards : {2UL, 3UL}) {
    check_equivalence(Family::kOnOff, 9, 1, shards, false, true, 1, rng);
    check_equivalence(Family::kInterval, 9, 2, shards, false, true, 1, rng);
  }
}

TEST(ShardedMonitor, ThreadCountDoesNotChangeAnswers) {
  Rng rng(824);
  check_equivalence(Family::kInterval, 12, 2, 4, false, false, 4, rng);
  check_equivalence(Family::kInterval, 12, 2, 4, true, false, 4, rng);
  check_equivalence(Family::kOnOff, 12, 1, 3, false, false, 0, rng);
}

// The first batch query of a monitor lowers its program (a sharded
// monitor lowers every shard into one program; a compiled monitor's
// cache takes its frozen program). Threads issuing it at once must all
// get the verdicts of the scalar path, which lowers nothing.
TEST(ShardedMonitor, ConcurrentFirstBatchQueriesMatchScalar) {
  Rng rng(829);
  constexpr std::size_t kDim = 16;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kBatch = 32;
  const ThresholdSpec spec = random_spec(kDim, 2, rng);
  std::vector<std::vector<float>> stored, lo, hi;
  for (int s = 0; s < 30; ++s) {
    stored.push_back(random_feature(kDim, rng));
    lo.push_back(stored.back());
    hi.push_back(stored.back());
    for (std::size_t j = 0; j < kDim; ++j) {
      const float d = float(rng.uniform() * 0.5);
      lo.back()[j] -= d;
      hi.back()[j] += d;
    }
  }
  const FeatureBatch batch = query_batch(kDim, kBatch, stored, false, rng);
  const auto race = [&](const Monitor& monitor, const std::string& what) {
    std::vector<bool> expected(kBatch);
    std::vector<float> sample(kDim);
    for (std::size_t i = 0; i < kBatch; ++i) {
      batch.copy_sample(i, sample);
      expected[i] = monitor.contains(sample);
    }
    std::vector<std::vector<bool>> got(kThreads, std::vector<bool>(kBatch));
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        auto out = std::make_unique<bool[]>(kBatch);
        start.arrive_and_wait();
        monitor.contains_batch(batch, {out.get(), kBatch});
        for (std::size_t i = 0; i < kBatch; ++i) got[t][i] = out[i];
      });
    }
    for (std::thread& th : threads) th.join();
    for (std::size_t t = 0; t < kThreads; ++t) {
      EXPECT_EQ(got[t], expected) << what << ", thread " << t;
    }
  };
  IntervalMonitor flat(spec);
  ShardedMonitor sharded =
      ShardedMonitor::interval(ShardPlan::contiguous(kDim, 4), spec);
  sharded.set_threads(4);
  for (std::size_t s = 0; s < lo.size(); ++s) {
    flat.observe_bounds(lo[s], hi[s]);
    sharded.observe_bounds(lo[s], hi[s]);
  }
  race(flat, "flat");
  race(sharded, "4 shards");
  compile::CompiledMonitor compiled = compile::compile_monitor(sharded);
  compiled.set_threads(4);
  race(compiled, "compiled 4 shards");
}

TEST(ShardedMonitor, MinMaxShardingIsExactForAnyShardCount) {
  Rng rng(825);
  const std::size_t dim = 10;
  for (const std::size_t shards : {1UL, 2UL, 3UL, 8UL}) {
    MinMaxMonitor plain(dim);
    ShardedMonitor sharded =
        ShardedMonitor::minmax(ShardPlan::round_robin(dim, shards));
    std::vector<std::vector<float>> stored;
    FeatureBatch train(dim, 20);
    for (std::size_t i = 0; i < 20; ++i) {
      std::vector<float> v = random_feature(dim, rng);
      stored.push_back(v);
      train.set_sample(i, v);
      plain.observe(v);
    }
    sharded.observe_batch(train);
    for (const std::size_t n : {0UL, 1UL, 33UL}) {
      const FeatureBatch queries = query_batch(dim, n, stored, true, rng);
      auto plain_out = std::make_unique<bool[]>(n);
      auto sharded_out = std::make_unique<bool[]>(n);
      plain.contains_batch(queries, {plain_out.get(), n});
      sharded.contains_batch(queries, {sharded_out.get(), n});
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(sharded_out[i], plain_out[i])
            << "shards " << shards << " sample " << i;
      }
    }
  }
}

TEST(ShardedMonitor, AcceptsSupersetOfUnshardedMonitor) {
  // Sharding stores per-shard projections, so it can only coarsen: every
  // vector the joint monitor accepts must also be accepted sharded.
  Rng rng(826);
  const std::size_t dim = 10;
  const ThresholdSpec spec = random_spec(dim, 2, rng);
  IntervalMonitor plain(spec);
  ShardedMonitor sharded =
      ShardedMonitor::interval(ShardPlan::contiguous(dim, 4), spec);
  FeatureBatch train(dim, 25);
  for (std::size_t i = 0; i < 25; ++i) {
    const std::vector<float> v = random_feature(dim, rng);
    train.set_sample(i, v);
    plain.observe(v);
  }
  sharded.observe_batch(train);
  for (int q = 0; q < 300; ++q) {
    const std::vector<float> v = random_feature(dim, rng);
    if (plain.contains(v)) {
      EXPECT_TRUE(sharded.contains(v));
    }
  }
}

TEST(ShardedMonitor, ObserveBoundsViolationThrowsBeforeAnyShardMutates) {
  Rng rng(827);
  const std::size_t dim = 8;
  ShardedMonitor sharded = ShardedMonitor::interval(
      ShardPlan::contiguous(dim, 2), random_spec(dim, 1, rng));
  FeatureBatch lo(dim, 4), hi(dim, 4);
  for (std::size_t i = 0; i < 4; ++i) {
    const std::vector<float> v = random_feature(dim, rng);
    lo.set_sample(i, v);
    hi.set_sample(i, v);
  }
  hi.at(5, 2) = lo.at(5, 2) - 1.0F;  // violation in the second shard
  EXPECT_THROW(sharded.observe_bounds_batch(lo, hi), std::invalid_argument);
  EXPECT_EQ(sharded.observation_count(), 0U);
  // No shard saw a partial batch: the set is still empty everywhere.
  std::vector<float> probe(dim, 0.0F);
  lo.copy_sample(0, probe);
  EXPECT_FALSE(sharded.contains(probe));
}

TEST(ShardedMonitor, ConstructorValidatesShardDimensions) {
  ShardPlan plan = ShardPlan::contiguous(8, 2);
  std::vector<std::unique_ptr<Monitor>> wrong;
  wrong.push_back(std::make_unique<MinMaxMonitor>(4));
  wrong.push_back(std::make_unique<MinMaxMonitor>(3));  // needs 4
  EXPECT_THROW(ShardedMonitor(plan, std::move(wrong)),
               std::invalid_argument);
  std::vector<std::unique_ptr<Monitor>> short_list;
  short_list.push_back(std::make_unique<MinMaxMonitor>(4));
  EXPECT_THROW(ShardedMonitor(plan, std::move(short_list)),
               std::invalid_argument);
}

TEST(ShardedMonitor, ShardStatsReportPerShardShape) {
  Rng rng(828);
  const std::size_t dim = 12;
  ShardedMonitor sharded = ShardedMonitor::interval(
      ShardPlan::contiguous(dim, 3), random_spec(dim, 2, rng));
  FeatureBatch train(dim, 10);
  for (std::size_t i = 0; i < 10; ++i) {
    train.set_sample(i, random_feature(dim, rng));
  }
  sharded.observe_batch(train);
  const auto stats = sharded.shard_stats();
  ASSERT_EQ(stats.size(), 3U);
  std::size_t neurons = 0;
  for (const auto& st : stats) {
    neurons += st.neurons;
    EXPECT_EQ(st.cubes_inserted, 10U);
    EXPECT_GT(st.bdd_nodes, 0U);
    EXPECT_GT(st.patterns, 0.0);
    EXPECT_FALSE(st.description.empty());
  }
  EXPECT_EQ(neurons, dim);
  EXPECT_GT(sharded.total_bdd_nodes(), 0U);
}

// ---- serialisation ---------------------------------------------------------

ShardedMonitor build_sharded_for_io(ShardStrategy strategy, Rng& rng) {
  const std::size_t dim = 10;
  const ShardPlan plan = ShardPlan::make(strategy, dim, 3, 17);
  ShardedMonitor monitor =
      ShardedMonitor::interval(plan, random_spec(dim, 2, rng));
  FeatureBatch train(dim, 12);
  for (std::size_t i = 0; i < 12; ++i) {
    train.set_sample(i, random_feature(dim, rng));
  }
  monitor.observe_batch(train);
  return monitor;
}

TEST(ShardedMonitorIo, SaveLoadSaveIsByteIdentical) {
  Rng rng(911);
  for (const ShardStrategy strategy :
       {ShardStrategy::kContiguous, ShardStrategy::kRoundRobin,
        ShardStrategy::kShuffled}) {
    const ShardedMonitor original = build_sharded_for_io(strategy, rng);
    std::stringstream first;
    save_monitor(first, original);
    ShardedMonitor loaded = load_sharded_monitor(first);
    EXPECT_TRUE(loaded.plan() == original.plan());
    EXPECT_EQ(loaded.observation_count(), original.observation_count());
    EXPECT_EQ(loaded.shard_count(), original.shard_count());
    std::stringstream second;
    save_monitor(second, loaded);
    EXPECT_EQ(first.str(), second.str())
        << "strategy " << int(strategy);
    // And the loaded monitor answers identically.
    for (int q = 0; q < 50; ++q) {
      const std::vector<float> v = random_feature(10, rng);
      EXPECT_EQ(loaded.contains(v), original.contains(v));
    }
  }
}

TEST(ShardedMonitorIo, LoadAnyMonitorDispatchesShardedAndLegacy) {
  Rng rng(912);
  const ShardedMonitor original =
      build_sharded_for_io(ShardStrategy::kContiguous, rng);
  std::stringstream sharded_stream;
  save_any_monitor(sharded_stream, original);
  const auto loaded = load_any_monitor(sharded_stream);
  const auto* as_sharded = dynamic_cast<const ShardedMonitor*>(loaded.get());
  ASSERT_NE(as_sharded, nullptr);
  EXPECT_EQ(as_sharded->dimension(), original.dimension());

  // Legacy single-monitor streams still load through the same entry.
  MinMaxMonitor legacy(5);
  legacy.observe(std::vector<float>{1, 2, 3, 4, 5});
  std::stringstream legacy_stream;
  save_any_monitor(legacy_stream, legacy);
  const auto legacy_loaded = load_any_monitor(legacy_stream);
  EXPECT_NE(dynamic_cast<const MinMaxMonitor*>(legacy_loaded.get()),
            nullptr);
}

TEST(ShardedMonitorIo, CorruptedHeadersAreRejected) {
  Rng rng(913);
  const ShardedMonitor original =
      build_sharded_for_io(ShardStrategy::kContiguous, rng);
  std::stringstream out;
  save_monitor(out, original);
  const std::string bytes = out.str();

  // Truncated stream.
  std::stringstream truncated(bytes.substr(0, bytes.size() / 2));
  EXPECT_THROW((void)load_sharded_monitor(truncated), std::runtime_error);

  // Corrupted shard count (offset: magic + version + dim).
  std::string corrupt = bytes;
  corrupt[4 + 4 + 8] = char(0xFF);
  std::stringstream corrupted(corrupt);
  EXPECT_THROW((void)load_sharded_monitor(corrupted), std::runtime_error);

  // Wrong magic routed to the sharded loader.
  std::string wrong_magic = bytes;
  wrong_magic[0] = 'X';
  std::stringstream wrong(wrong_magic);
  EXPECT_THROW((void)load_sharded_monitor(wrong), std::runtime_error);
}

TEST(ShardedMonitorIo, HugeShardCountHeaderRejectedBeforeAllocation) {
  // dim = shard_count = 2^24 passes a dim-only bound but must be caught
  // by the shard-count cap before the loader sizes 16M group vectors.
  std::stringstream s;
  auto put_u32 = [&s](std::uint32_t v) {
    s.write(reinterpret_cast<const char*>(&v), sizeof v);
  };
  auto put_u64 = [&s](std::uint64_t v) {
    s.write(reinterpret_cast<const char*>(&v), sizeof v);
  };
  put_u32(0x52534831U);  // RSH1
  put_u32(1);            // version
  put_u64(1ULL << 24);   // dim
  put_u64(1ULL << 24);   // shard_count
  put_u32(0);            // strategy
  put_u64(0);            // seed
  put_u64(0);            // observations
  EXPECT_THROW((void)load_sharded_monitor(s), std::runtime_error);
}

TEST(ShardedMonitorIo, NestedShardedMonitorsAreRejectedOnSave) {
  ShardPlan inner_plan = ShardPlan::contiguous(4, 2);
  auto inner = std::make_unique<ShardedMonitor>(
      ShardedMonitor::minmax(std::move(inner_plan)));
  std::vector<std::unique_ptr<Monitor>> shards;
  shards.push_back(std::move(inner));
  ShardedMonitor nested(ShardPlan::contiguous(4, 1), std::move(shards));
  std::stringstream out;
  EXPECT_THROW(save_monitor(out, nested), std::invalid_argument);
  // All-or-nothing: the failed save must not leave a partial artifact.
  EXPECT_TRUE(out.str().empty());
}

}  // namespace
}  // namespace ranm
