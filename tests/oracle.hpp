// The verdict oracle for the BDD monitor family (IntervalMonitor, on-off
// included, flat or sharded).
//
// One reference, the scalar `contains` of each sample, and every engine
// that must agree with it bit for bit:
//   - the interpreted `contains_batch` (the scalar fallback below
//     compile::kSmallBatch, the lazily lowered program above it);
//   - the `compile_monitor` program, batched and one sample at a time;
//   - that program after an RCM1 save and load.
//
// Probes hit the places where coders can part ways: values exactly at a
// threshold under either inclusive flag, +0 and -0, +-inf (also as
// thresholds) and NaN. Thresholds sit on a grid of quarters so that random
// probes and observations land on them often. The observation counts are
// chosen so that some builds lower to a cube program and others need more
// than the cube limit, so both lowerings are checked.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "compile/compiled_io.hpp"
#include "compile/lower.hpp"
#include "core/interval_monitor.hpp"
#include "core/sharded_monitor.hpp"
#include "util/rng.hpp"

namespace ranm::oracle {

/// Batch sizes every engine is checked at: below, at and above
/// compile::kSmallBatch, and both sides of a 32-sample block.
inline constexpr std::size_t kBatchSizes[] = {1, 3, 8, 32, 33};

/// Threshold grid: -inf, the quarters of [-2, 2], +inf.
inline float grid_value(std::size_t k) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  if (k == 0) return -kInf;
  if (k == 18) return kInf;
  return float(int(k) - 9) * 0.25F;
}
inline constexpr std::size_t kGridSize = 19;

/// `bits`-bit thresholds for `dim` neurons: 2^bits - 1 distinct grid
/// values per neuron, ascending, each with a random inclusive flag.
inline ThresholdSpec random_spec(std::size_t dim, std::size_t bits,
                                 Rng& rng) {
  const std::size_t m = (std::size_t(1) << bits) - 1;
  std::vector<float> values;
  std::vector<std::uint8_t> inclusive;
  for (std::size_t j = 0; j < dim; ++j) {
    std::vector<std::size_t> grid(kGridSize);
    for (std::size_t k = 0; k < kGridSize; ++k) grid[k] = k;
    for (std::size_t k = 0; k < m; ++k) {
      std::swap(grid[k], grid[k + rng.below(kGridSize - k)]);
    }
    std::sort(grid.begin(), grid.begin() + std::ptrdiff_t(m));
    for (std::size_t k = 0; k < m; ++k) {
      values.push_back(grid_value(grid[k]));
      inclusive.push_back(std::uint8_t(rng.below(2)));
    }
  }
  return ThresholdSpec(bits, std::move(values), std::move(inclusive));
}

/// One probe value: a finite grid point (often exactly a threshold), a
/// uniform value in [-2.5, 2.5], or one of +0, -0, +inf, -inf and NaN
/// (NaN only when `with_nan`).
inline float probe_value(Rng& rng, bool with_nan = true) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  switch (rng.below(with_nan ? 8 : 7)) {
    case 0:
    case 1:
    case 2:
      return grid_value(1 + rng.below(kGridSize - 2));
    case 3:
    case 4:
      return rng.uniform_f(-2.5F, 2.5F);
    case 5:
      return rng.below(2) == 0 ? 0.0F : -0.0F;
    case 6:
      return rng.below(2) == 0 ? kInf : -kInf;
    default:
      return std::numeric_limits<float>::quiet_NaN();
  }
}

/// Feeds `count` observations into `monitor`: points, or for a robust
/// build boxes of half-width 0, a grid step or a random width around them
/// (code ranges that are aligned blocks and ranges that are not). Returns
/// the points, which every build contains.
inline std::vector<std::vector<float>> observe(Monitor& monitor, bool robust,
                                               std::size_t count, Rng& rng) {
  const std::size_t dim = monitor.dimension();
  std::vector<std::vector<float>> stored;
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<float> v(dim);
    for (auto& x : v) x = probe_value(rng, /*with_nan=*/false);
    if (robust) {
      std::vector<float> lo(v), hi(v);
      for (std::size_t j = 0; j < dim; ++j) {
        const std::uint64_t pick = rng.below(3);
        const float d = pick == 0   ? 0.0F
                        : pick == 1 ? 0.25F
                                    : rng.uniform_f(0.0F, 0.6F);
        lo[j] -= d;
        hi[j] += d;
      }
      monitor.observe_bounds(lo, hi);
    } else {
      monitor.observe(v);
    }
    stored.push_back(std::move(v));
  }
  return stored;
}

/// One probe batch per size in kBatchSizes: every third column a stored
/// point (a guaranteed member), the rest probe values.
inline std::vector<FeatureBatch> probe_batches(
    std::size_t dim, const std::vector<std::vector<float>>& stored,
    Rng& rng) {
  std::vector<FeatureBatch> batches;
  for (const std::size_t n : kBatchSizes) {
    FeatureBatch batch(dim, n);
    std::vector<float> v(dim);
    for (std::size_t i = 0; i < n; ++i) {
      if (i % 3 == 0 && !stored.empty()) {
        v = stored[rng.below(stored.size())];
      } else {
        for (auto& x : v) x = probe_value(rng);
      }
      batch.set_sample(i, v);
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

/// Asserts that every engine agrees with the scalar `contains` of
/// `monitor` on every column of every probe batch. The compiled monitors
/// query with `threads` threads. Returns the program kinds the lowering
/// produced, one per shard.
inline std::set<compile::ProgramKind> expect_engines_agree(
    const Monitor& monitor, const std::vector<FeatureBatch>& probes,
    std::size_t threads = 1) {
  compile::CompiledMonitor compiled = compile::compile_monitor(monitor);
  std::stringstream bytes(std::ios::in | std::ios::out | std::ios::binary);
  compile::save_compiled_monitor(bytes, compiled);
  compile::CompiledMonitor loaded = compile::load_compiled_monitor(bytes);
  compiled.set_threads(threads);
  loaded.set_threads(threads);
  std::set<compile::ProgramKind> kinds;
  for (const compile::Shard& sh : compiled.shards()) {
    kinds.insert(sh.unit.kind);
  }
  const std::size_t dim = monitor.dimension();
  std::vector<float> sample(dim);
  for (const FeatureBatch& batch : probes) {
    const std::size_t n = batch.size();
    auto interpreted = std::make_unique<bool[]>(n);
    auto program = std::make_unique<bool[]>(n);
    auto reloaded = std::make_unique<bool[]>(n);
    monitor.contains_batch(batch, {interpreted.get(), n});
    compiled.contains_batch(batch, {program.get(), n});
    loaded.contains_batch(batch, {reloaded.get(), n});
    for (std::size_t i = 0; i < n; ++i) {
      batch.copy_sample(i, sample);
      const bool want = monitor.contains(sample);
      const std::string at =
          "batch " + std::to_string(n) + " sample " + std::to_string(i);
      EXPECT_EQ(interpreted[i], want) << "interpreted contains_batch, " << at;
      EXPECT_EQ(program[i], want) << "compiled contains_batch, " << at;
      EXPECT_EQ(compiled.contains(sample), want) << "compiled contains, " << at;
      EXPECT_EQ(reloaded[i], want) << "RCM1 contains_batch, " << at;
      EXPECT_EQ(loaded.contains(sample), want) << "RCM1 contains, " << at;
    }
  }
  return kinds;
}

/// One cell of the oracle's matrix.
struct IntervalCase {
  std::size_t bits = 1;
  bool robust = false;
  std::size_t shards = 1;  // 1 = a flat IntervalMonitor
  std::size_t observations = 10;
  std::uint64_t seed = 1;
};

inline std::string describe(const IntervalCase& c) {
  return "bits=" + std::to_string(c.bits) +
         (c.robust ? " robust" : " standard") +
         " shards=" + std::to_string(c.shards) +
         " observations=" + std::to_string(c.observations) +
         " seed=" + std::to_string(c.seed);
}

/// Builds the case's monitor (about 10 code bits per shard), observes,
/// and checks every engine on fresh probes; returns the program kinds.
inline std::set<compile::ProgramKind> check_interval_case(
    const IntervalCase& c, std::size_t threads = 1) {
  SCOPED_TRACE(describe(c));
  Rng rng(c.seed);
  const std::size_t per_shard = c.bits == 1 ? 10 : c.bits == 2 ? 5 : 4;
  const std::size_t dim = per_shard * c.shards;
  const ThresholdSpec spec = random_spec(dim, c.bits, rng);
  std::unique_ptr<Monitor> monitor;
  if (c.shards == 1) {
    monitor = std::make_unique<IntervalMonitor>(spec);
  } else {
    monitor = std::make_unique<ShardedMonitor>(ShardedMonitor::interval(
        ShardPlan::make(ShardStrategy::kRoundRobin, dim, c.shards), spec));
  }
  const auto stored = observe(*monitor, c.robust, c.observations, rng);
  return expect_engines_agree(*monitor, probe_batches(dim, stored, rng),
                              threads);
}

/// The matrix at `bits`: standard and robust, flat and 4-shard, with few
/// observations (a cube cover) and many (more cubes than the limit).
/// Asserts that both lowerings were reached.
inline void check_interval_matrix(std::size_t bits, std::uint64_t seed) {
  std::set<compile::ProgramKind> kinds;
  for (const bool robust : {false, true}) {
    for (const std::size_t shards : {1UL, 4UL}) {
      for (const std::size_t observations : {6UL, 150UL}) {
        const auto got = check_interval_case(
            {bits, robust, shards, observations, seed++});
        kinds.insert(got.begin(), got.end());
      }
    }
  }
  EXPECT_TRUE(kinds.count(compile::ProgramKind::kCube) != 0)
      << "bits=" << bits << ": no case lowered to a cube program";
  EXPECT_TRUE(kinds.count(compile::ProgramKind::kBdd) != 0)
      << "bits=" << bits << ": no case lowered to a node array";
}

}  // namespace ranm::oracle
