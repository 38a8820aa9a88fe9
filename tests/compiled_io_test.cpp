// RCM1 compiled-monitor artifact: round-trips and loader robustness.
//
// Mirrors the protocol/serialize robustness suites: the loader is the
// trust boundary for artifacts copied onto the vehicle, so a corrupted or
// truncated stream must fail with std::runtime_error — never crash, never
// allocate from an unvalidated count, and never yield a monitor whose
// evaluation walks out of bounds. Also asserts save -> load -> save
// byte-identity and verdict equality across the round-trip, including
// through the type-erased load_any_monitor dispatch.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <sstream>
#include <vector>

#include "compile/compiled_io.hpp"
#include "compile/lower.hpp"
#include "core/interval_monitor.hpp"
#include "core/minmax_monitor.hpp"
#include "core/neuron_stats.hpp"
#include "core/sharded_monitor.hpp"
#include "io/serialize.hpp"
#include "io/wire.hpp"
#include "util/rng.hpp"

namespace ranm {
namespace {

using compile::compile_monitor;
using compile::CompiledMonitor;
using compile::CompileOptions;

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

/// A sharded interval build: exercises cube programs (robust shards tend
/// to cover) and BDD programs, plus the per-shard neuron lists.
CompiledMonitor make_sharded_compiled(Rng& rng, std::size_t cube_limit) {
  const std::size_t dim = 10;
  ShardedMonitor source = ShardedMonitor::interval(
      ShardPlan::contiguous(dim, 3), random_spec(dim, 2, rng));
  for (int i = 0; i < 12; ++i) source.observe(random_feature(dim, rng));
  return compile_monitor(source, CompileOptions{cube_limit});
}

/// A flat min-max build: exercises the box program and the identity
/// (empty neuron list) shard encoding.
CompiledMonitor make_box_compiled(Rng& rng) {
  const std::size_t dim = 7;
  MinMaxMonitor source(dim);
  for (int i = 0; i < 12; ++i) source.observe(random_feature(dim, rng));
  return compile_monitor(source);
}

std::string save_to_string(const CompiledMonitor& monitor) {
  std::ostringstream out(std::ios::binary);
  compile::save_compiled_monitor(out, monitor);
  return out.str();
}

void expect_same_verdicts(const CompiledMonitor& a, const Monitor& b,
                          Rng& rng) {
  ASSERT_EQ(a.dimension(), b.dimension());
  const std::size_t dim = a.dimension();
  for (int i = 0; i < 40; ++i) {
    std::vector<float> v = random_feature(dim, rng);
    if (i % 5 == 1) {
      v[rng.below(dim)] = std::numeric_limits<float>::quiet_NaN();
    }
    EXPECT_EQ(a.contains(v), b.contains(v)) << "query " << i;
  }
}

TEST(CompiledIo, RoundTripIsByteIdenticalAndVerdictPreserving) {
  Rng rng(2024);
  for (const std::size_t cube_limit : {std::size_t(64), std::size_t(0)}) {
    SCOPED_TRACE("cube_limit=" + std::to_string(cube_limit));
    for (const bool box : {false, true}) {
      const CompiledMonitor original =
          box ? make_box_compiled(rng) : make_sharded_compiled(rng, cube_limit);
      const std::string bytes = save_to_string(original);
      std::istringstream in(bytes, std::ios::binary);
      const CompiledMonitor loaded = compile::load_compiled_monitor(in);
      EXPECT_EQ(loaded.shard_count(), original.shard_count());
      EXPECT_EQ(loaded.source(), original.source());
      EXPECT_EQ(loaded.total_nodes(), original.total_nodes());
      EXPECT_EQ(loaded.total_cubes(), original.total_cubes());
      EXPECT_EQ(save_to_string(loaded), bytes) << "second save diverged";
      expect_same_verdicts(loaded, original, rng);
    }
  }
}

TEST(CompiledIo, LoadAnyMonitorDispatchesOnMagic) {
  Rng rng(88);
  const CompiledMonitor original = make_sharded_compiled(rng, 64);
  std::ostringstream out(std::ios::binary);
  save_any_monitor(out, original);
  std::istringstream in(out.str(), std::ios::binary);
  const std::unique_ptr<Monitor> loaded = load_any_monitor(in);
  ASSERT_NE(loaded, nullptr);
  const auto* compiled = dynamic_cast<const CompiledMonitor*>(loaded.get());
  ASSERT_NE(compiled, nullptr);
  expect_same_verdicts(*compiled, original, rng);
}

TEST(CompiledIo, BadMagicIsRejected) {
  std::istringstream in(std::string("XXXXGARBAGE"), std::ios::binary);
  EXPECT_THROW((void)compile::load_compiled_monitor(in), std::runtime_error);
}

TEST(CompiledIo, EveryTruncationIsRejected) {
  Rng rng(512);
  const std::string bytes = save_to_string(make_sharded_compiled(rng, 64));
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::istringstream in(bytes.substr(0, len), std::ios::binary);
    EXPECT_THROW((void)compile::load_compiled_monitor(in),
                 std::runtime_error)
        << "prefix of " << len << " bytes parsed";
  }
}

TEST(CompiledIo, RandomCorruptionNeverCrashes) {
  Rng rng(7700);
  const std::string clean_sharded = save_to_string(
      make_sharded_compiled(rng, 64));
  const std::string clean_bdd = save_to_string(
      make_sharded_compiled(rng, 0));
  const std::string clean_box = save_to_string(make_box_compiled(rng));
  int survived = 0;
  for (int iter = 0; iter < 400; ++iter) {
    std::string bytes = iter % 3 == 0   ? clean_box
                        : iter % 3 == 1 ? clean_sharded
                                        : clean_bdd;
    const int flips = 1 + int(rng.below(8));
    for (int f = 0; f < flips; ++f) {
      bytes[rng.below(bytes.size())] ^= char(1 + rng.below(255));
    }
    if (rng.below(2) == 0) {
      bytes.resize(rng.below(bytes.size() + 1));
    }
    std::istringstream in(bytes, std::ios::binary);
    try {
      const CompiledMonitor loaded = compile::load_compiled_monitor(in);
      // A flip in a float payload can still parse; the result must at
      // least be structurally sound enough to evaluate safely.
      std::vector<float> v(loaded.dimension(), 0.25F);
      (void)loaded.contains(v);
      ++survived;
    } catch (const std::runtime_error&) {
      // The only acceptable failure mode.
    }
  }
  // Sanity: the fuzz actually exercised both branches.
  EXPECT_GT(survived, 0);
  EXPECT_LT(survived, 400);
}

// ---- hand-crafted hostile headers ----------------------------------------
//
// Each stream ends immediately after an oversized count. The loader must
// throw std::runtime_error from the count validation itself — if it tried
// to allocate or read the payload first, these would surface as
// bad_alloc, a hang, or a crash instead.

void write_preamble(std::ostream& out, std::uint64_t dim,
                    std::uint64_t shard_count) {
  io::write_pod(out, compile::kCompiledMagic);
  io::write_u32(out, 1);  // version
  io::write_u64(out, dim);
  io::write_u64(out, shard_count);
  io::write_string(out, "crafted");
}

TEST(CompiledIo, OversizedShardCountIsRejected) {
  std::ostringstream out(std::ios::binary);
  write_preamble(out, std::uint64_t(1) << 40, std::uint64_t(1) << 32);
  std::istringstream in(out.str(), std::ios::binary);
  EXPECT_THROW((void)compile::load_compiled_monitor(in), std::runtime_error);
}

TEST(CompiledIo, OversizedBoxCountIsRejectedBeforeAllocation) {
  std::ostringstream out(std::ios::binary);
  write_preamble(out, 4, 1);
  io::write_u64(out, 0);  // identity shard
  io::write_u32(out, 1);  // kind: box
  io::write_u64(out, 4);  // unit dim
  io::write_u64(out, std::uint64_t(1) << 60);  // num_boxes
  std::istringstream in(out.str(), std::ios::binary);
  EXPECT_THROW((void)compile::load_compiled_monitor(in), std::runtime_error);
}

TEST(CompiledIo, HugeBoxTimesDimProductIsRejectedBeforeAllocation) {
  std::ostringstream out(std::ios::binary);
  write_preamble(out, 4, 1);
  io::write_u64(out, 0);  // identity shard
  io::write_u32(out, 1);  // kind: box
  io::write_u64(out, 4);  // unit dim
  // Passes the per-count bound on its own; the num_boxes * dim product
  // must still be rejected before the lo/hi arrays are sized.
  io::write_u64(out, (std::uint64_t(1) << 26) - 1);
  std::istringstream in(out.str(), std::ios::binary);
  EXPECT_THROW((void)compile::load_compiled_monitor(in), std::runtime_error);
}

TEST(CompiledIo, OversizedBddNodeCountIsRejectedBeforeAllocation) {
  std::ostringstream out(std::ios::binary);
  write_preamble(out, 4, 1);
  io::write_u64(out, 0);  // identity shard
  io::write_u32(out, 3);  // kind: bdd
  io::write_u64(out, 4);  // unit dim
  io::write_u64(out, 1);  // coding bits
  for (int j = 0; j < 4; ++j) {
    io::write_pod(out, 0.0F);             // threshold value
    io::write_pod(out, std::uint8_t(1));  // inclusive flag
  }
  io::write_u64(out, std::uint64_t(1) << 50);  // node_count
  std::istringstream in(out.str(), std::ios::binary);
  EXPECT_THROW((void)compile::load_compiled_monitor(in), std::runtime_error);
}

TEST(CompiledIo, BackwardBddChildRefIsRejected) {
  std::ostringstream out(std::ios::binary);
  write_preamble(out, 2, 1);
  io::write_u64(out, 0);  // identity shard
  io::write_u32(out, 3);  // kind: bdd
  io::write_u64(out, 2);  // unit dim
  io::write_u64(out, 1);  // coding bits
  for (int j = 0; j < 2; ++j) {
    io::write_pod(out, 0.0F);
    io::write_pod(out, std::uint8_t(1));
  }
  io::write_u64(out, 2);  // node_count
  io::write_u32(out, 2);  // root -> nodes[0]
  io::write_u32(out, 0);  // node 0: var
  io::write_u32(out, 3);  //   lo -> nodes[1] (forward, fine)
  io::write_u32(out, 1);  //   hi -> TRUE
  io::write_u32(out, 1);  // node 1: var
  io::write_u32(out, 2);  //   lo -> nodes[0]: backward edge, a cycle
  io::write_u32(out, 1);  //   hi -> TRUE
  std::istringstream in(out.str(), std::ios::binary);
  EXPECT_THROW((void)compile::load_compiled_monitor(in), std::runtime_error);
}

}  // namespace
}  // namespace ranm
