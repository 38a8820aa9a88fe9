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

#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
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

/// A sharded interval build over 3 shards, with per-shard neuron lists.
/// Twelve points cover in cubes. With `node_array`, one more box whose
/// code range on every neuron, [1, 2], is not an aligned block gives each
/// 7-neuron shard a cover of 2^7 cubes, past the cube limit, so every
/// shard lowers to a BDD node array.
CompiledMonitor make_sharded_compiled(Rng& rng, bool node_array) {
  const std::size_t dim = node_array ? 21 : 10;
  const std::vector<float> c1(dim, -1.0F), c2(dim, 0.0F), c3(dim, 1.0F);
  ShardedMonitor source = ShardedMonitor::interval(
      ShardPlan::contiguous(dim, 3),
      node_array ? ThresholdSpec::paper_two_bit(c1, c2, c3)
                 : random_spec(dim, 2, rng));
  for (int i = 0; i < 12; ++i) source.observe(random_feature(dim, rng));
  if (node_array) {
    source.observe_bounds(std::vector<float>(dim, -0.5F),
                          std::vector<float>(dim, 0.5F));
  }
  return compile_monitor(source);
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
  for (const bool node_array : {false, true}) {
    SCOPED_TRACE(node_array ? "node arrays" : "cubes");
    for (const bool box : {false, true}) {
      const CompiledMonitor original =
          box ? make_box_compiled(rng) : make_sharded_compiled(rng, node_array);
      if (!box) {
        EXPECT_EQ(original.total_nodes() > 0, node_array);
        EXPECT_EQ(original.total_cubes() == 0, node_array);
      }
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
  const CompiledMonitor original = make_sharded_compiled(rng, false);
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
  const std::string bytes = save_to_string(make_sharded_compiled(rng, false));
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
      make_sharded_compiled(rng, false));
  const std::string clean_bdd = save_to_string(
      make_sharded_compiled(rng, true));
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

// ---- coding-table validation --------------------------------------------
//
// The coding table is a ThresholdSpec: a flag other than 0 or 1 would read
// as inclusive to one coder and exclusive to another, and unordered or NaN
// thresholds break the monotone codes every engine assumes.

/// A one-shard cube artifact over `values.size() / (2^bits - 1)` neurons
/// with the given table and one all-zero cube.
std::string crafted_cube_artifact(std::size_t bits,
                                  const std::vector<float>& values,
                                  const std::vector<std::uint8_t>& flags) {
  const std::size_t dim = values.size() / ((std::size_t(1) << bits) - 1);
  std::ostringstream out(std::ios::binary);
  write_preamble(out, dim, 1);
  io::write_u64(out, 0);    // identity shard
  io::write_u32(out, 2);    // kind: cube
  io::write_u64(out, dim);  // unit dim
  io::write_u64(out, bits);
  for (std::size_t k = 0; k < values.size(); ++k) {
    io::write_pod(out, values[k]);
    io::write_pod(out, flags[k]);
  }
  io::write_u64(out, 1);  // num_cubes
  io::write_u64(out, 0);  // mask
  io::write_u64(out, 0);  // value
  return out.str();
}

bool loads(const std::string& bytes) {
  std::istringstream in(bytes, std::ios::binary);
  try {
    (void)compile::load_compiled_monitor(in);
    return true;
  } catch (const std::runtime_error&) {
    return false;
  }
}

TEST(CompiledIo, InclusiveFlagOtherThanZeroOrOneIsRejected) {
  EXPECT_TRUE(loads(crafted_cube_artifact(1, {0.0F, 0.0F}, {1, 0})));
  EXPECT_FALSE(loads(crafted_cube_artifact(1, {0.0F, 0.0F}, {1, 2})));
  EXPECT_FALSE(loads(crafted_cube_artifact(1, {0.0F, 0.0F}, {255, 1})));
  // The same table bytes in a monitor artifact (RTS1 inside RMO1).
  IntervalMonitor onoff(ThresholdSpec::onoff(std::vector<float>{0.0F}));
  onoff.observe(std::vector<float>{1.0F});
  std::ostringstream out(std::ios::binary);
  save_any_monitor(out, onoff);
  std::string bytes = out.str();
  // magic, tag, spec magic, dim, bits, then the first (value, flag).
  const std::size_t flag_at = 4 + 4 + 4 + 8 + 8 + 4;
  ASSERT_EQ(bytes[flag_at], 1);
  bytes[flag_at] = 2;
  std::istringstream in(bytes, std::ios::binary);
  EXPECT_THROW((void)load_any_monitor(in), std::runtime_error);
}

TEST(CompiledIo, UnorderedOrNanThresholdsAreRejected) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_TRUE(loads(crafted_cube_artifact(2, {0.0F, 1.0F, 2.0F}, {1, 0, 1})));
  EXPECT_FALSE(loads(crafted_cube_artifact(2, {0.0F, 2.0F, 1.0F}, {1, 0, 1})));
  EXPECT_FALSE(loads(crafted_cube_artifact(2, {0.0F, 1.0F, 1.0F}, {1, 0, 1})));
  EXPECT_FALSE(loads(crafted_cube_artifact(2, {0.0F, nan, 2.0F}, {1, 0, 1})));
  EXPECT_FALSE(loads(crafted_cube_artifact(1, {nan, 0.0F}, {1, 1})));
}

// The committed valid monitor seeds of fuzz/corpus (written by
// tools/make_corpus) load and re-save byte for byte: the RCM1 and
// threshold-table bytes a saved monitor holds do not drift.
TEST(CompiledIo, CommittedMonitorSeedsResaveByteIdentically) {
  for (const char* name :
       {"compiled_box", "compiled_cubes", "compiled_bdd", "compiled_sharded",
        "interval", "onoff", "sharded", "minmax"}) {
    SCOPED_TRACE(name);
    std::ifstream file(std::string(RANM_CORPUS_DIR) + "/monitor/" + name,
                       std::ios::binary);
    ASSERT_TRUE(file) << "missing seed";
    const std::string bytes((std::istreambuf_iterator<char>(file)),
                            std::istreambuf_iterator<char>());
    std::istringstream in(bytes, std::ios::binary);
    const std::unique_ptr<Monitor> loaded = load_any_monitor(in);
    std::ostringstream out(std::ios::binary);
    save_any_monitor(out, *loaded);
    EXPECT_EQ(out.str(), bytes);
  }
}

}  // namespace
}  // namespace ranm
