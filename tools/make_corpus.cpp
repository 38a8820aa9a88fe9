// Deterministic seed-corpus generator for the fuzz/ harnesses.
//
//   make_corpus <output-dir>
//
// Writes fuzz/corpus/{monitor,network,dataset,frame,bdd}/ seeds:
// one valid artifact per decoder family (so the fuzzers start from
// deep, structurally-correct inputs instead of discovering the magic
// bytes themselves) plus hostile variants mirroring the loader-hardening
// tests — bad magic, implausible dimensions and counts, truncations,
// forward references, trailing garbage — and deterministic single-byte
// corruptions of every valid seed. Each generator draws from its own
// fixed-seed Rng, so regenerating the corpus is byte-stable, adding or
// removing a generator leaves every other seed's bytes unchanged, and
// `git diff` stays quiet unless a serializer actually changed.
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "bdd/bdd_io.hpp"
#include "compile/lower.hpp"
#include "core/interval_monitor.hpp"
#include "core/minmax_monitor.hpp"
#include "core/shard_plan.hpp"
#include "core/sharded_monitor.hpp"
#include "core/threshold_spec.hpp"
#include "data/dataset.hpp"
#include "io/serialize.hpp"
#include "nn/activations.hpp"
#include "nn/flatten.hpp"
#include "nn/init.hpp"
#include "nn/network.hpp"
#include "nn/normalization.hpp"
#include "nn/pooling.hpp"
#include "serve/protocol.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace {

namespace fs = std::filesystem;

fs::path g_out_root;

void write_seed(const std::string& family, const std::string& name,
                const std::string& bytes) {
  const fs::path dir = g_out_root / family;
  fs::create_directories(dir);
  const fs::path path = dir / name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    std::fprintf(stderr, "make_corpus: cannot write %s\n", path.c_str());
    std::exit(1);
  }
}

/// Valid seed plus deterministic mutants: truncation at half/last byte
/// and a bit-flip a third of the way in. The mutants exercise the
/// truncated-stream and corrupted-field rejection paths from known-good
/// surroundings, which pure random inputs reach only rarely.
void write_seed_with_mutants(const std::string& family,
                             const std::string& name,
                             const std::string& bytes) {
  write_seed(family, name, bytes);
  if (bytes.size() < 4) return;
  write_seed(family, name + ".trunc_half",
             bytes.substr(0, bytes.size() / 2));
  write_seed(family, name + ".trunc_last",
             bytes.substr(0, bytes.size() - 1));
  std::string flipped = bytes;
  flipped[flipped.size() / 3] =
      static_cast<char>(flipped[flipped.size() / 3] ^ 0x40);
  write_seed(family, name + ".bitflip", flipped);
}

void put_u32(std::string& out, std::uint32_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}
void put_u64(std::string& out, std::uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

template <typename SaveFn>
std::string serialized(SaveFn&& save) {
  std::ostringstream out(std::ios::binary);
  save(out);
  return out.str();
}

std::vector<float> random_vec(std::size_t n, ranm::Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = rng.uniform_f(-2.0F, 2.0F);
  return v;
}

ranm::ThresholdSpec two_bit_spec(std::size_t dim) {
  const std::vector<float> lo(dim, -1.0F);
  const std::vector<float> mid(dim, 0.0F);
  const std::vector<float> hi(dim, 1.0F);
  return ranm::ThresholdSpec::paper_two_bit(lo, mid, hi);
}

// --- monitor -------------------------------------------------------------

void emit_monitor_corpus() {
  ranm::MinMaxMonitor minmax(6);
  ranm::Rng minmax_rng(41);
  for (int i = 0; i < 8; ++i) {
    const auto v = random_vec(6, minmax_rng);
    minmax.observe(v);
  }
  write_seed_with_mutants("monitor", "minmax", serialized([&](auto& out) {
                            ranm::save_any_monitor(out, minmax);
                          }));

  // The on-off monitor is the 1-bit interval monitor; its artifact keeps
  // the on-off tag.
  ranm::IntervalMonitor onoff(
      ranm::ThresholdSpec::onoff(std::vector<float>(5, 0.0F)));
  ranm::Rng onoff_rng(42);
  for (int i = 0; i < 12; ++i) {
    const auto v = random_vec(5, onoff_rng);
    onoff.observe(v);
  }
  write_seed_with_mutants("monitor", "onoff", serialized([&](auto& out) {
                            ranm::save_any_monitor(out, onoff);
                          }));

  ranm::IntervalMonitor interval(two_bit_spec(4));
  ranm::Rng interval_rng(44);
  for (int i = 0; i < 6; ++i) {
    const auto v = random_vec(4, interval_rng);
    interval.observe(v);
  }
  const std::vector<float> blo(4, -0.5F);
  const std::vector<float> bhi(4, 0.5F);
  interval.observe_bounds(blo, bhi);
  write_seed_with_mutants("monitor", "interval", serialized([&](auto& out) {
                            ranm::save_any_monitor(out, interval);
                          }));

  // Sharded container (RSH1): shard plan + per-shard flat payloads.
  ranm::ShardedMonitor sharded = ranm::ShardedMonitor::interval(
      ranm::ShardPlan::shuffled(8, 3, 7), two_bit_spec(8));
  ranm::Rng sharded_rng(45);
  for (int i = 0; i < 10; ++i) {
    const auto v = random_vec(8, sharded_rng);
    sharded.observe(v);
  }
  write_seed_with_mutants("monitor", "sharded", serialized([&](auto& out) {
                            ranm::save_any_monitor(out, sharded);
                          }));

  // Compiled monitors (RCM1): one per program kind the lowerer emits.
  const ranm::compile::CompiledMonitor box =
      ranm::compile::compile_monitor(minmax);
  write_seed_with_mutants("monitor", "compiled_box",
                          serialized([&](auto& out) {
                            ranm::save_any_monitor(out, box);
                          }));
  const ranm::compile::CompiledMonitor cubes =
      ranm::compile::compile_monitor(interval);
  write_seed_with_mutants("monitor", "compiled_cubes",
                          serialized([&](auto& out) {
                            ranm::save_any_monitor(out, cubes);
                          }));
  // One box whose 2-bit code range is [1, 2] on each of 7 neurons: not an
  // aligned block, so each neuron splits every path in two, and the
  // 2^7-cube cover is past the cube limit. The set lowers to a node array.
  ranm::IntervalMonitor unaligned(two_bit_spec(7));
  unaligned.observe_bounds(std::vector<float>(7, -0.5F),
                           std::vector<float>(7, 0.5F));
  const ranm::compile::CompiledMonitor bddprog =
      ranm::compile::compile_monitor(unaligned);
  write_seed_with_mutants("monitor", "compiled_bdd",
                          serialized([&](auto& out) {
                            ranm::save_any_monitor(out, bddprog);
                          }));
  const ranm::compile::CompiledMonitor sharded_compiled =
      ranm::compile::compile_monitor(sharded);
  write_seed_with_mutants("monitor", "compiled_sharded",
                          serialized([&](auto& out) {
                            ranm::save_any_monitor(out, sharded_compiled);
                          }));

  // Hostile headers, mirroring the loader-hardening regression tests.
  std::string bad_magic;
  put_u32(bad_magic, 0x58585858U);  // "XXXX"
  write_seed("monitor", "hostile_bad_magic", bad_magic);

  std::string huge_dim;
  put_u32(huge_dim, 0x524D4F31U);  // RMO1
  put_u32(huge_dim, 1);            // MonitorTag::kMinMax
  put_u64(huge_dim, 1ULL << 60);   // dim
  put_u64(huge_dim, 0);            // observation count
  write_seed("monitor", "hostile_minmax_huge_dim", huge_dim);

  // Threshold-spec header claiming 2^24 neurons: sized the up-front
  // per-neuron allocation at ~400 MB before the cap fix; must reject.
  std::string huge_spec;
  put_u32(huge_spec, 0x524D4F31U);  // RMO1
  put_u32(huge_spec, 2);            // MonitorTag::kOnOff
  put_u32(huge_spec, 0x52545331U);  // RTS1 spec magic
  put_u64(huge_spec, 1ULL << 24);   // dim
  put_u64(huge_spec, 16);           // bits
  write_seed("monitor", "hostile_spec_huge_dim", huge_spec);

  // RCM1 coding tables that only a loader trusting the writer accepts: an
  // inclusive flag of 2 (an engine reading `!= 0` and one masking with it
  // would code a value on the threshold differently), and values that do
  // not ascend (a NaN threshold).
  const auto crafted_rcm1 = [](std::uint8_t flag, float threshold1) {
    std::string bytes;
    put_u32(bytes, 0x52434D31U);  // RCM1
    put_u32(bytes, 1);            // version
    put_u64(bytes, 2);            // dim
    put_u64(bytes, 1);            // shard_count
    put_u64(bytes, 7);            // source length
    bytes += "crafted";
    put_u64(bytes, 0);  // identity shard
    put_u32(bytes, 2);  // kind: cube
    put_u64(bytes, 2);  // unit dim
    put_u64(bytes, 1);  // coding bits
    for (const float value : {0.0F, threshold1}) {
      bytes.append(reinterpret_cast<const char*>(&value), sizeof value);
      bytes += static_cast<char>(flag);
    }
    put_u64(bytes, 1);  // num_cubes
    put_u64(bytes, 3);  // mask
    put_u64(bytes, 3);  // value
    return bytes;
  };
  write_seed("monitor", "hostile_compiled_inclusive_flag",
             crafted_rcm1(2, 0.5F));
  write_seed("monitor", "hostile_compiled_nan_threshold",
             crafted_rcm1(1, std::numeric_limits<float>::quiet_NaN()));

  std::string huge_shards;
  put_u32(huge_shards, 0x52534831U);  // RSH1
  put_u32(huge_shards, 1);            // version
  put_u64(huge_shards, 1ULL << 24);   // dim
  put_u64(huge_shards, 1ULL << 24);   // shard_count
  put_u32(huge_shards, 0);            // strategy
  put_u64(huge_shards, 0);            // seed
  put_u64(huge_shards, 0);            // observations
  write_seed("monitor", "hostile_sharded_huge_counts", huge_shards);
}

// --- network -------------------------------------------------------------

void emit_network_corpus() {
  ranm::Rng rng(43);

  ranm::Network mlp = ranm::make_mlp({4, 6, 3}, rng);
  write_seed_with_mutants("network", "mlp", serialized([&](auto& out) {
                            ranm::save_network(out, mlp);
                          }));

  // One single-layer network per remaining tag so every decoder branch
  // has a structurally-valid seed.
  ranm::Network pool;
  pool.emplace<ranm::MaxPool2D>(
      ranm::Pooling::Config{.channels = 2,
                            .in_height = 4,
                            .in_width = 4,
                            .window = 2,
                            .stride = 2});
  write_seed_with_mutants("network", "maxpool", serialized([&](auto& out) {
                            ranm::save_network(out, pool);
                          }));

  ranm::Network norm;
  norm.emplace<ranm::Normalization>(ranm::Shape{5},
                                    std::vector<float>(5, 0.5F),
                                    std::vector<float>(5, 2.0F));
  write_seed_with_mutants("network", "normalization",
                          serialized([&](auto& out) {
                            ranm::save_network(out, norm);
                          }));

  ranm::Network acts;
  acts.emplace<ranm::Flatten>(ranm::Shape{2, 3});
  acts.emplace<ranm::Sigmoid>(ranm::Shape{6});
  acts.emplace<ranm::Tanh>(ranm::Shape{6});
  write_seed_with_mutants("network", "activations",
                          serialized([&](auto& out) {
                            ranm::save_network(out, acts);
                          }));

  std::string bad_magic;
  put_u32(bad_magic, 0x21212121U);
  write_seed("network", "hostile_bad_magic", bad_magic);

  std::string huge_norm;
  put_u32(huge_norm, 0x524E4E31U);  // RNN1
  put_u64(huge_norm, 1);            // one layer
  put_u32(huge_norm, 10);           // LayerTag::kNormalization
  put_u64(huge_norm, 1);            // shape rank
  put_u64(huge_norm, 1ULL << 24);   // dim -> huge mean/inv_std vectors
  write_seed("network", "hostile_normalization_huge", huge_norm);
}

// --- dataset -------------------------------------------------------------

void emit_dataset_corpus() {
  ranm::Rng rng(47);

  ranm::Dataset ds;
  for (int i = 0; i < 3; ++i) {
    ds.inputs.push_back(
        ranm::Tensor::random_uniform(ranm::Shape{4}, rng));
    ds.targets.push_back(
        ranm::Tensor::random_uniform(ranm::Shape{2}, rng));
  }
  write_seed_with_mutants("dataset", "small", serialized([&](auto& out) {
                            ranm::save_dataset(out, ds);
                          }));

  const ranm::Dataset empty;
  write_seed("dataset", "empty", serialized([&](auto& out) {
               ranm::save_dataset(out, empty);
             }));

  std::string huge_count;
  put_u32(huge_count, 0x52445331U);  // RDS1
  put_u64(huge_count, 1ULL << 62);   // sample count, then EOF
  write_seed("dataset", "hostile_huge_count", huge_count);
}

// --- frame ---------------------------------------------------------------

void emit_frame_corpus() {
  ranm::Rng rng(53);
  using ranm::serve::FrameType;

  const auto framed = [](FrameType type, std::string_view payload) {
    std::ostringstream out(std::ios::binary);
    ranm::serve::write_frame(out, type, payload);
    return out.str();
  };

  std::vector<ranm::Tensor> inputs;
  inputs.push_back(ranm::Tensor::random_uniform(ranm::Shape{5}, rng));
  inputs.push_back(ranm::Tensor::random_uniform(ranm::Shape{5}, rng));
  write_seed_with_mutants(
      "frame", "query",
      framed(FrameType::kQuery, ranm::serve::encode_query(inputs)));

  const std::vector<std::uint8_t> warns{0, 1, 1, 0, 1};
  write_seed_with_mutants(
      "frame", "verdicts",
      framed(FrameType::kQueryReply, ranm::serve::encode_verdicts(warns)));

  ranm::serve::ServiceStats stats;
  stats.monitor = "interval(paper_two_bit)";
  stats.dimension = 8;
  stats.layer = 1;
  stats.threads = 2;
  stats.queries = 10;
  stats.samples = 20;
  stats.warnings = 3;
  stats.workers = {{.queries = 6, .samples = 12, .warnings = 2},
                   {.queries = 4, .samples = 8, .warnings = 1}};
  stats.overloaded = 0;
  stats.generation = 3;
  stats.staged_samples = 40;
  stats.swaps = 2;
  stats.rollbacks = 1;
  stats.rolling_samples = 64;
  stats.rolling_warnings = 9;
  stats.shard_strategy = "shuffled";
  stats.shard_seed = 7;
  stats.shards = {
      {.neurons = 3, .bdd_nodes = 9, .cubes_inserted = 5, .novel = 2},
      {.neurons = 5, .bdd_nodes = 14, .cubes_inserted = 8, .novel = 0}};
  write_seed_with_mutants(
      "frame", "stats",
      framed(FrameType::kStatsReply, ranm::serve::encode_stats(stats)));

  write_seed_with_mutants(
      "frame", "error",
      framed(FrameType::kError,
             ranm::serve::encode_error("monitor dimension mismatch")));
  write_seed("frame", "overloaded",
             framed(FrameType::kOverloaded,
                    ranm::serve::encode_error("queue full")));
  write_seed("frame", "stats_request", framed(FrameType::kStats, {}));
  write_seed("frame", "shutdown", framed(FrameType::kShutdown, {}));

  // Monitor-lifecycle frames (observe/swap/rollback and their replies).
  write_seed_with_mutants(
      "frame", "observe",
      framed(FrameType::kObserve, ranm::serve::encode_query(inputs)));
  write_seed_with_mutants(
      "frame", "observe_reply",
      framed(FrameType::kObserveReply,
             ranm::serve::encode_observe_reply(
                 {.accepted = 2, .staged_total = 10, .novel = 1})));
  write_seed("frame", "swap", framed(FrameType::kSwap, {}));
  write_seed_with_mutants(
      "frame", "swap_reply",
      framed(FrameType::kSwapReply,
             ranm::serve::encode_swap_reply(
                 {.generation = 2,
                  .staged_applied = 10,
                  .duration_us = 1234,
                  .monitor = "interval(paper_two_bit)"})));
  write_seed_with_mutants(
      "frame", "rollback",
      framed(FrameType::kRollback, ranm::serve::encode_rollback(2)));
  // A rollback target no store will ever hold: the decoder must accept it
  // (any u64 is wire-valid) and the service must reject it cleanly.
  write_seed("frame", "rollback_missing_gen",
             framed(FrameType::kRollback,
                    ranm::serve::encode_rollback(1ULL << 62)));
  write_seed_with_mutants(
      "frame", "rollback_reply",
      framed(FrameType::kRollbackReply,
             ranm::serve::encode_rollback_reply(
                 {.generation = 1, .monitor = "interval(paper_two_bit)"})));

  // A two-frame stream: query then stats request back-to-back.
  write_seed("frame", "stream_two_frames",
             framed(FrameType::kQuery, ranm::serve::encode_query(inputs)) +
                 framed(FrameType::kStats, {}));

  // Lifecycle stream: stage a batch, swap to it, then ask for stats.
  write_seed("frame", "stream_observe_swap_stats",
             framed(FrameType::kObserve, ranm::serve::encode_query(inputs)) +
                 framed(FrameType::kSwap, {}) +
                 framed(FrameType::kStats, {}));

  std::string bad_magic;
  put_u32(bad_magic, 0x0BADF00DU);
  put_u32(bad_magic, 1);
  put_u64(bad_magic, 0);
  write_seed("frame", "hostile_bad_magic", bad_magic);

  std::string bad_type;
  put_u32(bad_type, 0x52535631U);  // RSV1
  put_u32(bad_type, 99);           // unknown frame type
  put_u64(bad_type, 0);
  write_seed("frame", "hostile_unknown_type", bad_type);

  std::string oversized;
  put_u32(oversized, 0x52535631U);
  put_u32(oversized, 1);
  put_u64(oversized, 1ULL << 40);  // payload_len >> kMaxFramePayload
  write_seed("frame", "hostile_oversized_payload", oversized);

  // Query payload claiming 5 samples but carrying only one tensor.
  std::string short_query;
  put_u64(short_query, 5);
  std::vector<ranm::Tensor> one;
  one.push_back(ranm::Tensor(ranm::Shape{3}, 1.0F));
  short_query += ranm::serve::encode_query(one).substr(sizeof(std::uint64_t));
  write_seed("frame", "hostile_query_short", short_query);

  // Verdict bytes outside {0,1}.
  std::string bad_verdicts;
  put_u64(bad_verdicts, 3);
  bad_verdicts += "\x00\x07\x01";
  write_seed("frame", "hostile_verdicts_nonbool", bad_verdicts);

  // Observe batch claiming more samples than kMaxQuerySamples allows;
  // the count check must fire before any sized allocation.
  std::string oversized_observe;
  put_u64(oversized_observe, ranm::serve::kMaxQuerySamples + 1);
  write_seed("frame", "hostile_observe_oversized", oversized_observe);
}

// --- bdd -----------------------------------------------------------------

void emit_bdd_corpus() {
  ranm::bdd::BddManager mgr(16);

  const ranm::bdd::NodeRef a = mgr.var(0);
  const ranm::bdd::NodeRef b = mgr.nvar(3);
  const ranm::bdd::NodeRef c = mgr.var(7);
  const ranm::bdd::NodeRef f =
      mgr.or_(mgr.and_(a, b), mgr.and_(c, mgr.not_(a)));
  write_seed_with_mutants("bdd", "small", serialized([&](auto& out) {
                            (void)ranm::bdd::save_bdd(out, mgr, f);
                          }));

  write_seed("bdd", "constant_true", serialized([&](auto& out) {
               (void)ranm::bdd::save_bdd(out, mgr, ranm::bdd::kTrue);
             }));

  std::string bad_magic;
  put_u32(bad_magic, 0x46464646U);
  write_seed("bdd", "hostile_bad_magic", bad_magic);

  // Node table with a forward reference: node 2 points at node 3.
  std::string forward_ref;
  put_u32(forward_ref, 0x42444431U);  // BDD1
  put_u32(forward_ref, 16);           // num_vars
  put_u32(forward_ref, 4);            // count (slots 0/1 are terminals)
  put_u32(forward_ref, 0);            // node 2: var
  put_u32(forward_ref, 3);            //         lo -> forward reference
  put_u32(forward_ref, 0);            //         hi
  put_u32(forward_ref, 1);            // node 3: var
  put_u32(forward_ref, 0);
  put_u32(forward_ref, 1);
  put_u32(forward_ref, 2);            // root
  write_seed("bdd", "hostile_forward_ref", forward_ref);

  std::string huge_count;
  put_u32(huge_count, 0x42444431U);  // BDD1
  put_u32(huge_count, 16);           // num_vars
  put_u32(huge_count, 0xFFFFFFFFU);  // node count (u32 on the wire)
  write_seed("bdd", "hostile_huge_count", huge_count);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: make_corpus <output-dir>\n");
    return 2;
  }
  g_out_root = argv[1];
  emit_monitor_corpus();
  emit_network_corpus();
  emit_dataset_corpus();
  emit_frame_corpus();
  emit_bdd_corpus();
  std::printf("make_corpus: wrote corpus under %s\n", argv[1]);
  return 0;
}
