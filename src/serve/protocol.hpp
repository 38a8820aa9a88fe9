// Wire protocol of the monitor serving layer.
//
// The daemon and its clients speak length-prefixed binary frames over a
// byte stream (in deployment: a Unix-domain socket). Every frame is
//
//   u32 magic "RSV1" | u32 type | u64 payload_len | payload bytes
//
// little-endian, with payload_len bounded by kMaxFramePayload *before*
// the payload buffer allocates — the same no-allocation-from-unvalidated-
// headers discipline as the artifact loaders (io/wire), so a corrupted or
// hostile frame errors out instead of zero-filling gigabytes. Payload
// decoding goes through the bounded io:: primitives for the same reason,
// and rejects trailing garbage: a frame either parses exactly or throws
// std::runtime_error.
//
// Request/response pairs (the protocol is strictly client-initiated):
//
//   kQuery    -> kQueryReply    n input tensors -> n warn flags (0/1)
//   kStats    -> kStatsReply    per-loop + aggregate counters and the
//                               per-shard table `ranm_cli info` prints
//   kShutdown -> kShutdownAck   graceful daemon drain + stop
//   kObserve  -> kObserveReply  stage n live input tensors for the next
//                               rebuild; reply carries accepted/staged/
//                               novelty counters
//   kSwap     -> kSwapReply     rebuild a refreshed monitor from the staged
//                               samples and publish it atomically; every
//                               query is answered entirely by the old or
//                               the new monitor, never a blend
//   kRollback -> kRollbackReply restore a persisted earlier generation
//                               (target 0 = the previous one)
//   any       -> kError         length-prefixed message; malformed frames
//                               additionally close the connection (the
//                               stream may have desynced)
//
// kOverloaded (a rejected query) stays in the protocol for clients; the
// server never sends it: it has no request queue to overflow, and a
// client that outruns it is backpressured by its own socket buffer.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "tensor/tensor.hpp"

namespace ranm::serve {

enum class FrameType : std::uint32_t {
  kQuery = 1,
  kQueryReply = 2,
  kStats = 3,
  kStatsReply = 4,
  kShutdown = 5,
  kShutdownAck = 6,
  kError = 7,
  // A query rejected for load; error-style message payload, the
  // connection stays usable. Reserved: the server never sends it (it has
  // no request queue), but clients still recognise it.
  kOverloaded = 8,
  // ---- monitor lifecycle (online adaptation) ----
  // Stage a batch of live inputs for the next rebuild. Payload reuses the
  // query codec (u64 count + tensors).
  kObserve = 9,
  kObserveReply = 10,
  // Rebuild a refreshed monitor from the staged samples in the background
  // and publish it via an atomic snapshot swap. Empty request payload.
  kSwap = 11,
  kSwapReply = 12,
  // Restore a persisted earlier generation. Payload: u64 target generation,
  // 0 meaning "the previous one".
  kRollback = 13,
  kRollbackReply = 14,
};

constexpr std::uint32_t kFrameMagic = 0x52535631U;  // "RSV1"
/// Wire frame header: magic + type + payload length, 16 bytes.
constexpr std::size_t kFrameHeaderBytes = 16;
/// Hard cap on one frame's payload — checked before the payload buffer
/// allocates. 64 MiB holds a ~16k-sample query over a 1k-float layer.
constexpr std::uint64_t kMaxFramePayload = 1ULL << 26;
/// Cap on the sample count of one query frame.
constexpr std::uint64_t kMaxQuerySamples = 1ULL << 16;
/// Cap on shard entries in a stats reply (matches the artifact cap).
constexpr std::uint64_t kMaxStatsShards = 4096;
/// Cap on per-loop entries in a stats reply.
constexpr std::uint64_t kMaxStatsWorkers = 1024;
/// Cap on any string carried in a frame (descriptions, error messages).
constexpr std::uint64_t kMaxFrameString = 4096;

struct Frame {
  FrameType type = FrameType::kError;
  std::string payload;
};

struct FrameHeader {
  FrameType type = FrameType::kError;
  std::uint64_t payload_len = 0;
};

/// Renders a frame header into a 16-byte transport buffer.
void encode_frame_header(char (&buf)[kFrameHeaderBytes], FrameType type,
                         std::uint64_t payload_len);
/// Validates magic, frame type, and payload bound; throws
/// std::runtime_error on anything malformed. This runs before any
/// payload-sized allocation on every transport.
[[nodiscard]] FrameHeader decode_frame_header(
    const char (&buf)[kFrameHeaderBytes]);

/// Stream transport (also the unit the robustness tests target).
void write_frame(std::ostream& out, FrameType type,
                 std::string_view payload);
[[nodiscard]] Frame read_frame(std::istream& in);

// ---- payload codecs -------------------------------------------------------
//
// Decoders take a string_view and read through io::ByteView — zero-copy,
// no per-frame stream construction. The *_into encoders append to a
// caller-owned buffer (cleared first) so the serving hot path reuses one
// scratch string across requests instead of allocating per frame; the
// by-value forms are convenience wrappers over them.

/// Query: u64 sample count (<= kMaxQuerySamples) + the input tensors.
/// Throws std::invalid_argument when the batch exceeds the sample cap or
/// the encoded payload would exceed kMaxFramePayload.
void encode_query_into(std::string& out, std::span<const Tensor> inputs);
[[nodiscard]] std::string encode_query(std::span<const Tensor> inputs);
[[nodiscard]] std::vector<Tensor> decode_query(std::string_view payload);

/// Largest batch of same-shaped samples whose query frame stays under
/// kMaxFramePayload (clients chunk their streams with this).
[[nodiscard]] std::size_t max_query_batch(const Tensor& sample);

/// Query reply: u64 count + one warn byte (0/1) per sample.
void encode_verdicts_into(std::string& out,
                          std::span<const std::uint8_t> warns);
[[nodiscard]] std::string encode_verdicts(
    std::span<const std::uint8_t> warns);
void decode_verdicts_into(std::string_view payload,
                          std::vector<std::uint8_t>& warns);
[[nodiscard]] std::vector<std::uint8_t> decode_verdicts(
    std::string_view payload);

/// Observe reply: how the staged-sample pool absorbed one batch.
struct ObserveReply {
  std::uint64_t accepted = 0;      // samples staged from this frame
  std::uint64_t staged_total = 0;  // samples now awaiting the next swap
  std::uint64_t novel = 0;         // frame samples the current monitor warns on
};

void encode_observe_reply_into(std::string& out, const ObserveReply& reply);
[[nodiscard]] std::string encode_observe_reply(const ObserveReply& reply);
[[nodiscard]] ObserveReply decode_observe_reply(std::string_view payload);

/// Swap reply: identity of the freshly published generation.
struct SwapReply {
  std::uint64_t generation = 0;      // generation now being served
  std::uint64_t staged_applied = 0;  // staged samples folded into the rebuild
  std::uint64_t duration_us = 0;     // rebuild + publish wall time
  std::string monitor;               // describe() of the published monitor
};

[[nodiscard]] std::string encode_swap_reply(const SwapReply& reply);
[[nodiscard]] SwapReply decode_swap_reply(std::string_view payload);

/// Rollback request: u64 target generation, 0 meaning "the previous one".
[[nodiscard]] std::string encode_rollback(std::uint64_t target);
[[nodiscard]] std::uint64_t decode_rollback(std::string_view payload);

struct RollbackReply {
  std::uint64_t generation = 0;  // generation now being served
  std::string monitor;           // describe() of the restored monitor
};

[[nodiscard]] std::string encode_rollback_reply(const RollbackReply& reply);
[[nodiscard]] RollbackReply decode_rollback_reply(std::string_view payload);

/// Per-shard statistics mirrored from ShardedMonitor::ShardStats.
struct ShardStatsWire {
  std::uint64_t neurons = 0;
  std::uint64_t bdd_nodes = 0;
  std::uint64_t cubes_inserted = 0;
  std::uint64_t novel = 0;  // staged samples novel to this shard's region
  double patterns = 0.0;    // stored words (-1: not pattern-based)
};

/// One server event loop's lifetime counters. With N loops the aggregate
/// alone hides imbalance, so stats carry both.
struct WorkerCountersWire {
  std::uint64_t queries = 0;   // query frames answered by this loop
  std::uint64_t samples = 0;   // feature vectors judged
  std::uint64_t warnings = 0;  // warn verdicts issued
};

/// Stats reply: service identity, per-loop plus aggregate lifetime
/// counters, and (for sharded monitors) the per-shard table `ranm_cli
/// info` prints.
struct ServiceStats {
  std::string monitor;  // Monitor::describe()
  std::uint64_t dimension = 0;
  std::uint64_t layer = 0;
  std::uint64_t threads = 1;
  std::uint64_t queries = 0;   // aggregate across loops
  std::uint64_t samples = 0;
  std::uint64_t warnings = 0;
  std::vector<WorkerCountersWire> workers;  // per server loop; empty: direct
  // Queries rejected with kOverloaded. Always 0 from this server, which
  // never sends kOverloaded; kept for clients that report it.
  std::uint64_t overloaded = 0;
  // Monitor-lifecycle telemetry (generation 0: adaptation disabled).
  std::uint64_t generation = 0;       // published snapshot generation
  std::uint64_t staged_samples = 0;   // samples awaiting the next swap
  std::uint64_t swaps = 0;            // snapshot swaps published
  std::uint64_t rollbacks = 0;        // generations restored
  std::uint64_t rolling_samples = 0;  // recent-window samples judged
  std::uint64_t rolling_warnings = 0;  // recent-window warn verdicts
  std::string shard_strategy;  // empty: unsharded monitor
  std::uint64_t shard_seed = 0;
  std::vector<ShardStatsWire> shards;  // empty: unsharded monitor
};

[[nodiscard]] std::string encode_stats(const ServiceStats& stats);
[[nodiscard]] ServiceStats decode_stats(std::string_view payload);

/// Error/overload payload: one bounded message string.
[[nodiscard]] std::string encode_error(std::string_view message);
[[nodiscard]] std::string decode_error(std::string_view payload);

}  // namespace ranm::serve
