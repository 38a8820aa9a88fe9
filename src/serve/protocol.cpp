#include "serve/protocol.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "io/wire.hpp"

namespace ranm::serve {
namespace {

bool known_frame_type(std::uint32_t raw) {
  return raw >= std::uint32_t(FrameType::kQuery) &&
         raw <= std::uint32_t(FrameType::kRollbackReply);
}

/// A payload must parse exactly: leftover bytes mean the frame length and
/// its contents disagree, i.e. corruption.
void require_exhausted(const io::ByteView& in) {
  if (!in.exhausted()) {
    throw std::runtime_error("ranm::serve: trailing bytes in frame payload");
  }
}

}  // namespace

void encode_frame_header(char (&buf)[kFrameHeaderBytes], FrameType type,
                         std::uint64_t payload_len) {
  const std::uint32_t magic = kFrameMagic;
  const auto raw_type = std::uint32_t(type);
  std::memcpy(buf, &magic, sizeof magic);
  std::memcpy(buf + 4, &raw_type, sizeof raw_type);
  std::memcpy(buf + 8, &payload_len, sizeof payload_len);
}

FrameHeader decode_frame_header(const char (&buf)[kFrameHeaderBytes]) {
  std::uint32_t magic = 0;
  std::uint32_t raw_type = 0;
  std::uint64_t len = 0;
  std::memcpy(&magic, buf, sizeof magic);
  std::memcpy(&raw_type, buf + 4, sizeof raw_type);
  std::memcpy(&len, buf + 8, sizeof len);
  if (magic != kFrameMagic) {
    throw std::runtime_error("ranm::serve: bad frame magic");
  }
  if (!known_frame_type(raw_type)) {
    throw std::runtime_error("ranm::serve: unknown frame type");
  }
  if (len > kMaxFramePayload) {
    throw std::runtime_error("ranm::serve: oversized frame payload");
  }
  return {FrameType(raw_type), len};
}

void write_frame(std::ostream& out, FrameType type,
                 std::string_view payload) {
  char header[kFrameHeaderBytes];
  encode_frame_header(header, type, payload.size());
  out.write(header, kFrameHeaderBytes);
  out.write(payload.data(), std::streamsize(payload.size()));
}

Frame read_frame(std::istream& in) {
  char buf[kFrameHeaderBytes];
  in.read(buf, kFrameHeaderBytes);
  if (!in) throw std::runtime_error("ranm::serve: truncated frame header");
  const FrameHeader header = decode_frame_header(buf);
  Frame frame;
  frame.type = header.type;
  frame.payload.resize(std::size_t(header.payload_len));
  in.read(frame.payload.data(), std::streamsize(header.payload_len));
  if (!in) throw std::runtime_error("ranm::serve: truncated frame payload");
  return frame;
}

std::size_t sample_wire_bytes(const Tensor& t) {
  // write_tensor: u64 rank + one u64 per dimension + the float data.
  return 8 + t.rank() * 8 + t.numel() * sizeof(float);
}

void encode_query_into(std::string& out, std::span<const Tensor> inputs) {
  if (inputs.size() > kMaxQuerySamples) {
    throw std::invalid_argument("encode_query: batch too large");
  }
  out.clear();
  io::append_u64(out, inputs.size());
  for (const Tensor& t : inputs) io::append_tensor(out, t);
  // The sample-count cap alone does not bound the frame: large tensors
  // hit the payload cap first. Failing here gives the caller a clear
  // error instead of a server-side header rejection mid-stream.
  if (out.size() > kMaxFramePayload) {
    throw std::invalid_argument(
        "encode_query: batch exceeds the frame payload cap — split it "
        "into smaller batches");
  }
}

std::string encode_query(std::span<const Tensor> inputs) {
  std::string payload;
  encode_query_into(payload, inputs);
  return payload;
}

std::size_t max_query_batch(const Tensor& sample) {
  const std::size_t per_sample = sample_wire_bytes(sample);
  const std::size_t fit = (std::size_t(kMaxFramePayload) - 8) / per_sample;
  return std::max<std::size_t>(
      1, std::min<std::size_t>(fit, std::size_t(kMaxQuerySamples)));
}

std::vector<Tensor> decode_query(std::string_view payload) {
  io::ByteView in(payload);
  const std::uint64_t n = in.read_u64();
  if (n > kMaxQuerySamples) {
    throw std::runtime_error("ranm::serve: implausible query sample count");
  }
  std::vector<Tensor> inputs;
  inputs.reserve(std::size_t(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    inputs.push_back(in.read_tensor());
  }
  require_exhausted(in);
  return inputs;
}

void encode_verdicts_into(std::string& out,
                          std::span<const std::uint8_t> warns) {
  out.clear();
  io::append_u64(out, warns.size());
  out.append(reinterpret_cast<const char*>(warns.data()), warns.size());
}

std::string encode_verdicts(std::span<const std::uint8_t> warns) {
  std::string payload;
  encode_verdicts_into(payload, warns);
  return payload;
}

void decode_verdicts_into(std::string_view payload,
                          std::vector<std::uint8_t>& warns) {
  io::ByteView in(payload);
  const std::uint64_t n = in.read_u64();
  if (n > kMaxQuerySamples) {
    throw std::runtime_error("ranm::serve: implausible verdict count");
  }
  warns.clear();
  warns.resize(static_cast<std::size_t>(n));
  in.read_bytes(reinterpret_cast<char*>(warns.data()), warns.size());
  for (const std::uint8_t w : warns) {
    if (w > 1) throw std::runtime_error("ranm::serve: non-boolean verdict");
  }
  require_exhausted(in);
}

std::vector<std::uint8_t> decode_verdicts(std::string_view payload) {
  std::vector<std::uint8_t> warns;
  decode_verdicts_into(payload, warns);
  return warns;
}

void encode_observe_reply_into(std::string& out, const ObserveReply& reply) {
  out.clear();
  io::append_u64(out, reply.accepted);
  io::append_u64(out, reply.staged_total);
  io::append_u64(out, reply.novel);
}

std::string encode_observe_reply(const ObserveReply& reply) {
  std::string payload;
  encode_observe_reply_into(payload, reply);
  return payload;
}

ObserveReply decode_observe_reply(std::string_view payload) {
  io::ByteView in(payload);
  ObserveReply reply;
  reply.accepted = in.read_u64();
  reply.staged_total = in.read_u64();
  reply.novel = in.read_u64();
  if (reply.accepted > kMaxQuerySamples || reply.novel > reply.accepted) {
    throw std::runtime_error("ranm::serve: implausible observe counters");
  }
  require_exhausted(in);
  return reply;
}

std::string encode_swap_reply(const SwapReply& reply) {
  std::string out;
  io::append_u64(out, reply.generation);
  io::append_u64(out, reply.staged_applied);
  io::append_u64(out, reply.duration_us);
  io::append_string(out, reply.monitor);
  return out;
}

SwapReply decode_swap_reply(std::string_view payload) {
  io::ByteView in(payload);
  SwapReply reply;
  reply.generation = in.read_u64();
  reply.staged_applied = in.read_u64();
  reply.duration_us = in.read_u64();
  reply.monitor = in.read_string(kMaxFrameString);
  require_exhausted(in);
  return reply;
}

std::string encode_rollback(std::uint64_t target) {
  std::string out;
  io::append_u64(out, target);
  return out;
}

std::uint64_t decode_rollback(std::string_view payload) {
  io::ByteView in(payload);
  const std::uint64_t target = in.read_u64();
  require_exhausted(in);
  return target;
}

std::string encode_rollback_reply(const RollbackReply& reply) {
  std::string out;
  io::append_u64(out, reply.generation);
  io::append_string(out, reply.monitor);
  return out;
}

RollbackReply decode_rollback_reply(std::string_view payload) {
  io::ByteView in(payload);
  RollbackReply reply;
  reply.generation = in.read_u64();
  reply.monitor = in.read_string(kMaxFrameString);
  require_exhausted(in);
  return reply;
}

std::string encode_stats(const ServiceStats& stats) {
  if (stats.shards.size() > kMaxStatsShards) {
    throw std::invalid_argument("encode_stats: too many shards");
  }
  if (stats.workers.size() > kMaxStatsWorkers) {
    throw std::invalid_argument("encode_stats: too many workers");
  }
  std::string out;
  io::append_string(out, stats.monitor);
  io::append_u64(out, stats.dimension);
  io::append_u64(out, stats.layer);
  io::append_u64(out, stats.threads);
  io::append_u64(out, stats.queries);
  io::append_u64(out, stats.samples);
  io::append_u64(out, stats.warnings);
  io::append_u64(out, stats.workers.size());
  for (const WorkerCountersWire& w : stats.workers) {
    io::append_u64(out, w.queries);
    io::append_u64(out, w.samples);
    io::append_u64(out, w.warnings);
  }
  io::append_u64(out, stats.overloaded);
  io::append_u64(out, stats.generation);
  io::append_u64(out, stats.staged_samples);
  io::append_u64(out, stats.swaps);
  io::append_u64(out, stats.rollbacks);
  io::append_u64(out, stats.rolling_samples);
  io::append_u64(out, stats.rolling_warnings);
  io::append_string(out, stats.shard_strategy);
  io::append_u64(out, stats.shard_seed);
  io::append_u64(out, stats.shards.size());
  for (const ShardStatsWire& s : stats.shards) {
    io::append_u64(out, s.neurons);
    io::append_u64(out, s.bdd_nodes);
    io::append_u64(out, s.cubes_inserted);
    io::append_u64(out, s.novel);
    io::append_pod(out, s.patterns);
  }
  return out;
}

ServiceStats decode_stats(std::string_view payload) {
  io::ByteView in(payload);
  ServiceStats stats;
  stats.monitor = in.read_string(kMaxFrameString);
  stats.dimension = in.read_u64();
  stats.layer = in.read_u64();
  stats.threads = in.read_u64();
  stats.queries = in.read_u64();
  stats.samples = in.read_u64();
  stats.warnings = in.read_u64();
  const std::uint64_t worker_count = in.read_u64();
  if (worker_count > kMaxStatsWorkers) {
    throw std::runtime_error("ranm::serve: implausible worker count");
  }
  stats.workers.resize(std::size_t(worker_count));
  for (WorkerCountersWire& w : stats.workers) {
    w.queries = in.read_u64();
    w.samples = in.read_u64();
    w.warnings = in.read_u64();
  }
  stats.overloaded = in.read_u64();
  stats.generation = in.read_u64();
  stats.staged_samples = in.read_u64();
  stats.swaps = in.read_u64();
  stats.rollbacks = in.read_u64();
  stats.rolling_samples = in.read_u64();
  stats.rolling_warnings = in.read_u64();
  stats.shard_strategy = in.read_string(kMaxFrameString);
  stats.shard_seed = in.read_u64();
  const std::uint64_t shard_count = in.read_u64();
  if (shard_count > kMaxStatsShards) {
    throw std::runtime_error("ranm::serve: implausible shard count");
  }
  stats.shards.resize(std::size_t(shard_count));
  for (ShardStatsWire& s : stats.shards) {
    s.neurons = in.read_u64();
    s.bdd_nodes = in.read_u64();
    s.cubes_inserted = in.read_u64();
    s.novel = in.read_u64();
    s.patterns = in.read_pod<double>();
  }
  require_exhausted(in);
  return stats;
}

std::string encode_error(std::string_view message) {
  std::string out;
  io::append_string(out, message.substr(0, kMaxFrameString));
  return out;
}

std::string decode_error(std::string_view payload) {
  io::ByteView in(payload);
  std::string message = in.read_string(kMaxFrameString);
  require_exhausted(in);
  return message;
}

}  // namespace ranm::serve
