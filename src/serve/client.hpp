// Client side of the serving protocol.
//
// Connects to a running daemon — Unix-domain socket or TCP — and exposes
// the same calls as MonitorService, marshalled through the frame
// protocol. Used by `ranm_cli query`, bench_serving's wire-path sweeps,
// and the end-to-end tests (which run the server on a thread of the same
// process — no subprocess needed).
//
// The encode scratch and the reply frame are instance members reused
// across calls, so a steady-state request loop performs no per-query
// allocation on the client either. One request is in flight at a time
// (the server enforces the same), so a client instance is used by one
// thread; concurrent load uses one client per thread.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "serve/protocol.hpp"

namespace ranm::serve {

/// The query was rejected with kOverloaded. Distinct from
/// std::runtime_error so callers can back off and retry: the connection is
/// still usable. (serve::Server never sends kOverloaded; it has no request
/// queue to overflow.)
class ServerOverloadedError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class ServeClient {
 public:
  /// Connects to a Unix-domain socket daemon; throws std::runtime_error
  /// if no daemon is listening on `socket_path`.
  explicit ServeClient(const std::string& socket_path);

  /// Connects over TCP (TCP_NODELAY set); throws std::runtime_error when
  /// the host does not resolve or the daemon is not accepting.
  ServeClient(const std::string& host, std::uint16_t port);

  ~ServeClient();

  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  /// Streams one minibatch through the daemon into `warns` (one 0/1 byte
  /// per input; the caller-owned vector keeps its capacity). Throws
  /// ServerOverloadedError on a kOverloaded reply, std::runtime_error on
  /// transport failure or an error frame (message included).
  void query_warns_into(std::span<const Tensor> inputs,
                        std::vector<std::uint8_t>& warns);

  /// Convenience wrapper allocating the verdict vector per call.
  [[nodiscard]] std::vector<std::uint8_t> query_warns(
      std::span<const Tensor> inputs);

  /// Stages one minibatch on the daemon for its next rebuild; the reply
  /// carries accepted/staged/novelty counters. Throws std::runtime_error
  /// with the server's message for frozen monitors or a full staging
  /// pool (the connection stays usable).
  [[nodiscard]] ObserveReply observe(std::span<const Tensor> inputs);

  /// Asks the daemon to rebuild from its staged samples and atomically
  /// publish the refreshed monitor to every server loop.
  [[nodiscard]] SwapReply swap();

  /// Restores a persisted generation (0 = the previous one).
  [[nodiscard]] RollbackReply rollback(std::uint64_t generation = 0);

  /// Fetches the daemon's per-loop + aggregate counters and per-shard
  /// statistics.
  [[nodiscard]] ServiceStats stats();

  /// Asks the daemon to stop gracefully; returns once it acknowledged.
  void shutdown_server();

 private:
  /// One request/response exchange; unwraps kError into std::runtime_error
  /// and kOverloaded into ServerOverloadedError, enforces the expected
  /// reply type, and leaves the reply in the reused reply_ frame.
  [[nodiscard]] const Frame& round_trip(FrameType request,
                                        std::string_view payload,
                                        FrameType expected_reply);

  int fd_ = -1;
  Frame reply_;          // reply payload buffer, reused across calls
  std::string scratch_;  // request encode buffer, reused across calls
};

}  // namespace ranm::serve
