// Concurrent front end of the serving layer: N identical epoll event
// loops that share the listeners and one MonitorService, and nothing else
// on the query path.
//
//   clients ──► listeners (Unix socket and/or TCP, both optional)
//                  │ registered EPOLLEXCLUSIVE in every loop: a connect
//                  │ wakes one loop, which accepts it and owns it
//        ┌─────────┴──────────┬───────── … ─────────┐
//        ▼                    ▼                      ▼
//     loop 0               loop 1               loop N−1
//   (run()'s thread)     (own thread)         (own thread)
//        │ each: its own epoll set, connection map and counters;
//        │ per-connection nonblocking state machines; every query runs
//        ▼ inline on the loop that owns its connection
//   MonitorService ── one network and one monitor in memory; inference
//                     is const and reentrant, so all loops query it in
//                     parallel without a global lock
//
// A connection belongs to one loop for its lifetime and that loop answers
// its frames one at a time in arrival order, so replies leave in request
// order and no loop ever hands a request or a reply to another thread.
//
// Byte budgets: a connection's inbound buffer stops reading once it holds
// one maximal frame unparsed, and a connection whose unflushed replies
// exceed a fixed budget is neither read nor parsed until the socket
// drains — a client that pipelines without reading is backpressured by
// its own socket buffer, and the server's memory per connection stays
// bounded. (There is no request queue, so kOverloaded is never sent.)
//
// Shutdown is a graceful drain, from stop() (async-signal-safe: one
// eventfd write, callable from a SIGTERM handler) or a client kShutdown
// frame (which calls stop()). The stop eventfd is level-triggered and
// never read, so every loop sees it: each deregisters it and the
// listeners, the last one to do so closes the listeners, and each answers
// every fully buffered frame, flushes, closes its connections and
// returns. run() returns once every loop has.
//
// Monitor lifecycle: kObserve runs inline like a query. kSwap runs
// MonitorService::swap() on a background thread — the loops keep
// answering queries off the current snapshot — and the reply comes back
// through the owning loop's mailbox (an eventfd plus one slot). kRollback
// runs inline on the owning loop (an artifact load, no rebuild). Swap and
// rollback are single-flight server-wide: whichever finds another one
// running is answered kError at once, so no loop waits on another. Either
// publishes with one pointer swap, so queries racing it are answered
// entirely by the old or the new monitor, never a blend. The caller's
// service is the served one: a swap over the wire is visible to its
// in-process queries too.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/endpoint.hpp"
#include "serve/monitor_service.hpp"

namespace ranm::serve {

struct ServerConfig {
  /// Unix-domain listener path; empty disables it.
  std::string unix_path;
  /// Enable the TCP listener (for off-host clients).
  bool tcp = false;
  /// TCP port; 0 binds a kernel-assigned ephemeral port, reported by
  /// Server::tcp_port() (how the tests avoid port collisions).
  std::uint16_t tcp_port = 0;
  /// Event loops, each serving the connections it accepted. 0 = hardware
  /// concurrency.
  std::size_t workers = 1;
};

class Server {
 public:
  /// Serves `service` from every loop; it must outlive the server and
  /// stays usable in-process meanwhile. Binds every configured listener
  /// before returning. Throws std::invalid_argument when no listener is
  /// configured, std::runtime_error on socket errors (including a Unix
  /// path a live daemon is already serving).
  Server(MonitorService& service, ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Runs loop 0 on the calling thread and the others on threads it
  /// starts, until a drain (stop() or kShutdown) completes on every loop.
  /// Call at most once.
  void run();

  /// Requests a graceful drain; async-signal-safe (one eventfd write) and
  /// idempotent, so SIGINT/SIGTERM handlers call it directly.
  void stop() noexcept;

  [[nodiscard]] const std::string& unix_path() const noexcept {
    return config_.unix_path;
  }
  /// Bound TCP port (ephemeral binds resolved); 0 when TCP is disabled.
  [[nodiscard]] std::uint16_t tcp_port() const noexcept {
    return tcp_port_;
  }
  /// Number of event loops.
  [[nodiscard]] std::size_t worker_count() const noexcept {
    return config_.workers;
  }
  [[nodiscard]] std::uint64_t connections_served() const noexcept {
    return connections_.load(std::memory_order_relaxed);
  }

  /// Aggregate + per-loop counters, as a kStats frame would report. Safe
  /// while serving (every counter is atomic).
  [[nodiscard]] ServiceStats stats() const;

 private:
  class Loop;

  ServerConfig config_;
  MonitorService& service_;
  std::vector<Listener> listeners_;  // [0] unix (if any), then tcp
  std::size_t tcp_listener_ = SIZE_MAX;
  std::uint16_t tcp_port_ = 0;
  int stop_event_fd_ = -1;
  std::vector<std::unique_ptr<Loop>> loops_;

  /// Loops that still have the listeners registered; the one that takes
  /// this to zero closes them, so no loop can accept on a closed fd.
  std::atomic<std::size_t> listening_loops_{0};
  /// A swap or rollback is running somewhere (single-flight).
  std::atomic<bool> lifecycle_busy_{false};
  std::atomic<std::uint64_t> connections_{0};
};

}  // namespace ranm::serve
