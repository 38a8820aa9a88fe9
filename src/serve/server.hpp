// Concurrent front end of the serving layer: one epoll event loop
// multiplexing many connections, a fixed pool of worker threads sharing
// one MonitorService, and a bounded request queue between them.
//
// Architecture (replaces the PR 4 one-connection-at-a-time SocketServer):
//
//   clients ──► listeners (Unix socket and/or TCP, both optional)
//                  │ accept (nonblocking)
//                  ▼
//   event loop ── per-connection nonblocking state machines: partial
//        │        frames are buffered per connection (a slow-loris writer
//        │        never blocks the loop), replies are flushed as the
//        │        socket drains (a slow reader never blocks it either)
//        ▼
//   bounded request queue ── full ⇒ the query is answered kOverloaded
//        │                   immediately (explicit backpressure instead of
//        ▼                   unbounded buffering); the connection survives
//   N workers ── all call the one MonitorService (inference is const and
//                reentrant, so one network and one monitor in memory
//                serve every worker in parallel without a global lock);
//                replies travel back to the loop, which owns all socket
//                writes
//
// With workers == 1 the pool degenerates: the loop executes queries
// inline (one worker would serialise everything anyway, so the
// cross-thread handoff would be pure overhead). The bounded queue and
// kOverloaded apply to the pooled (workers >= 2) shape.
//
// Protocol ordering: at most one query per connection is in flight at a
// time — the loop stops parsing (and reading) a connection while its
// request is with a worker, so replies can never reorder and a pipelining
// client is backpressured by its own socket buffer.
//
// Shutdown is a graceful drain, from stop() (async-signal-safe: one
// eventfd write, callable from a SIGTERM handler) or a client kShutdown
// frame: listeners close, reads stop, every query already accepted —
// dispatched, queued, or fully buffered — is answered and flushed, then
// run() returns.
//
// Monitor lifecycle: kObserve frames dispatch like queries. kSwap runs
// MonitorService::swap() on a dedicated background thread — the loop and
// the workers keep answering queries off the current snapshot — and at
// most one swap is in flight (a second kSwap is answered kError).
// kRollback runs MonitorService::rollback() inline on the loop thread
// (an artifact load, no rebuild). Either publishes with one pointer
// swap, so queries racing it are answered entirely by the old or the new
// monitor, never a blend. The caller's service is the served one: a swap
// over the wire is visible to its in-process queries too.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/endpoint.hpp"
#include "serve/monitor_service.hpp"
#include "util/annotations.hpp"
#include "util/bounded_queue.hpp"

namespace ranm::serve {

struct ServerConfig {
  /// Unix-domain listener path; empty disables it.
  std::string unix_path;
  /// Enable the TCP listener (for off-host clients).
  bool tcp = false;
  /// TCP port; 0 binds a kernel-assigned ephemeral port, reported by
  /// Server::tcp_port() (how the tests avoid port collisions).
  std::uint16_t tcp_port = 0;
  /// Worker threads executing queries. 0 = hardware concurrency; 1 runs
  /// inline in the event loop (no pool).
  std::size_t workers = 1;
  /// Bound on queued (accepted but not yet executing) queries; beyond it
  /// queries are answered kOverloaded. Ignored when workers == 1.
  std::size_t queue_capacity = 256;
};

class Server {
 public:
  /// Serves `service` from every worker; it must outlive the server and
  /// stays usable in-process meanwhile. Binds every configured listener
  /// before returning. Throws std::invalid_argument when no listener is
  /// configured, std::runtime_error on socket errors (including a Unix
  /// path a live daemon is already serving).
  Server(MonitorService& service, ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Runs the event loop until a drain (stop() or kShutdown) completes.
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
  [[nodiscard]] std::size_t worker_count() const noexcept {
    return config_.workers;
  }
  [[nodiscard]] std::uint64_t connections_served() const noexcept {
    return connections_.load(std::memory_order_relaxed);
  }

  /// Aggregate + per-worker counters, as a kStats frame would report.
  /// Not synchronised with the event loop: call before run() or after it
  /// returned (clients use kStats for a live view).
  [[nodiscard]] ServiceStats stats() { return build_stats(); }

 private:
  struct Conn;
  struct Request {
    std::uint64_t conn_id = 0;
    FrameType type = FrameType::kQuery;  // kQuery or kObserve
    std::string payload;
  };
  struct Completion {
    std::uint64_t conn_id = 0;
    FrameType type = FrameType::kError;
    std::string payload;
    /// This completion ends the in-flight swap (clears swap_in_flight_
    /// even when its connection died mid-swap).
    bool swap_done = false;
  };

  /// Mutex-guarded stack of spare std::strings so request/reply payload
  /// buffers recycle between the loop and the workers instead of
  /// allocating per query.
  class BufferPool {
   public:
    [[nodiscard]] std::string acquire() RANM_EXCLUDES(mu_);
    void release(std::string&& buf) RANM_EXCLUDES(mu_);

   private:
    Mutex mu_;
    std::vector<std::string> spares_ RANM_GUARDED_BY(mu_);
  };

  void worker_main(std::size_t index);
  void event_loop();
  void handle_accept(std::size_t listener_index);
  void handle_conn_event(std::uint64_t conn_id, std::uint32_t events);
  /// Parses every complete frame the connection has buffered (stopping
  /// while a query is in flight) and dispatches/answers them.
  void parse_frames(Conn& conn);
  /// Dispatches a kQuery/kObserve frame: inline with one worker, through
  /// the bounded queue otherwise.
  void dispatch_request(Conn& conn, FrameType request, std::string_view payload);
  /// Starts the background rebuild+swap for one kSwap frame (or rejects
  /// it when a swap is already in flight).
  void handle_swap(Conn& conn);
  /// Swap-thread body: MonitorService::swap(), then a completion.
  void run_swap(std::uint64_t conn_id);
  /// Restores a persisted generation inline on the loop thread.
  void handle_rollback(Conn& conn, std::string_view payload);
  void handle_completions();
  /// Executes one kQuery/kObserve request for `worker` into (type,
  /// payload); never throws — failures become kError replies and the
  /// worker (and connection) survive.
  void execute_request(std::size_t worker, FrameType request,
                       std::string_view payload, FrameType& type,
                       std::string& reply);
  [[nodiscard]] ServiceStats build_stats();
  void queue_reply(Conn& conn, FrameType type, std::string_view payload);
  /// Flushes conn.out as far as the socket accepts; false = peer gone.
  [[nodiscard]] bool flush_out(Conn& conn);
  void update_epoll(Conn& conn);
  void destroy_conn(std::uint64_t conn_id);
  void maybe_close(Conn& conn);
  void begin_drain();
  [[nodiscard]] bool drain_complete() const;

  /// Queries answered by one worker (the inline loop is worker 0). Each
  /// worker bumps only its own slot, so slots sit on separate cache lines.
  struct alignas(64) WorkerCounters {
    std::atomic<std::uint64_t> queries{0};
    std::atomic<std::uint64_t> samples{0};
    std::atomic<std::uint64_t> warnings{0};
  };

  ServerConfig config_;
  MonitorService& service_;
  std::unique_ptr<WorkerCounters[]> worker_counters_;
  std::vector<Listener> listeners_;  // [0] unix (if any), then tcp
  std::size_t unix_listener_ = SIZE_MAX;
  std::size_t tcp_listener_ = SIZE_MAX;
  std::uint16_t tcp_port_ = 0;

  int epoll_fd_ = -1;
  int stop_event_fd_ = -1;
  int completion_event_fd_ = -1;

  BoundedQueue<Request> queue_;
  std::vector<std::thread> workers_;
  Mutex completions_mu_;
  /// Workers append, the loop swaps the whole vector out; the only shared
  /// mutable state between them besides the queue.
  std::vector<Completion> completions_ RANM_GUARDED_BY(completions_mu_);
  /// Loop-thread-only swap target: it crosses completions_mu_ exactly
  /// once per drain (inside the lock, via swap) and is otherwise private
  /// to the event loop, so it is deliberately not GUARDED_BY.
  std::vector<Completion> completion_scratch_;
  BufferPool buffers_;

  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  std::uint64_t next_conn_id_ = 16;  // ids below are loop-internal keys

  bool draining_ = false;
  /// A kSwap rebuild is running on swap_thread_. Loop-thread-only: set in
  /// handle_swap, cleared when the swap's completion is reaped.
  bool swap_in_flight_ = false;
  std::thread swap_thread_;
  /// One pass over all connections is owed at the event-loop level (the
  /// drain may begin deep inside parse_frames, where touching other
  /// connections — or re-entering this one — is unsafe).
  bool drain_sweep_pending_ = false;
  std::uint64_t in_flight_ = 0;    // dispatched to the pool, not yet done
  std::uint64_t overloaded_ = 0;   // queries rejected kOverloaded
  std::atomic<std::uint64_t> connections_{0};
};

}  // namespace ranm::serve
