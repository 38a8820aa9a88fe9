#include "serve/server.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <utility>

#include "util/thread_pool.hpp"

namespace ranm::serve {
namespace {

// epoll_event.data.u64 keys below kFirstConnId are loop-internal wakeups
// and listeners; connection ids start above them.
constexpr std::uint64_t kKeyStop = 0;
constexpr std::uint64_t kKeyCompletion = 1;
constexpr std::uint64_t kKeyUnixListener = 2;
constexpr std::uint64_t kKeyTcpListener = 3;

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string("ranm::serve: ") + what + ": " +
                           std::strerror(errno));
}

int make_eventfd() {
  const int fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (fd < 0) throw_errno("eventfd");
  return fd;
}

void drain_eventfd(int fd) noexcept {
  std::uint64_t count = 0;
  // Nonblocking; EAGAIN (nothing pending) is fine.
  (void)::read(fd, &count, sizeof count);
}

void signal_eventfd(int fd) noexcept {
  const std::uint64_t one = 1;
  // write(2) is async-signal-safe; a full counter (EAGAIN) still leaves
  // the fd readable, which is all a wakeup needs.
  (void)::write(fd, &one, sizeof one);
}

}  // namespace

/// Per-connection nonblocking state machine. All fields are owned by the
/// event loop thread; workers only ever see a connection's id.
struct Server::Conn {
  int fd = -1;
  std::uint64_t id = 0;
  /// Inbound bytes; [parsed, in.size()) is unconsumed. Partial frames
  /// simply stay here until more bytes arrive — a slow writer costs
  /// memory bounded by one frame, never a blocked loop.
  std::string in;
  std::size_t parsed = 0;
  /// Outbound bytes not yet accepted by the socket; [out_off, out.size())
  /// is pending. Capacity persists across replies (write-side scratch).
  std::string out;
  std::size_t out_off = 0;
  /// One query is with a worker: parsing (and reading) pause until its
  /// completion, which keeps replies in order and inbound memory bounded.
  bool busy = false;
  /// Flush pending output, then close (protocol errors, peer EOF).
  bool closing = false;
  bool peer_eof = false;
  std::uint32_t epoll_events = 0;  // currently registered interest set

  [[nodiscard]] std::size_t unconsumed() const noexcept {
    return in.size() - parsed;
  }
  [[nodiscard]] bool out_pending() const noexcept {
    return out_off < out.size();
  }
};

std::string Server::BufferPool::acquire() {
  const MutexLock lock(mu_);
  if (spares_.empty()) return {};
  std::string buf = std::move(spares_.back());
  spares_.pop_back();
  return buf;
}

void Server::BufferPool::release(std::string&& buf) {
  buf.clear();
  const MutexLock lock(mu_);
  if (spares_.size() < 64) spares_.push_back(std::move(buf));
}

Server::Server(MonitorService& service, ServerConfig config)
    : config_(std::move(config)),
      service_(service),
      queue_(config_.workers == 0 || config_.workers > 1
                 ? config_.queue_capacity
                 : 1) {
  if (config_.unix_path.empty() && !config_.tcp) {
    throw std::invalid_argument(
        "ranm::serve: Server needs at least one listener (unix_path or "
        "tcp)");
  }
  const std::size_t workers = resolve_thread_count(config_.workers);
  config_.workers = workers;
  worker_counters_ = std::make_unique<WorkerCounters[]>(workers);

  if (!config_.unix_path.empty()) {
    unix_listener_ = listeners_.size();
    listeners_.push_back(listen_unix(config_.unix_path));
  }
  if (config_.tcp) {
    tcp_listener_ = listeners_.size();
    listeners_.push_back(listen_tcp(config_.tcp_port));
    tcp_port_ = listeners_.back().port();
  }

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw_errno("epoll_create1");
  stop_event_fd_ = make_eventfd();
  completion_event_fd_ = make_eventfd();

  const auto add = [this](int fd, std::uint64_t key) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = key;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      throw_errno("epoll_ctl(ADD)");
    }
  };
  add(stop_event_fd_, kKeyStop);
  add(completion_event_fd_, kKeyCompletion);
  if (unix_listener_ != SIZE_MAX) {
    add(listeners_[unix_listener_].fd(), kKeyUnixListener);
  }
  if (tcp_listener_ != SIZE_MAX) {
    add(listeners_[tcp_listener_].fd(), kKeyTcpListener);
  }

  // workers == 1 executes inline in the event loop; no pool threads.
  if (workers > 1) {
    workers_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) {
      workers_.emplace_back([this, i] { worker_main(i); });
    }
  }
}

Server::~Server() {
  queue_.close();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  if (swap_thread_.joinable()) swap_thread_.join();
  for (auto& [id, conn] : conns_) {
    if (conn->fd >= 0) ::close(conn->fd);
  }
  conns_.clear();
  if (completion_event_fd_ >= 0) ::close(completion_event_fd_);
  if (stop_event_fd_ >= 0) ::close(stop_event_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  // Listeners close (and unlink the Unix socket file) via their dtors.
}

void Server::stop() noexcept { signal_eventfd(stop_event_fd_); }

void Server::run() { event_loop(); }

void Server::worker_main(std::size_t index) {
  for (;;) {
    std::optional<Request> request = queue_.pop();
    if (!request.has_value()) return;  // queue closed and drained
    Completion done;
    done.conn_id = request->conn_id;
    done.payload = buffers_.acquire();
    execute_request(index, request->type, request->payload, done.type,
                    done.payload);
    buffers_.release(std::move(request->payload));
    {
      const MutexLock lock(completions_mu_);
      completions_.push_back(std::move(done));
    }
    signal_eventfd(completion_event_fd_);
  }
}

void Server::execute_request(std::size_t worker, FrameType request,
                             std::string_view payload, FrameType& type,
                             std::string& reply) {
  // Decode scratch lives per-thread: each worker (and the inline loop)
  // re-enters with warm vectors instead of allocating per query.
  thread_local std::vector<Tensor> inputs;
  thread_local std::vector<std::uint8_t> warns;
  try {
    inputs = decode_query(payload);
    if (request == FrameType::kObserve) {
      // A service-side throw (frozen monitor, staging cap) becomes a
      // structured kError below — the worker and connection survive.
      encode_observe_reply_into(reply, service_.observe_batch(inputs));
      type = FrameType::kObserveReply;
    } else {
      service_.query_warns_into(inputs, warns);
      WorkerCounters& counters = worker_counters_[worker];
      counters.queries.fetch_add(1, std::memory_order_relaxed);
      counters.samples.fetch_add(warns.size(), std::memory_order_relaxed);
      counters.warnings.fetch_add(
          std::uint64_t(std::count(warns.begin(), warns.end(), 1)),
          std::memory_order_relaxed);
      encode_verdicts_into(reply, warns);
      type = FrameType::kQueryReply;
    }
  } catch (const std::exception& e) {
    reply = encode_error(e.what());
    type = FrameType::kError;
  }
}

void Server::event_loop() {
  epoll_event events[64];
  for (;;) {
    const int n =
        ::epoll_wait(epoll_fd_, events, std::size(events), -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("epoll_wait");
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t key = events[i].data.u64;
      switch (key) {
        case kKeyStop:
          drain_eventfd(stop_event_fd_);
          begin_drain();
          break;
        case kKeyCompletion:
          drain_eventfd(completion_event_fd_);
          handle_completions();
          break;
        case kKeyUnixListener:
          handle_accept(unix_listener_);
          break;
        case kKeyTcpListener:
          handle_accept(tcp_listener_);
          break;
        default:
          handle_conn_event(key, events[i].events);
          break;
      }
    }
    // Completions may have landed while other events were processed.
    handle_completions();
    if (drain_sweep_pending_) {
      // Safe here: no parse_frames is on the stack, so visiting (and
      // possibly destroying) any connection cannot alias a live frame.
      drain_sweep_pending_ = false;
      std::vector<std::uint64_t> ids;
      ids.reserve(conns_.size());
      for (const auto& [id, conn] : conns_) ids.push_back(id);
      for (const std::uint64_t id : ids) {
        const auto it = conns_.find(id);
        if (it == conns_.end()) continue;
        Conn& conn = *it->second;
        parse_frames(conn);
        update_epoll(conn);
        maybe_close(conn);
      }
    }
    if (drain_complete()) return;
  }
}

bool Server::drain_complete() const {
  return draining_ && conns_.empty() && in_flight_ == 0;
}

void Server::begin_drain() {
  if (draining_) return;
  draining_ = true;
  // Stop accepting; existing connections stop reading but every fully
  // buffered frame still gets parsed, executed, and flushed. The
  // per-connection sweep is deferred to the event-loop level because a
  // kShutdown frame reaches here from inside parse_frames.
  for (auto& listener : listeners_) listener.close();
  drain_sweep_pending_ = true;
}

void Server::handle_accept(std::size_t listener_index) {
  if (listener_index == SIZE_MAX || draining_) return;
  Listener& listener = listeners_[listener_index];
  if (!listener.valid()) return;
  for (;;) {
    const int fd = ::accept4(listener.fd(), nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // EAGAIN: accepted everything pending. Other errors (ECONNABORTED,
      // EMFILE, ...) drop this accept but keep the server up.
      return;
    }
    if (listener_index == tcp_listener_) set_tcp_nodelay(fd);
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = conn->id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      continue;
    }
    conn->epoll_events = EPOLLIN;
    connections_.fetch_add(1, std::memory_order_relaxed);
    conns_.emplace(conn->id, std::move(conn));
  }
}

void Server::handle_conn_event(std::uint64_t conn_id,
                               std::uint32_t events) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;  // closed earlier this wakeup
  Conn& conn = *it->second;

  // A hangup while a query is in flight: the peer is gone in both
  // directions, so the reply has nowhere to go — destroying now (the
  // completion is dropped by id) also stops EPOLLHUP, which cannot be
  // masked, from re-waking the loop until the worker finishes.
  if ((events & (EPOLLHUP | EPOLLERR)) != 0 && conn.busy) {
    destroy_conn(conn_id);
    return;
  }

  if ((events & EPOLLOUT) != 0 && conn.out_pending()) {
    if (!flush_out(conn)) {
      destroy_conn(conn_id);
      return;
    }
  }

  if ((events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0 && !conn.busy &&
      !conn.closing && !conn.peer_eof && !draining_) {
    char buf[65536];
    for (;;) {
      const ssize_t rc = ::recv(conn.fd, buf, sizeof buf, 0);
      if (rc > 0) {
        conn.in.append(buf, std::size_t(rc));
        // While a request is in flight we stop reading entirely, so the
        // unconsumed span is bounded by the frame cap plus one recv.
        continue;
      }
      if (rc == 0) {
        conn.peer_eof = true;
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      destroy_conn(conn_id);  // ECONNRESET and friends
      return;
    }
    parse_frames(conn);
  }

  update_epoll(conn);
  maybe_close(conn);
}

void Server::parse_frames(Conn& conn) {
  while (!conn.busy && !conn.closing) {
    if (conn.unconsumed() < kFrameHeaderBytes) break;
    char header[kFrameHeaderBytes];
    std::memcpy(header, conn.in.data() + conn.parsed, kFrameHeaderBytes);
    FrameHeader parsed{};
    try {
      parsed = decode_frame_header(header);
    } catch (const std::exception& e) {
      // The stream may be desynced — answer, flush, close.
      queue_reply(conn, FrameType::kError, encode_error(e.what()));
      conn.closing = true;
      break;
    }
    if (conn.unconsumed() <
        kFrameHeaderBytes + std::size_t(parsed.payload_len)) {
      break;  // partial frame: wait for more bytes
    }
    const std::string_view payload(
        conn.in.data() + conn.parsed + kFrameHeaderBytes,
        std::size_t(parsed.payload_len));
    conn.parsed += kFrameHeaderBytes + std::size_t(parsed.payload_len);

    switch (parsed.type) {
      case FrameType::kQuery:
      case FrameType::kObserve:
        dispatch_request(conn, parsed.type, payload);
        break;
      case FrameType::kSwap:
        handle_swap(conn);
        break;
      case FrameType::kRollback:
        handle_rollback(conn, payload);
        break;
      case FrameType::kStats:
        queue_reply(conn, FrameType::kStatsReply,
                    encode_stats(build_stats()));
        break;
      case FrameType::kShutdown:
        queue_reply(conn, FrameType::kShutdownAck, {});
        begin_drain();
        break;
      default:
        // Header-valid but not a request (a reply type, kOverloaded, ...)
        queue_reply(
            conn, FrameType::kError,
            encode_error("unexpected frame type from client"));
        break;
    }
  }
  // Reclaim consumed bytes. Full consumption is the steady state and
  // keeps the buffer's capacity as read scratch; the partial-frame erase
  // only triggers once the dead prefix outweighs the memmove.
  if (conn.parsed == conn.in.size()) {
    conn.in.clear();
    conn.parsed = 0;
  } else if (conn.parsed > (1U << 20)) {
    conn.in.erase(0, conn.parsed);
    conn.parsed = 0;
  }
}

void Server::dispatch_request(Conn& conn, FrameType request_type,
                              std::string_view payload) {
  if (config_.workers == 1) {
    // Inline mode: execute on the loop thread. One worker would
    // serialise every query anyway; skipping the handoff saves two
    // context switches per query.
    thread_local std::string reply;
    FrameType type = FrameType::kError;
    execute_request(0, request_type, payload, type, reply);
    queue_reply(conn, type, reply);
    return;
  }
  Request request;
  request.conn_id = conn.id;
  request.type = request_type;
  request.payload = buffers_.acquire();
  request.payload.assign(payload.data(), payload.size());
  if (!queue_.try_push(std::move(request))) {
    ++overloaded_;
    queue_reply(conn, FrameType::kOverloaded,
                encode_error("server overloaded: request queue full (" +
                             std::to_string(queue_.capacity()) +
                             " waiting); retry later"));
    return;
  }
  conn.busy = true;
  ++in_flight_;
}

void Server::handle_swap(Conn& conn) {
  if (swap_in_flight_) {
    queue_reply(conn, FrameType::kError,
                encode_error("swap already in progress; retry after it "
                             "completes"));
    return;
  }
  // The previous swap's thread (flag already cleared via its completion)
  // may still be a hair from returning; reap it before reusing the slot.
  if (swap_thread_.joinable()) swap_thread_.join();
  conn.busy = true;  // the reply comes back as a completion
  ++in_flight_;
  swap_in_flight_ = true;
  const std::uint64_t conn_id = conn.id;
  swap_thread_ = std::thread([this, conn_id] { run_swap(conn_id); });
}

void Server::run_swap(std::uint64_t conn_id) {
  Completion done;
  done.conn_id = conn_id;
  done.swap_done = true;
  try {
    // Every worker (and the loop, in inline mode) keeps answering
    // queries off the current snapshot while the rebuild runs.
    done.payload = encode_swap_reply(service_.swap());
    done.type = FrameType::kSwapReply;
  } catch (const std::exception& e) {
    done.type = FrameType::kError;
    done.payload = encode_error(e.what());
  }
  {
    const MutexLock lock(completions_mu_);
    completions_.push_back(std::move(done));
  }
  signal_eventfd(completion_event_fd_);
}

void Server::handle_rollback(Conn& conn, std::string_view payload) {
  if (swap_in_flight_) {
    queue_reply(conn, FrameType::kError,
                encode_error("rollback rejected: a swap is in progress"));
    return;
  }
  try {
    const RollbackReply reply = service_.rollback(decode_rollback(payload));
    queue_reply(conn, FrameType::kRollbackReply,
                encode_rollback_reply(reply));
  } catch (const std::exception& e) {
    queue_reply(conn, FrameType::kError, encode_error(e.what()));
  }
}

void Server::handle_completions() {
  {
    const MutexLock lock(completions_mu_);
    completion_scratch_.swap(completions_);
  }
  for (Completion& done : completion_scratch_) {
    --in_flight_;
    if (done.swap_done) {
      // Clear before the conns_ lookup: a connection that died mid-swap
      // must not leave the swap slot occupied forever.
      swap_in_flight_ = false;
      if (swap_thread_.joinable()) swap_thread_.join();
    }
    const auto it = conns_.find(done.conn_id);
    if (it != conns_.end()) {
      Conn& conn = *it->second;
      conn.busy = false;
      queue_reply(conn, done.type, done.payload);
      // The reply unblocked parsing: the next buffered frame may
      // dispatch now (also how drains finish multi-frame backlogs).
      parse_frames(conn);
      update_epoll(conn);
      maybe_close(conn);
    }
    // else: the connection died while its query ran; drop the reply.
    buffers_.release(std::move(done.payload));
  }
  // Keep the vector (capacity and all) as the next swap target.
  completion_scratch_.clear();
}

ServiceStats Server::build_stats() {
  // Identity, shard table and aggregate counters come from the service;
  // the per-worker breakdown from this server's own slots.
  ServiceStats stats = service_.stats();
  stats.workers.resize(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    const WorkerCounters& counters = worker_counters_[i];
    stats.workers[i].queries = counters.queries.load(std::memory_order_relaxed);
    stats.workers[i].samples = counters.samples.load(std::memory_order_relaxed);
    stats.workers[i].warnings =
        counters.warnings.load(std::memory_order_relaxed);
  }
  stats.in_flight = in_flight_;
  stats.queue_depth = config_.workers > 1 ? queue_.size() : 0;
  stats.queue_capacity = config_.workers > 1 ? queue_.capacity() : 0;
  stats.overloaded = overloaded_;
  return stats;
}

void Server::queue_reply(Conn& conn, FrameType type,
                         std::string_view payload) {
  char header[kFrameHeaderBytes];
  encode_frame_header(header, type, payload.size());
  conn.out.append(header, kFrameHeaderBytes);
  conn.out.append(payload.data(), payload.size());
  if (!flush_out(conn)) {
    // Peer gone mid-reply. Destroying here would dangle the parse loop's
    // reference, so just mark it; maybe_close reaps at a safe point.
    conn.closing = true;
    conn.out.clear();
    conn.out_off = 0;
  }
}

bool Server::flush_out(Conn& conn) {
  while (conn.out_pending()) {
    const ssize_t rc =
        ::send(conn.fd, conn.out.data() + conn.out_off,
               conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (rc < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      return false;  // EPIPE/ECONNRESET: peer gone
    }
    conn.out_off += std::size_t(rc);
  }
  conn.out.clear();  // capacity persists: write-side scratch
  conn.out_off = 0;
  return true;
}

void Server::update_epoll(Conn& conn) {
  std::uint32_t want = 0;
  if (!conn.busy && !conn.closing && !conn.peer_eof && !draining_) {
    want |= EPOLLIN;
  }
  if (conn.out_pending()) want |= EPOLLOUT;
  if (want == conn.epoll_events) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.u64 = conn.id;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev) == 0) {
    conn.epoll_events = want;
  }
}

void Server::maybe_close(Conn& conn) {
  if (conn.busy || conn.out_pending()) return;
  // During a drain every complete frame has been parsed by the time this
  // runs, and reads have stopped, so a leftover partial frame can never
  // finish — close unconditionally once quiescent.
  if (conn.closing || conn.peer_eof || draining_) {
    destroy_conn(conn.id);
  }
}

void Server::destroy_conn(std::uint64_t conn_id) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second->fd, nullptr);
  ::close(it->second->fd);
  conns_.erase(it);
}

}  // namespace ranm::serve
