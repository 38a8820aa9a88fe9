#include "serve/server.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <exception>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "util/annotations.hpp"
#include "util/thread_pool.hpp"

namespace ranm::serve {
namespace {

// epoll_event.data.u64 keys below kFirstConnId are loop-internal wakeups
// and listeners; connection ids start above them.
constexpr std::uint64_t kKeyStop = 0;
constexpr std::uint64_t kKeyMailbox = 1;
constexpr std::uint64_t kKeyListener = 2;  // + index into listeners_
constexpr std::uint64_t kFirstConnId = 16;

/// Bytes one recv() may take; a connection gets one per wakeup.
constexpr std::size_t kReadChunk = 65536;
/// Reading pauses while a connection holds this many unparsed bytes: the
/// parser then always has one whole frame to consume, and `in` never
/// holds more than this plus one chunk.
constexpr std::size_t kMaxUnparsedBytes =
    kFrameHeaderBytes + std::size_t(kMaxFramePayload);
/// Reading and parsing pause while a connection's unflushed replies exceed
/// this, so a client that pipelines without reading is backpressured by
/// its own socket buffer. Every single reply is smaller than this, so
/// the pending bytes stay under twice it.
constexpr std::size_t kMaxPendingReplyBytes = std::size_t(1) << 18;

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

/// Per-connection nonblocking state machine, owned by one loop's thread.
struct Conn {
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
  /// A kSwap from this connection is rebuilding: parsing (and reading)
  /// pause until its reply, which keeps replies in order.
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
  [[nodiscard]] bool out_backlogged() const noexcept {
    return out.size() - out_off > kMaxPendingReplyBytes;
  }
};

}  // namespace

/// One event loop: its own epoll set, connections, counters and swap
/// mailbox. Everything but the counters and the mailbox slot is touched
/// only by the thread running it.
class Server::Loop {
 public:
  explicit Loop(Server& server);
  ~Loop();

  Loop(const Loop&) = delete;
  Loop& operator=(const Loop&) = delete;

  /// Serves until this loop's drain completes.
  void run();

  /// Queries answered by this loop; bumped by its thread only, read by
  /// any kStats.
  struct alignas(64) Counters {
    std::atomic<std::uint64_t> queries{0};
    std::atomic<std::uint64_t> samples{0};
    std::atomic<std::uint64_t> warnings{0};
  };
  Counters counters;

 private:
  struct Reply {
    std::uint64_t conn_id = 0;
    FrameType type = FrameType::kError;
    std::string payload;
  };

  /// Adds `fd` to this loop's epoll set; throws on failure.
  void watch(int fd, std::uint32_t events, std::uint64_t key);
  /// Accepts one connection from listeners_[index].
  void accept_one(std::size_t index);
  void handle_conn_event(std::uint64_t conn_id, std::uint32_t events);
  /// Parses and answers every complete buffered frame, in order, until
  /// the connection's swap is in flight or its replies are backlogged.
  void parse_frames(Conn& conn);
  /// Answers one kQuery/kObserve inline; failures become kError replies
  /// and the connection survives.
  void answer_request(Conn& conn, FrameType request,
                      std::string_view payload);
  /// Starts the background rebuild+swap for one kSwap frame, or rejects
  /// it while another swap or rollback runs.
  void handle_swap(Conn& conn);
  /// Swap-thread body: MonitorService::swap(), then the mailbox.
  void run_swap(std::uint64_t conn_id) RANM_EXCLUDES(mailbox_mu_);
  /// Restores a persisted generation inline on this loop.
  void handle_rollback(Conn& conn, std::string_view payload);
  /// Delivers the finished swap's reply and frees the lifecycle slot.
  void take_mailbox() RANM_EXCLUDES(mailbox_mu_);
  [[nodiscard]] bool claim_lifecycle() noexcept;
  void release_lifecycle() noexcept;
  void begin_drain();
  void queue_reply(Conn& conn, FrameType type, std::string_view payload);
  /// Flushes conn.out as far as the socket accepts; false = peer gone.
  [[nodiscard]] bool flush_out(Conn& conn);
  [[nodiscard]] bool wants_read(const Conn& conn) const noexcept;
  /// Re-arms the epoll interest set, then closes the connection if it is
  /// finished.
  void settle(Conn& conn);
  void destroy_conn(std::uint64_t conn_id);

  Server& server_;
  MonitorService& service_;
  int epoll_fd_ = -1;
  int mailbox_fd_ = -1;
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  std::uint64_t next_conn_id_ = kFirstConnId;
  bool draining_ = false;
  /// This loop started the running swap: it owns swap_thread_ until the
  /// reply is taken from the mailbox.
  bool swap_pending_ = false;
  std::thread swap_thread_;
  Mutex mailbox_mu_;
  /// The swap thread fills it, this loop empties it; the only state
  /// another thread writes besides the counters.
  std::optional<Reply> mailbox_ RANM_GUARDED_BY(mailbox_mu_);
  // Decode/encode scratch, warm across requests.
  std::vector<Tensor> inputs_;
  std::vector<std::uint8_t> warns_;
  std::string reply_;
};

Server::Loop::Loop(Server& server)
    : server_(server), service_(server.service_) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw_errno("epoll_create1");
  mailbox_fd_ = make_eventfd();
  watch(server.stop_event_fd_, EPOLLIN, kKeyStop);
  watch(mailbox_fd_, EPOLLIN, kKeyMailbox);
  // EPOLLEXCLUSIVE: a connect wakes one idle loop, not all of them.
  for (std::size_t i = 0; i < server.listeners_.size(); ++i) {
    watch(server.listeners_[i].fd(), EPOLLIN | EPOLLEXCLUSIVE,
          kKeyListener + i);
  }
}

void Server::Loop::watch(int fd, std::uint32_t events, std::uint64_t key) {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = key;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    throw_errno("epoll_ctl(ADD)");
  }
}

Server::Loop::~Loop() {
  if (swap_thread_.joinable()) swap_thread_.join();
  for (auto& [id, conn] : conns_) ::close(conn->fd);
  if (mailbox_fd_ >= 0) ::close(mailbox_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

Server::Server(MonitorService& service, ServerConfig config)
    : config_(std::move(config)), service_(service) {
  if (config_.unix_path.empty() && !config_.tcp) {
    throw std::invalid_argument(
        "ranm::serve: Server needs at least one listener (unix_path or "
        "tcp)");
  }
  config_.workers = resolve_thread_count(config_.workers);

  if (!config_.unix_path.empty()) {
    listeners_.push_back(listen_unix(config_.unix_path));
  }
  if (config_.tcp) {
    tcp_listener_ = listeners_.size();
    listeners_.push_back(listen_tcp(config_.tcp_port));
    tcp_port_ = listeners_.back().port();
  }

  stop_event_fd_ = make_eventfd();
  loops_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    loops_.push_back(std::make_unique<Loop>(*this));
  }
  listening_loops_.store(loops_.size());
}

Server::~Server() {
  loops_.clear();
  if (stop_event_fd_ >= 0) ::close(stop_event_fd_);
  // Listeners close (and unlink the Unix socket file) via their dtors.
}

void Server::stop() noexcept { signal_eventfd(stop_event_fd_); }

void Server::run() {
  // A loop that fails stops the others, so run() still returns; the
  // first failure is rethrown once every loop has.
  std::vector<std::exception_ptr> errors(loops_.size());
  const auto body = [this, &errors](std::size_t i) {
    try {
      loops_[i]->run();
    } catch (...) {
      errors[i] = std::current_exception();
      stop();
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(loops_.size() - 1);
  for (std::size_t i = 1; i < loops_.size(); ++i) {
    threads.emplace_back(body, i);
  }
  body(0);
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

ServiceStats Server::stats() const {
  // Identity, shard table and aggregate counters come from the service;
  // the per-loop breakdown from the loops' own slots.
  ServiceStats stats = service_.stats();
  stats.workers.resize(loops_.size());
  for (std::size_t i = 0; i < loops_.size(); ++i) {
    const Loop::Counters& c = loops_[i]->counters;
    stats.workers[i].queries = c.queries.load(std::memory_order_relaxed);
    stats.workers[i].samples = c.samples.load(std::memory_order_relaxed);
    stats.workers[i].warnings = c.warnings.load(std::memory_order_relaxed);
  }
  return stats;
}

void Server::Loop::run() {
  epoll_event events[64];
  while (!draining_ || !conns_.empty() || swap_pending_) {
    const int n = ::epoll_wait(epoll_fd_, events, std::size(events), -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("epoll_wait");
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t key = events[i].data.u64;
      switch (key) {
        case kKeyStop:
          begin_drain();
          break;
        case kKeyMailbox:
          take_mailbox();
          break;
        default:
          if (key < kFirstConnId) {
            accept_one(std::size_t(key - kKeyListener));
          } else {
            handle_conn_event(key, events[i].events);
          }
          break;
      }
    }
  }
}

void Server::Loop::begin_drain() {
  draining_ = true;
  // The stop eventfd stays readable for the other loops; this one stops
  // watching it, and stops accepting. The last loop to let go of the
  // listeners closes them, so none can accept on a closed fd.
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, server_.stop_event_fd_, nullptr);
  for (const Listener& listener : server_.listeners_) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listener.fd(), nullptr);
  }
  if (server_.listening_loops_.fetch_sub(1, std::memory_order_acq_rel) ==
      1) {
    for (Listener& listener : server_.listeners_) listener.close();
  }
  // Reads stop, but every fully buffered frame is still answered and
  // flushed before its connection closes.
  std::vector<std::uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) ids.push_back(id);
  for (const std::uint64_t id : ids) {
    const auto it = conns_.find(id);
    if (it == conns_.end()) continue;
    parse_frames(*it->second);
    settle(*it->second);
  }
}

void Server::Loop::accept_one(std::size_t index) {
  // Once draining, the listeners may already be closed by another loop.
  if (draining_) return;
  const int listen_fd = server_.listeners_[index].fd();
  int fd = -1;
  do {
    fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
  } while (fd < 0 && errno == EINTR);
  // EAGAIN: another loop took it. Other errors (ECONNABORTED, EMFILE, ...)
  // drop this accept but keep the server up.
  if (fd < 0) return;
  // Re-registering moves this loop to the back of the listener's
  // exclusive wakeup queue, so connects arriving one after another rotate
  // over the idle loops instead of all waking the first one.
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd, nullptr);
  try {
    watch(listen_fd, EPOLLIN | EPOLLEXCLUSIVE, kKeyListener + index);
  } catch (...) {
    ::close(fd);
    throw;
  }
  if (index == server_.tcp_listener_) set_tcp_nodelay(fd);
  auto conn = std::make_unique<Conn>();
  conn->fd = fd;
  conn->id = next_conn_id_++;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = conn->id;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    ::close(fd);
    return;
  }
  conn->epoll_events = EPOLLIN;
  server_.connections_.fetch_add(1, std::memory_order_relaxed);
  conns_.emplace(conn->id, std::move(conn));
}

bool Server::Loop::wants_read(const Conn& conn) const noexcept {
  return !conn.busy && !conn.closing && !conn.peer_eof && !draining_ &&
         conn.unconsumed() < kMaxUnparsedBytes && !conn.out_backlogged();
}

void Server::Loop::handle_conn_event(std::uint64_t conn_id,
                                     std::uint32_t events) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;  // closed earlier this wakeup
  Conn& conn = *it->second;

  // A hangup while its swap runs: the peer is gone in both directions, so
  // the reply has nowhere to go — destroying now (the mailbox drops it by
  // id) also stops EPOLLHUP, which cannot be masked, from re-waking the
  // loop until the rebuild finishes.
  if ((events & (EPOLLHUP | EPOLLERR)) != 0 && conn.busy) {
    destroy_conn(conn_id);
    return;
  }

  if ((events & EPOLLOUT) != 0 && conn.out_pending() && !flush_out(conn)) {
    destroy_conn(conn_id);
    return;
  }

  // One chunk per wakeup: epoll is level-triggered, so a connection with
  // more to read is reported again after the other ready ones had their
  // turn, and a pipelining client cannot starve the rest of its loop.
  if ((events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0 && wants_read(conn)) {
    char buf[kReadChunk];
    const ssize_t rc = ::recv(conn.fd, buf, sizeof buf, 0);
    if (rc > 0) {
      conn.in.append(buf, std::size_t(rc));
    } else if (rc == 0) {
      conn.peer_eof = true;
    } else if (errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK) {
      destroy_conn(conn_id);  // ECONNRESET and friends
      return;
    }
  }
  // Also after a flush alone, which may have brought the replies back
  // under budget.
  parse_frames(conn);
  settle(conn);
}

void Server::Loop::parse_frames(Conn& conn) {
  while (!conn.busy && !conn.closing && !conn.out_backlogged()) {
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
        answer_request(conn, parsed.type, payload);
        break;
      case FrameType::kSwap:
        handle_swap(conn);
        break;
      case FrameType::kRollback:
        handle_rollback(conn, payload);
        break;
      case FrameType::kStats:
        queue_reply(conn, FrameType::kStatsReply,
                    encode_stats(server_.stats()));
        break;
      case FrameType::kShutdown:
        queue_reply(conn, FrameType::kShutdownAck, {});
        server_.stop();
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

void Server::Loop::answer_request(Conn& conn, FrameType request,
                                  std::string_view payload) {
  FrameType type = FrameType::kError;
  try {
    inputs_ = decode_query(payload);
    if (request == FrameType::kObserve) {
      // A service-side throw (frozen monitor, staging cap) becomes a
      // structured kError below — the loop and connection survive.
      encode_observe_reply_into(reply_, service_.observe_batch(inputs_));
      type = FrameType::kObserveReply;
    } else {
      service_.query_warns_into(inputs_, warns_);
      counters.queries.fetch_add(1, std::memory_order_relaxed);
      counters.samples.fetch_add(warns_.size(), std::memory_order_relaxed);
      counters.warnings.fetch_add(
          std::uint64_t(std::count(warns_.begin(), warns_.end(), 1)),
          std::memory_order_relaxed);
      encode_verdicts_into(reply_, warns_);
      type = FrameType::kQueryReply;
    }
  } catch (const std::exception& e) {
    reply_ = encode_error(e.what());
  }
  queue_reply(conn, type, reply_);
}

bool Server::Loop::claim_lifecycle() noexcept {
  bool idle = false;
  return server_.lifecycle_busy_.compare_exchange_strong(
      idle, true, std::memory_order_acquire);
}

void Server::Loop::release_lifecycle() noexcept {
  server_.lifecycle_busy_.store(false, std::memory_order_release);
}

void Server::Loop::handle_swap(Conn& conn) {
  if (!claim_lifecycle()) {
    queue_reply(conn, FrameType::kError,
                encode_error("swap rejected: a swap or rollback is already "
                             "in progress; retry after it completes"));
    return;
  }
  // Holding the slot means this loop's previous swap thread was joined.
  conn.busy = true;  // the reply comes back through the mailbox
  swap_pending_ = true;
  const std::uint64_t conn_id = conn.id;
  swap_thread_ = std::thread([this, conn_id] { run_swap(conn_id); });
}

void Server::Loop::run_swap(std::uint64_t conn_id) {
  Reply reply;
  reply.conn_id = conn_id;
  try {
    // Every loop keeps answering queries off the current snapshot while
    // the rebuild runs.
    reply.payload = encode_swap_reply(service_.swap());
    reply.type = FrameType::kSwapReply;
  } catch (const std::exception& e) {
    reply.type = FrameType::kError;
    reply.payload = encode_error(e.what());
  }
  {
    const MutexLock lock(mailbox_mu_);
    mailbox_ = std::move(reply);
  }
  signal_eventfd(mailbox_fd_);
}

void Server::Loop::take_mailbox() {
  drain_eventfd(mailbox_fd_);
  std::optional<Reply> reply;
  {
    const MutexLock lock(mailbox_mu_);
    reply.swap(mailbox_);
  }
  if (!reply.has_value()) return;
  swap_thread_.join();
  swap_pending_ = false;
  release_lifecycle();
  const auto it = conns_.find(reply->conn_id);
  if (it == conns_.end()) return;  // the connection died mid-swap
  Conn& conn = *it->second;
  conn.busy = false;
  queue_reply(conn, reply->type, reply->payload);
  // The reply unblocked parsing: the next buffered frame may run now
  // (also how drains finish backlogs queued behind a swap).
  parse_frames(conn);
  settle(conn);
}

void Server::Loop::handle_rollback(Conn& conn, std::string_view payload) {
  if (!claim_lifecycle()) {
    queue_reply(conn, FrameType::kError,
                encode_error("rollback rejected: a swap or rollback is in "
                             "progress"));
    return;
  }
  try {
    const RollbackReply reply = service_.rollback(decode_rollback(payload));
    queue_reply(conn, FrameType::kRollbackReply,
                encode_rollback_reply(reply));
  } catch (const std::exception& e) {
    queue_reply(conn, FrameType::kError, encode_error(e.what()));
  }
  release_lifecycle();
}

void Server::Loop::queue_reply(Conn& conn, FrameType type,
                               std::string_view payload) {
  char header[kFrameHeaderBytes];
  encode_frame_header(header, type, payload.size());
  conn.out.append(header, kFrameHeaderBytes);
  conn.out.append(payload.data(), payload.size());
  if (!flush_out(conn)) {
    // Peer gone mid-reply. Destroying here would dangle the parse loop's
    // reference, so just mark it; settle reaps at a safe point.
    conn.closing = true;
    conn.out.clear();
    conn.out_off = 0;
  }
}

bool Server::Loop::flush_out(Conn& conn) {
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

void Server::Loop::settle(Conn& conn) {
  std::uint32_t want = wants_read(conn) ? std::uint32_t(EPOLLIN) : 0;
  if (conn.out_pending()) want |= EPOLLOUT;
  if (want != conn.epoll_events) {
    epoll_event ev{};
    ev.events = want;
    ev.data.u64 = conn.id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev) == 0) {
      conn.epoll_events = want;
    }
  }
  if (conn.busy || conn.out_pending()) return;
  // Quiescent: every complete frame has been answered, so what is left
  // is at most a partial frame. Closing, EOF or a drain ends it here.
  if (conn.closing || conn.peer_eof || draining_) destroy_conn(conn.id);
}

void Server::Loop::destroy_conn(std::uint64_t conn_id) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second->fd, nullptr);
  ::close(it->second->fd);
  conns_.erase(it);
}

}  // namespace ranm::serve
