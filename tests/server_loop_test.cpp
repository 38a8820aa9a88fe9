// Event-loop concurrency tests for the serving layer: slow-loris partial
// writes interleaved across connections, mid-frame disconnects, per-
// connection byte budgets, N concurrent clients over several loops
// bit-identical to the direct pipeline, graceful drain under load, the
// single-flight swap/rollback slot, and Lemma 1 over the socket. This
// suite runs under TSan in CI — it is where cross-loop races would
// surface.
#include "serve/server.hpp"

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <sstream>
#include <thread>

#include "core/monitor_builder.hpp"
#include "eval/experiment.hpp"
#include "io/serialize.hpp"
#include "nn/init.hpp"
#include "serve/client.hpp"
#include "serve/endpoint.hpp"
#include "serve/fd_frame.hpp"
#include "util/rng.hpp"

namespace ranm::serve {
namespace {

std::string test_socket_path(const std::string& tag) {
  return "/tmp/ranm_" + std::to_string(::getpid()) + "_" + tag + ".sock";
}

/// Same shape as serve_test's fixture: small MLP, interval monitor over
/// the layer-4 features (dim 32).
struct LoopFixture {
  Rng rng{7};
  Network net = make_mlp({16, 64, 32, 8}, rng);
  std::size_t k = 4;
  std::vector<Tensor> train = make_inputs(64, 3);
  NeuronStats stats{32, true};

  LoopFixture() {
    MonitorBuilder builder(net, k);
    for (const Tensor& t : train) stats.add(builder.features(t));
  }

  [[nodiscard]] std::vector<Tensor> make_inputs(std::size_t n,
                                                std::uint64_t seed) {
    Rng r{seed};
    std::vector<Tensor> inputs;
    inputs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const float scale = i % 2 == 0 ? 1.0F : 4.0F;
      inputs.push_back(Tensor::random_uniform({16}, r, -scale, scale));
    }
    return inputs;
  }

  [[nodiscard]] MonitorService make_service() {
    MonitorOptions opts;
    opts.family = MonitorFamily::kInterval;
    opts.bits = 2;
    std::unique_ptr<Monitor> monitor = make_monitor(opts, stats);
    MonitorBuilder builder(net, k);
    builder.build_standard(*monitor, train);
    std::stringstream buf;
    save_network(buf, net);
    return MonitorService(load_network(buf), std::move(monitor), k);
  }

  [[nodiscard]] std::vector<std::uint8_t> direct_warns(
      MonitorService& reference, std::span<const Tensor> inputs) {
    return reference.query_warns(inputs);
  }
};

struct ServerHarness {
  Server server;
  std::thread thread;

  ServerHarness(MonitorService& svc, ServerConfig config)
      : server(svc, std::move(config)) {
    thread = std::thread([this] { server.run(); });
  }

  ~ServerHarness() { join(); }

  void join() {
    server.stop();
    if (thread.joinable()) thread.join();
  }
};

ServerConfig unix_config(const std::string& tag, std::size_t workers) {
  ServerConfig config;
  config.unix_path = test_socket_path(tag);
  config.workers = workers;
  return config;
}

/// Full wire bytes (header + payload) of one query frame.
std::string query_frame_bytes(std::span<const Tensor> inputs) {
  const std::string payload = encode_query(inputs);
  char header[kFrameHeaderBytes];
  encode_frame_header(header, FrameType::kQuery, payload.size());
  std::string bytes(header, kFrameHeaderBytes);
  bytes += payload;
  return bytes;
}

void write_all(int fd, std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t rc =
        ::write(fd, bytes.data() + sent, bytes.size() - sent);
    ASSERT_GT(rc, 0);
    sent += std::size_t(rc);
  }
}

// Two slow-loris writers drip their query frames a few bytes at a time,
// interleaved; the event loop must keep serving a well-behaved client at
// full speed in between, then answer both stragglers correctly.
TEST(ServerLoop, SlowLorisPartialFramesDontBlockOtherClients) {
  LoopFixture fx;
  MonitorService service = fx.make_service();
  MonitorService reference = fx.make_service();
  ServerHarness harness(service, unix_config("loris", 1));

  const std::vector<Tensor> slow_a = fx.make_inputs(6, 100);
  const std::vector<Tensor> slow_b = fx.make_inputs(9, 200);
  const std::string frame_a = query_frame_bytes(slow_a);
  const std::string frame_b = query_frame_bytes(slow_b);

  const int fd_a = connect_unix(harness.server.unix_path());
  const int fd_b = connect_unix(harness.server.unix_path());
  ServeClient fast(harness.server.unix_path());
  const std::vector<Tensor> fast_inputs = fx.make_inputs(12, 300);
  const std::vector<std::uint8_t> fast_expected =
      fx.direct_warns(reference, fast_inputs);

  // Drip both frames interleaved, 3 and 5 bytes at a time, running a
  // complete fast-client query between steps. If the loop blocked on
  // either partial frame, the fast queries would hang.
  std::size_t off_a = 0, off_b = 0;
  while (off_a < frame_a.size() || off_b < frame_b.size()) {
    if (off_a < frame_a.size()) {
      const std::size_t n = std::min<std::size_t>(3, frame_a.size() - off_a);
      write_all(fd_a, std::string_view(frame_a).substr(off_a, n));
      off_a += n;
    }
    if (off_b < frame_b.size()) {
      const std::size_t n = std::min<std::size_t>(5, frame_b.size() - off_b);
      write_all(fd_b, std::string_view(frame_b).substr(off_b, n));
      off_b += n;
    }
    // Cap the interleaved fast queries (the loris frames are ~100 steps);
    // one in every 16 steps keeps the test fast but still proves liveness.
    if ((off_a / 3) % 16 == 0) {
      EXPECT_EQ(fast.query_warns(fast_inputs), fast_expected);
    }
  }

  Frame reply;
  ASSERT_EQ(read_frame_fd(fd_a, reply), FdReadStatus::kFrame);
  ASSERT_EQ(reply.type, FrameType::kQueryReply);
  EXPECT_EQ(decode_verdicts(reply.payload),
            fx.direct_warns(reference, slow_a));
  ASSERT_EQ(read_frame_fd(fd_b, reply), FdReadStatus::kFrame);
  ASSERT_EQ(reply.type, FrameType::kQueryReply);
  EXPECT_EQ(decode_verdicts(reply.payload),
            fx.direct_warns(reference, slow_b));
  ::close(fd_a);
  ::close(fd_b);
}

// Disconnecting mid-frame (mid-header and mid-payload) must cost the
// server nothing: no reply owed, next clients served normally.
TEST(ServerLoop, MidFrameDisconnectLeavesServerHealthy) {
  LoopFixture fx;
  MonitorService service = fx.make_service();
  MonitorService reference = fx.make_service();
  ServerHarness harness(service, unix_config("midframe", 2));

  {
    // 7 bytes of a 16-byte header, then gone.
    const int fd = connect_unix(harness.server.unix_path());
    const std::string frame =
        query_frame_bytes(fx.make_inputs(4, 400));
    write_all(fd, std::string_view(frame).substr(0, 7));
    ::close(fd);
  }
  {
    // Valid header, half the payload, then gone.
    const int fd = connect_unix(harness.server.unix_path());
    const std::string frame =
        query_frame_bytes(fx.make_inputs(8, 500));
    write_all(fd, std::string_view(frame).substr(0, frame.size() / 2));
    ::close(fd);
  }

  const std::vector<Tensor> inputs = fx.make_inputs(10, 600);
  ServeClient client(harness.server.unix_path());
  EXPECT_EQ(client.query_warns(inputs), fx.direct_warns(reference, inputs));
}

// workers=2, eight big queries at once: with no request queue nothing is
// rejected — every frame gets exactly one kQueryReply, equal to the direct
// pipeline, whichever loop owns its connection.
TEST(ServerLoop, LargeConcurrentQueriesAllAnsweredAcrossLoops) {
  LoopFixture fx;
  MonitorService service = fx.make_service();
  MonitorService reference = fx.make_service();
  ServerHarness harness(service, unix_config("large", 2));

  const std::vector<Tensor> big = fx.make_inputs(8192, 700);
  const std::vector<std::uint8_t> expected = fx.direct_warns(reference, big);
  const std::string frame = query_frame_bytes(big);
  constexpr std::size_t kConns = 8;
  int fds[kConns];
  for (std::size_t i = 0; i < kConns; ++i) {
    fds[i] = connect_unix(harness.server.unix_path());
  }
  for (std::size_t i = 0; i < kConns; ++i) write_all(fds[i], frame);

  Frame reply;
  for (std::size_t i = 0; i < kConns; ++i) {
    ASSERT_EQ(read_frame_fd(fds[i], reply), FdReadStatus::kFrame);
    ASSERT_EQ(reply.type, FrameType::kQueryReply);
    EXPECT_EQ(decode_verdicts(reply.payload), expected) << i;
  }

  ServeClient statsc(harness.server.unix_path());
  const ServiceStats stats = statsc.stats();
  EXPECT_EQ(stats.overloaded, 0U);
  EXPECT_EQ(stats.queries, kConns);
  for (std::size_t i = 0; i < kConns; ++i) ::close(fds[i]);
}

// N clients streaming concurrently through the worker pool must each see
// verdicts bit-identical to the direct pipeline.
TEST(ServerLoop, ConcurrentClientsBitIdenticalToDirect) {
  LoopFixture fx;
  MonitorService service = fx.make_service();
  MonitorService reference = fx.make_service();
  ServerHarness harness(service, unix_config("nclient", 3));

  constexpr std::size_t kClients = 4;
  std::vector<std::vector<Tensor>> inputs(kClients);
  std::vector<std::vector<std::uint8_t>> expected(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    inputs[c] = fx.make_inputs(60, 900 + c);
    expected[c] = fx.direct_warns(reference, inputs[c]);
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ServeClient client(harness.server.unix_path());
      std::vector<std::uint8_t> served;
      std::vector<std::uint8_t> warns;
      const std::size_t batch = 13;  // not a divisor of 60
      for (std::size_t i = 0; i < inputs[c].size(); i += batch) {
        const std::size_t n = std::min(batch, inputs[c].size() - i);
        client.query_warns_into({inputs[c].data() + i, n}, warns);
        served.insert(served.end(), warns.begin(), warns.end());
      }
      if (served != expected[c]) failures.fetch_add(1);
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  ServeClient statsc(harness.server.unix_path());
  const ServiceStats stats = statsc.stats();
  EXPECT_EQ(stats.samples, kClients * 60U);
  ASSERT_EQ(stats.workers.size(), 3U);
}

// The single-worker (inline) loop must still multiplex many concurrent
// connections correctly — same differential, no pool.
TEST(ServerLoop, InlineModeServesConcurrentClients) {
  LoopFixture fx;
  MonitorService service = fx.make_service();
  MonitorService reference = fx.make_service();
  ServerHarness harness(service, unix_config("inline", 1));

  constexpr std::size_t kClients = 3;
  std::vector<std::vector<Tensor>> inputs(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    inputs[c] = fx.make_inputs(30, 1000 + c);
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      // The reference service answers every client thread concurrently.
      const std::vector<std::uint8_t> expected =
          fx.direct_warns(reference, inputs[c]);
      ServeClient client(harness.server.unix_path());
      for (int round = 0; round < 3; ++round) {
        if (client.query_warns(inputs[c]) != expected) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// Graceful drain under closed-loop load: every query the server accepted
// must be answered before run() returns — client-side reply count equals
// the server's executed-query count, and no client hangs.
TEST(ServerLoop, DrainUnderLoadAnswersEveryAcceptedQuery) {
  LoopFixture fx;
  MonitorService service = fx.make_service();
  MonitorService reference = fx.make_service();
  ServerHarness harness(service, unix_config("drain", 2));

  const std::vector<Tensor> inputs = fx.make_inputs(8, 1100);
  const std::vector<std::uint8_t> expected =
      fx.direct_warns(reference, inputs);

  constexpr std::size_t kClients = 3;
  std::atomic<std::uint64_t> answered{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      try {
        ServeClient client(harness.server.unix_path());
        std::vector<std::uint8_t> warns;
        for (;;) {
          try {
            client.query_warns_into(inputs, warns);
          } catch (const ServerOverloadedError&) {
            continue;  // backpressure: retry, not an answered query
          }
          if (warns != expected) failures.fetch_add(1);
          answered.fetch_add(1);
        }
      } catch (const std::runtime_error&) {
        // Drain reached this connection: server closed it. Expected.
      }
    });
  }

  // Let load build, then drain mid-flight.
  while (answered.load() < 20) std::this_thread::yield();
  harness.join();  // stop() + run() returning completes the drain
  for (std::thread& t : clients) t.join();

  // Every accepted (executed) query was answered: the server's aggregate
  // counter matches the replies clients actually received.
  const ServiceStats stats = harness.server.stats();
  EXPECT_EQ(stats.queries, answered.load());
}

// The tentpole invariant: swapping the monitor under concurrent query
// load is atomic per query. Every verdict vector any client ever sees is
// either the pure-old or the pure-new answer — never a blend — and once
// the swap reply arrives, fresh queries are pure-new on every worker.
TEST(ServerLoop, SwapUnderLoadYieldsPureOldOrPureNewVerdicts) {
  LoopFixture fx;
  MonitorService service = fx.make_service();
  ServerHarness harness(service, unix_config("swap", 3));

  // Probe with the batch that will be staged: pre-swap it warns on the
  // far-out half, post-swap those samples are inside the refreshed
  // region — the old and new answers are guaranteed to differ.
  const std::vector<Tensor> probe = fx.make_inputs(32, 1200);
  std::vector<std::uint8_t> expected_old;
  std::vector<std::uint8_t> expected_new;
  {
    // Both expectations computed BEFORE any thread spawns: a reference
    // service is not safe for concurrent callers.
    MonitorService reference = fx.make_service();
    expected_old = reference.query_warns(probe);
    (void)reference.observe_batch(probe);
    (void)reference.swap();
    expected_new = reference.query_warns(probe);
  }
  ASSERT_NE(expected_old, expected_new);

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<std::uint64_t> old_seen{0}, new_seen{0};
  constexpr std::size_t kClients = 3;
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      ServeClient client(harness.server.unix_path());
      std::vector<std::uint8_t> warns;
      while (!stop.load(std::memory_order_relaxed)) {
        client.query_warns_into(probe, warns);
        if (warns == expected_old) {
          old_seen.fetch_add(1, std::memory_order_relaxed);
        } else if (warns == expected_new) {
          new_seen.fetch_add(1, std::memory_order_relaxed);
        } else {
          failures.fetch_add(1);  // a blended verdict vector
        }
      }
    });
  }

  // Let pure-old load build, then stage + swap while queries keep coming.
  while (old_seen.load() < 16) std::this_thread::yield();
  ServeClient control(harness.server.unix_path());
  (void)control.observe(probe);
  const SwapReply swapped = control.swap();
  EXPECT_EQ(swapped.generation, 2U);
  EXPECT_EQ(swapped.staged_applied, 32U);
  // Keep querying past the swap so post-swap replies are exercised.
  while (new_seen.load() < 16) std::this_thread::yield();
  stop.store(true);
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(failures.load(), 0);  // never a blend
  EXPECT_GE(old_seen.load(), 16U);
  EXPECT_GE(new_seen.load(), 16U);
  // After the swap reply, every worker answers pure-new — a fresh
  // connection can land on any of the three workers.
  for (int i = 0; i < 6; ++i) {
    ServeClient fresh(harness.server.unix_path());
    EXPECT_EQ(fresh.query_warns(probe), expected_new) << i;
  }
  const ServiceStats stats = control.stats();
  EXPECT_EQ(stats.generation, 2U);
  EXPECT_EQ(stats.swaps, 1U);
}

// A second kSwap while one is rebuilding must be refused with a
// structured error — and the refused connection stays usable.
TEST(ServerLoop, ConcurrentSwapRefusedWhileFirstInFlight) {
  LoopFixture fx;
  MonitorService service = fx.make_service();
  ServerHarness harness(service, unix_config("swap2", 2));

  ServeClient first(harness.server.unix_path());
  ServeClient second(harness.server.unix_path());
  // Enough staged samples that the rebuild takes real time.
  const std::vector<Tensor> live = fx.make_inputs(256, 1300);
  for (int i = 0; i < 8; ++i) (void)first.observe(live);

  // Race two swap requests. The staging pool is drained exactly once:
  // whichever request wins produces generation 2 applying all 2048
  // samples; the loser is either refused ("already in progress") or ran
  // after the winner finished, applying zero samples as generation 3.
  // Never two partial swaps of one pool.
  std::atomic<std::uint64_t> gen_sum{0}, applied_sum{0};
  std::atomic<int> refused{0};
  const auto race = [&](ServeClient& client) {
    try {
      const SwapReply reply = client.swap();
      gen_sum.fetch_add(reply.generation);
      applied_sum.fetch_add(reply.staged_applied);
    } catch (const std::runtime_error&) {
      refused.fetch_add(1);
    }
  };
  std::thread racer([&] { race(second); });
  race(first);
  racer.join();
  if (refused.load() == 1) {
    EXPECT_EQ(gen_sum.load(), 2U);
  } else {
    EXPECT_EQ(refused.load(), 0);
    EXPECT_EQ(gen_sum.load(), 5U);  // generations 2 and 3
  }
  EXPECT_EQ(applied_sum.load(), 8U * 256U);
  // Both connections survive whatever happened.
  EXPECT_EQ(first.query_warns(live).size(), live.size());
  EXPECT_EQ(second.query_warns(live).size(), live.size());
}

/// Closes a raw client socket on scope exit — declared after the server
/// harness, so a failed assertion closes it before the drain waits on it.
struct ClientFd {
  int fd;
  explicit ClientFd(const std::string& path) : fd(connect_unix(path)) {}
  ~ClientFd() { ::close(fd); }
  ClientFd(const ClientFd&) = delete;
  ClientFd& operator=(const ClientFd&) = delete;
};

/// What a client pipelining frames without reading managed to send.
struct Pipelined {
  bool blocked = false;    // the socket stayed unwritable
  std::size_t bytes = 0;   // bytes the socket accepted
  std::size_t frames = 0;  // frames begun (the last may be partial)
  std::string rest;        // unsent tail of the last frame begun
};

/// Writes frames[0], frames[1], ... (cycling) on a nonblocking socket
/// without reading a reply, until the socket stays unwritable for 200 ms
/// or `limit` bytes went out.
Pipelined pipeline_until_blocked(int fd,
                                 const std::vector<std::string>& frames,
                                 std::size_t limit) {
  set_nonblocking(fd, true);
  Pipelined p;
  while (p.bytes < limit) {
    if (p.rest.empty()) p.rest = frames[p.frames++ % frames.size()];
    const ssize_t rc =
        ::send(fd, p.rest.data(), p.rest.size(), MSG_NOSIGNAL);
    if (rc > 0) {
      p.bytes += std::size_t(rc);
      p.rest.erase(0, std::size_t(rc));
      continue;
    }
    if (rc < 0 && errno != EAGAIN && errno != EWOULDBLOCK) break;
    pollfd pfd{fd, POLLOUT, 0};
    if (::poll(&pfd, 1, 200) == 0) {
      p.blocked = true;
      break;
    }
  }
  set_nonblocking(fd, false);
  return p;
}

/// Query frames of 1-3 samples, and the direct pipeline's verdicts for
/// each (the varying reply sizes make any out-of-order reply visible).
struct FrameSet {
  std::vector<std::vector<Tensor>> batches;
  std::vector<std::string> frames;
  std::vector<std::vector<std::uint8_t>> expected;

  FrameSet(LoopFixture& fx, MonitorService& reference, std::uint64_t seed) {
    for (std::size_t i = 0; i < 7; ++i) {
      batches.push_back(fx.make_inputs(i % 3 + 1, seed + i));
      frames.push_back(query_frame_bytes(batches.back()));
      expected.push_back(fx.direct_warns(reference, batches.back()));
    }
  }
};

// A client that pipelines queries and never reads must be stopped by its
// own socket buffer within a fixed byte bound (the server stops reading
// and parsing it once its unflushed replies pass the budget), while a
// second client on the same loop is still answered. Once the first
// client reads, every reply arrives in order, bit-identical to the direct
// pipeline.
TEST(ServerLoop, PipeliningClientThatNeverReadsIsBackpressured) {
  LoopFixture fx;
  MonitorService service = fx.make_service();
  MonitorService reference = fx.make_service();
  ServerHarness harness(service, unix_config("backpressure", 1));
  const FrameSet set(fx, reference, 1400);

  const ClientFd hog(harness.server.unix_path());
  const Pipelined sent =
      pipeline_until_blocked(hog.fd, set.frames, std::size_t(64) << 20);
  ASSERT_TRUE(sent.blocked) << "server kept reading " << sent.bytes
                            << " bytes from a client that never reads";

  ServeClient other(harness.server.unix_path());
  for (std::size_t i = 0; i < set.batches.size(); ++i) {
    EXPECT_EQ(other.query_warns(set.batches[i]), set.expected[i]);
  }

  // The tail of the last frame can only go out once the server reads
  // again, i.e. once the replies below are drained.
  std::thread finisher([&] { write_all(hog.fd, sent.rest); });
  Frame reply;
  for (std::size_t i = 0; i < sent.frames; ++i) {
    ASSERT_EQ(read_frame_fd(hog.fd, reply), FdReadStatus::kFrame) << i;
    ASSERT_EQ(reply.type, FrameType::kQueryReply) << i;
    ASSERT_EQ(decode_verdicts(reply.payload),
              set.expected[i % set.frames.size()])
        << "reply " << i << " of " << sent.frames;
  }
  finisher.join();
}

// kShutdown on one connection drains the others, whichever loop owns
// them: each backpressured pipeliner receives an in-order prefix of its
// replies — every query the server accepted — and then its connection
// closes; run() returns.
TEST(ServerLoop, ShutdownDrainsBufferedQueriesOnEveryLoop) {
  LoopFixture fx;
  MonitorService service = fx.make_service();
  MonitorService reference = fx.make_service();
  ServerHarness harness(service, unix_config("drainbuf", 2));
  const FrameSet set(fx, reference, 1500);

  constexpr std::size_t kConns = 4;
  std::vector<std::unique_ptr<ClientFd>> conns;
  Frame reply;
  for (std::size_t c = 0; c < kConns; ++c) {
    conns.push_back(std::make_unique<ClientFd>(harness.server.unix_path()));
    // One round trip first: the connection is accepted and served.
    write_all(conns.back()->fd, set.frames[0]);
    ASSERT_EQ(read_frame_fd(conns.back()->fd, reply), FdReadStatus::kFrame);
    ASSERT_EQ(decode_verdicts(reply.payload), set.expected[0]);
    const Pipelined sent = pipeline_until_blocked(
        conns.back()->fd, set.frames, std::size_t(64) << 20);
    ASSERT_TRUE(sent.blocked) << c;
  }
  {
    ServeClient control(harness.server.unix_path());
    control.shutdown_server();
  }

  std::uint64_t answered = kConns;  // the round trips
  for (std::size_t c = 0; c < kConns; ++c) {
    std::size_t i = 0;
    try {
      while (read_frame_fd(conns[c]->fd, reply) == FdReadStatus::kFrame) {
        ASSERT_EQ(reply.type, FrameType::kQueryReply);
        ASSERT_EQ(decode_verdicts(reply.payload),
                  set.expected[i % set.frames.size()])
            << "connection " << c << ", reply " << i;
        ++i;
      }
    } catch (const std::runtime_error&) {
      // Closed with our unread requests still queued: a reset, not EOF.
    }
    answered += i;
  }
  EXPECT_GT(answered, kConns);  // the drain answered buffered queries
  conns.clear();
  harness.join();
  EXPECT_EQ(harness.server.stats().queries, answered);
}

// A rollback from another connection while a swap rebuilds is refused
// with kError at once — the loop never waits on the swap — and succeeds
// once the swap has answered.
TEST(ServerLoop, RollbackRefusedWhileSwapInFlight) {
  LoopFixture fx;
  MonitorService service = fx.make_service();
  ServerHarness harness(service, unix_config("rollswap", 2));

  ServeClient stager(harness.server.unix_path());
  // Enough staged samples that the rebuild outlasts many round trips.
  const std::vector<Tensor> live = fx.make_inputs(4096, 1600);
  for (int i = 0; i < 8; ++i) (void)stager.observe(live);

  const ClientFd swapper(harness.server.unix_path());
  write_frame_fd(swapper.fd, FrameType::kSwap, {});
  // Until the swap starts, a rollback fails for lack of a previous
  // generation; while it runs, for the single-flight slot. A probe that
  // held the slot just as the swap arrived gets the swap refused instead:
  // then the swap is sent again.
  ServeClient roller(harness.server.unix_path());
  bool refused_mid_swap = false;
  Frame reply;
  bool answered = false;
  while (!refused_mid_swap && !answered) {
    pollfd pfd{swapper.fd, POLLIN, 0};
    if (::poll(&pfd, 1, 0) == 1) {
      ASSERT_EQ(read_frame_fd(swapper.fd, reply), FdReadStatus::kFrame);
      answered = reply.type != FrameType::kError;
      if (!answered) {
        ASSERT_NE(decode_error(reply.payload).find("in progress"),
                  std::string::npos);
        write_frame_fd(swapper.fd, FrameType::kSwap, {});
      }
      continue;
    }
    try {
      (void)roller.rollback();
      FAIL() << "rollback succeeded before the swap answered";
    } catch (const std::runtime_error& e) {
      refused_mid_swap =
          std::string(e.what()).find("in progress") != std::string::npos;
    }
  }
  ASSERT_TRUE(refused_mid_swap) << "the swap answered before a rollback "
                                   "could race it";

  ASSERT_EQ(read_frame_fd(swapper.fd, reply), FdReadStatus::kFrame);
  ASSERT_EQ(reply.type, FrameType::kSwapReply);
  EXPECT_EQ(decode_swap_reply(reply.payload).generation, 2U);
  // The slot is free again: the same rollback now restores generation 1.
  EXPECT_EQ(roller.rollback().generation, 1U);
}

// Lemma 1 through the served path: a robust monitor built with (kp = 0,
// Δ), served by two loops, never warns on a training input perturbed
// within 0.9·Δ — before a wire swap that stages those inputs, after it,
// and after a wire rollback.
TEST(ServerLoop, RobustMonitorAcceptsPerturbedTrainingInputsAcrossSwapAndRollback) {
  Rng rng(44);
  Network net = make_small_convnet(8, 8, 3, 16, 4, rng);
  const std::size_t k = net.num_layers() - 1;
  MonitorBuilder builder(net, k);
  std::vector<Tensor> train;
  for (int i = 0; i < 24; ++i) {
    train.push_back(Tensor::random_uniform({1, 8, 8}, rng));
  }
  PerturbationSpec spec;
  spec.kp = 0;
  spec.delta = 0.04F;
  MonitorOptions opts;
  opts.family = MonitorFamily::kInterval;
  opts.bits = 2;
  std::unique_ptr<Monitor> monitor =
      make_monitor(opts, builder.collect_stats(train, true));
  builder.build_robust(*monitor, train, spec);
  std::stringstream buf;
  save_network(buf, net);
  MonitorService service(load_network(buf), std::move(monitor), k);
  ServerHarness harness(service, unix_config("lemma1", 2));

  const auto perturbed = [&](std::uint64_t seed) {
    Rng r{seed};
    std::vector<Tensor> out;
    for (int trial = 0; trial < 4; ++trial) {
      for (const Tensor& t : train) {
        Tensor p = t;
        for (std::size_t j = 0; j < p.numel(); ++j) {
          p[j] += r.uniform_f(-0.9F * spec.delta, 0.9F * spec.delta);
        }
        out.push_back(std::move(p));
      }
    }
    return out;
  };
  // Two clients at once, each with its own perturbations.
  const auto expect_no_warnings = [&](std::uint64_t seed,
                                      const char* phase) {
    std::atomic<std::uint64_t> warnings{0};
    std::vector<std::thread> clients;
    for (std::uint64_t c = 0; c < 2; ++c) {
      clients.emplace_back([&, c] {
        const std::vector<Tensor> inputs = perturbed(seed + c);
        ServeClient client(harness.server.unix_path());
        for (const std::uint8_t w : client.query_warns(inputs)) {
          warnings.fetch_add(w);
        }
      });
    }
    for (std::thread& t : clients) t.join();
    EXPECT_EQ(warnings.load(), 0U) << phase;
  };

  expect_no_warnings(100, "before the swap");
  ServeClient control(harness.server.unix_path());
  EXPECT_EQ(control.observe(perturbed(100)).accepted, 4U * train.size());
  EXPECT_EQ(control.swap().generation, 2U);
  expect_no_warnings(200, "after the swap");
  EXPECT_EQ(control.rollback().generation, 1U);
  expect_no_warnings(300, "after the rollback");
  EXPECT_EQ(control.stats().warnings, 0U);
}

}  // namespace
}  // namespace ranm::serve
