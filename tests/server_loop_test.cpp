// Event-loop concurrency tests for the serving layer: slow-loris partial
// writes interleaved across connections, mid-frame disconnects, queue
// overload -> kOverloaded, N concurrent clients bit-identical to the
// direct pipeline, and graceful drain under load. This suite runs under
// TSan in CI — it is where loop/worker handoff races would surface.
#include "serve/server.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
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

ServerConfig unix_config(const std::string& tag, std::size_t workers,
                         std::size_t queue = 256) {
  ServerConfig config;
  config.unix_path = test_socket_path(tag);
  config.workers = workers;
  config.queue_capacity = queue;
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

// workers=2, queue=1, eight big queries at once: at least one must be
// answered kOverloaded (2 executing + 1 queued < 8), every frame gets
// exactly one reply, and an overloaded connection stays usable.
TEST(ServerLoop, QueueOverloadAnswersOverloadedAndConnectionSurvives) {
  LoopFixture fx;
  MonitorService service = fx.make_service();
  MonitorService reference = fx.make_service();
  ServerHarness harness(service, unix_config("overload", 2, 1));

  // Big enough that both workers are still busy while the later arrivals
  // hit the queue — ~50M flops per query on this MLP, vs microseconds for
  // the loop to parse the remaining frames.
  const std::vector<Tensor> big = fx.make_inputs(8192, 700);
  const std::string frame = query_frame_bytes(big);
  constexpr std::size_t kConns = 8;
  int fds[kConns];
  for (std::size_t i = 0; i < kConns; ++i) {
    fds[i] = connect_unix(harness.server.unix_path());
  }
  for (std::size_t i = 0; i < kConns; ++i) write_all(fds[i], frame);

  std::size_t executed = 0, overloaded = 0;
  int overloaded_fd = -1;
  Frame reply;
  for (std::size_t i = 0; i < kConns; ++i) {
    ASSERT_EQ(read_frame_fd(fds[i], reply), FdReadStatus::kFrame);
    if (reply.type == FrameType::kQueryReply) {
      ++executed;
      EXPECT_EQ(decode_verdicts(reply.payload).size(), big.size());
    } else {
      ASSERT_EQ(reply.type, FrameType::kOverloaded);
      EXPECT_NE(decode_error(reply.payload).find("overloaded"),
                std::string::npos);
      ++overloaded;
      overloaded_fd = fds[i];
    }
  }
  EXPECT_EQ(executed + overloaded, kConns);
  ASSERT_GE(overloaded, 1U);  // 8 arrivals vs 2 workers + 1 queue slot

  // The rejected connection is still usable once load passes.
  const std::vector<Tensor> small = fx.make_inputs(5, 800);
  write_all(overloaded_fd, query_frame_bytes(small));
  ASSERT_EQ(read_frame_fd(overloaded_fd, reply), FdReadStatus::kFrame);
  ASSERT_EQ(reply.type, FrameType::kQueryReply);
  EXPECT_EQ(decode_verdicts(reply.payload),
            fx.direct_warns(reference, small));

  ServeClient statsc(harness.server.unix_path());
  const ServiceStats stats = statsc.stats();
  EXPECT_EQ(stats.overloaded, overloaded);
  EXPECT_EQ(stats.queue_capacity, 1U);
  EXPECT_EQ(stats.queries, executed + 1);
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
  ServerHarness harness(service, unix_config("drain", 2, 64));

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
  EXPECT_EQ(stats.in_flight, 0U);
  EXPECT_EQ(stats.queue_depth, 0U);
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

}  // namespace
}  // namespace ranm::serve
