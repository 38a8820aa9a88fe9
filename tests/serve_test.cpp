// Serving-layer tests: MonitorService answers must be bit-identical to
// the direct forward_batch -> contains_batch pipeline, in-process and
// through the Unix-socket / TCP frame transport; the server must survive
// malformed clients and drain gracefully. (Concurrency-heavy server tests
// — slow-loris, overload, drain-under-load — live in server_loop_test.cpp
// so the TSan job can target them.)
#include "serve/monitor_service.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "compile/lower.hpp"
#include "core/monitor_builder.hpp"
#include "core/sharded_monitor.hpp"
#include "eval/experiment.hpp"
#include "io/serialize.hpp"
#include "nn/init.hpp"
#include "serve/client.hpp"
#include "serve/endpoint.hpp"
#include "serve/fd_frame.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

namespace ranm::serve {
namespace {

/// Short unique socket path: sockaddr_un caps at ~108 bytes, so build
/// trees are out — /tmp plus pid plus a tag stays well under.
std::string test_socket_path(const std::string& tag) {
  return "/tmp/ranm_" + std::to_string(::getpid()) + "_" + tag + ".sock";
}

/// A trained-free fixture: small MLP, random "training" inputs, one flat
/// and one sharded monitor over the layer-4 ReLU features (dim 32).
struct ServeFixture {
  Rng rng{2024};
  Network net = make_mlp({16, 64, 32, 8}, rng);
  std::size_t k = 4;
  std::vector<Tensor> train = make_inputs(64, 11);
  NeuronStats stats{32, true};

  ServeFixture() {
    MonitorBuilder builder(net, k);
    for (const Tensor& t : train) stats.add(builder.features(t));
  }

  [[nodiscard]] std::vector<Tensor> make_inputs(std::size_t n,
                                                std::uint64_t seed) {
    Rng r{seed};
    std::vector<Tensor> inputs;
    inputs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Half near the training distribution, half far out, so both warn
      // verdicts occur.
      const float scale = i % 2 == 0 ? 1.0F : 4.0F;
      inputs.push_back(Tensor::random_uniform({16}, r, -scale, scale));
    }
    return inputs;
  }

  [[nodiscard]] std::unique_ptr<Monitor> build_monitor(std::size_t shards) {
    MonitorOptions opts;
    opts.family = MonitorFamily::kInterval;
    opts.bits = 2;
    opts.shards = shards;
    std::unique_ptr<Monitor> monitor = make_monitor(opts, stats);
    MonitorBuilder builder(net, k);
    builder.build_standard(*monitor, train);
    return monitor;
  }

  /// Ground truth straight through the batch pipeline.
  [[nodiscard]] std::vector<std::uint8_t> direct_warns(
      const Monitor& monitor, std::span<const Tensor> inputs) {
    const FeatureBatch batch = net.forward_batch(k, inputs);
    std::vector<std::uint8_t> out(inputs.size());
    auto flags = std::make_unique<bool[]>(inputs.size());
    monitor.warn_batch(batch, {flags.get(), inputs.size()});
    for (std::size_t i = 0; i < inputs.size(); ++i) out[i] = flags[i];
    return out;
  }

  /// Fresh network clone for the service (MonitorService owns its net).
  [[nodiscard]] Network clone_net() {
    std::stringstream buf;
    save_network(buf, net);
    return load_network(buf);
  }
};

TEST(MonitorService, MatchesDirectPipelineRandomized) {
  ServeFixture fx;
  MonitorService service(fx.clone_net(), fx.build_monitor(1), fx.k);
  const std::unique_ptr<Monitor> reference = fx.build_monitor(1);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                              std::size_t{7}, std::size_t{65}}) {
    const std::vector<Tensor> inputs = fx.make_inputs(n, 100 + n);
    EXPECT_EQ(service.query_warns(inputs),
              fx.direct_warns(*reference, inputs))
        << "batch size " << n;
  }
}

TEST(MonitorService, ShardedMatchesDirectPipeline) {
  ServeFixture fx;
  MonitorService service(fx.clone_net(), fx.build_monitor(4), fx.k, 2);
  const std::unique_ptr<Monitor> reference = fx.build_monitor(4);
  const std::vector<Tensor> inputs = fx.make_inputs(40, 77);
  EXPECT_EQ(service.query_warns(inputs),
            fx.direct_warns(*reference, inputs));
}

TEST(MonitorService, RejectsDimensionMismatch) {
  ServeFixture fx;
  // Layer 2 (dim 64) cannot serve a dim-32 monitor.
  EXPECT_THROW(MonitorService(fx.clone_net(), fx.build_monitor(1), 2),
               std::invalid_argument);
  EXPECT_THROW(MonitorService(fx.clone_net(), nullptr, fx.k),
               std::invalid_argument);
}

TEST(MonitorService, CountersAndShardStats) {
  ServeFixture fx;
  MonitorService service(fx.clone_net(), fx.build_monitor(4), fx.k, 2);
  const std::vector<Tensor> inputs = fx.make_inputs(20, 5);
  const std::vector<std::uint8_t> warns = fx.direct_warns(
      *fx.build_monitor(4), inputs);
  std::uint64_t expected_warnings = 0;
  for (const std::uint8_t w : warns) expected_warnings += w;

  (void)service.query_warns(inputs);
  (void)service.query_warns(std::span<const Tensor>{});
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.queries, 2U);
  EXPECT_EQ(stats.samples, 20U);
  EXPECT_EQ(stats.warnings, expected_warnings);
  EXPECT_EQ(stats.dimension, 32U);
  EXPECT_EQ(stats.layer, fx.k);
  EXPECT_EQ(stats.threads, 2U);
  EXPECT_EQ(stats.shard_strategy, "contiguous");
  ASSERT_EQ(stats.shards.size(), 4U);
  std::uint64_t neurons = 0;
  for (const ShardStatsWire& s : stats.shards) neurons += s.neurons;
  EXPECT_EQ(neurons, 32U);
}

/// Queries one service from several threads at once, alternating the
/// whole probe (the shard fan-out path) with single samples (the inline
/// path); every verdict must equal the serial answer.
void expect_concurrent_queries_match_serial(MonitorService& service,
                                            const std::vector<Tensor>& probe) {
  const std::vector<std::uint8_t> serial = service.query_warns(probe);
  constexpr int kThreads = 4;
  constexpr int kRounds = 4;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::uint8_t> warns;
      for (int r = 0; r < kRounds; ++r) {
        service.query_warns_into(probe, warns);
        if (warns != serial) ++mismatches[t];
        for (std::size_t i = 0; i < probe.size(); i += 7) {
          service.query_warns_into({&probe[i], 1}, warns);
          if (warns.size() != 1 || warns[0] != serial[i]) ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << t;
  EXPECT_EQ(service.stats().samples,
            probe.size() * (1 + kThreads * kRounds) +
                kThreads * kRounds * ((probe.size() + 6) / 7));
}

// One service, one network and one monitor answer every thread: the flat,
// sharded (S = 3 on a 2-thread pool) and compiled sharded engines must be
// reentrant and bit-identical to serial.
TEST(MonitorService, ConcurrentQueriesMatchSerial) {
  ServeFixture fx;
  const std::vector<Tensor> probe = fx.make_inputs(700, 55);
  MonitorService flat(fx.clone_net(), fx.build_monitor(1), fx.k);
  expect_concurrent_queries_match_serial(flat, probe);
  MonitorService sharded(fx.clone_net(), fx.build_monitor(3), fx.k, 2);
  expect_concurrent_queries_match_serial(sharded, probe);
  MonitorService compiled(fx.clone_net(),
                          std::make_unique<compile::CompiledMonitor>(
                              compile::compile_monitor(*fx.build_monitor(3))),
                          fx.k, 2);
  expect_concurrent_queries_match_serial(compiled, probe);
  EXPECT_EQ(compiled.query_warns(probe),
            fx.direct_warns(*fx.build_monitor(3), probe));
}

TEST(MonitorService, ServiceSurvivesFailedQuery) {
  ServeFixture fx;
  MonitorService service(fx.clone_net(), fx.build_monitor(1), fx.k);
  std::vector<Tensor> bad;
  bad.push_back(Tensor::vector({1.0F, 2.0F}));  // wrong input shape
  EXPECT_THROW((void)service.query_warns(bad), std::exception);
  const std::vector<Tensor> good = fx.make_inputs(8, 3);
  EXPECT_EQ(service.query_warns(good).size(), 8U);
}

// One bad input anywhere in a batch is rejected before the batch kernels
// read it through a raw pointer, and the failed query is not counted.
TEST(MonitorService, QueryRejectsOneBadInputBeforeCounting) {
  ServeFixture fx;
  MonitorService service(fx.clone_net(), fx.build_monitor(1), fx.k);
  (void)service.query_warns(fx.make_inputs(5, 3));
  const ServiceStats before = service.stats();
  std::vector<Tensor> inputs = fx.make_inputs(33, 4);
  inputs[17] = Tensor::random_uniform({15}, fx.rng);  // one element short
  std::vector<std::uint8_t> warns;
  EXPECT_THROW(service.query_warns_into(inputs, warns), std::invalid_argument);
  const ServiceStats after = service.stats();
  EXPECT_EQ(after.queries, before.queries);
  EXPECT_EQ(after.samples, before.samples);
  EXPECT_EQ(after.warnings, before.warnings);
}

TEST(MonitorService, FromFilesRoundTrip) {
  ServeFixture fx;
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("ranm_serve_files_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const std::string net_path = (dir / "net.bin").string();
  const std::string mon_path = (dir / "mon.bin").string();
  save_network_file(net_path, fx.net);
  {
    std::ofstream out(mon_path, std::ios::binary);
    save_any_monitor(out, *fx.build_monitor(4));
  }

  MonitorService service =
      MonitorService::from_files(net_path, mon_path, fx.k, 2);
  const std::vector<Tensor> inputs = fx.make_inputs(24, 9);
  EXPECT_EQ(service.query_warns(inputs),
            fx.direct_warns(*fx.build_monitor(4), inputs));
  fs::remove_all(dir);
}

// ---- monitor lifecycle ----------------------------------------------------

TEST(MonitorServiceLifecycle, ObserveCountsNovelAndStages) {
  ServeFixture fx;
  MonitorService service(fx.clone_net(), fx.build_monitor(1), fx.k);
  ASSERT_TRUE(service.adaptive());
  EXPECT_EQ(service.generation(), 1U);

  const std::vector<Tensor> live = fx.make_inputs(24, 91);
  const std::vector<std::uint8_t> warns =
      fx.direct_warns(*fx.build_monitor(1), live);
  std::uint64_t expected_novel = 0;
  for (const std::uint8_t w : warns) expected_novel += w;

  const ObserveReply reply = service.observe_batch(live);
  EXPECT_EQ(reply.accepted, 24U);
  EXPECT_EQ(reply.staged_total, 24U);
  EXPECT_EQ(reply.novel, expected_novel);
  EXPECT_EQ(service.staged_samples(), 24U);
  // Observing must not shift a single verdict before the swap.
  EXPECT_EQ(service.query_warns(live), warns);
}

TEST(MonitorServiceLifecycle, SwapMatchesOfflineRebuild) {
  ServeFixture fx;
  MonitorService service(fx.clone_net(), fx.build_monitor(1), fx.k);
  const std::vector<Tensor> live = fx.make_inputs(32, 92);
  (void)service.observe_batch(live);

  const SwapReply swapped = service.swap();
  EXPECT_EQ(swapped.generation, 2U);
  EXPECT_EQ(swapped.staged_applied, 32U);
  EXPECT_EQ(service.generation(), 2U);
  EXPECT_EQ(service.staged_samples(), 0U);  // applied samples drained

  // Offline reference: the same base monitor folding the same features.
  const std::unique_ptr<Monitor> reference = fx.build_monitor(1);
  reference->observe_batch(fx.net.forward_batch(fx.k, live));
  const std::vector<Tensor> probe = fx.make_inputs(60, 93);
  EXPECT_EQ(service.query_warns(probe),
            fx.direct_warns(*reference, probe));
  // The observed samples are inside the refreshed region by construction.
  for (const std::uint8_t w : service.query_warns(live)) EXPECT_EQ(w, 0);
}

TEST(MonitorServiceLifecycle, ShardedSwapTracksPerShardNovelty) {
  ServeFixture fx;
  MonitorService service(fx.clone_net(), fx.build_monitor(4), fx.k, 2);
  const std::vector<Tensor> live = fx.make_inputs(20, 94);
  const ObserveReply reply = service.observe_batch(live);

  const ServiceStats before = service.stats();
  ASSERT_EQ(before.shards.size(), 4U);
  std::uint64_t shard_novel = 0;
  for (const ShardStatsWire& s : before.shards) shard_novel += s.novel;
  // A sample novel to the whole monitor is novel to >= 1 shard.
  EXPECT_GE(shard_novel, reply.novel);

  const SwapReply swapped = service.swap();
  EXPECT_EQ(swapped.generation, 2U);
  // The swap consumed the staged pool and reset the drift counters.
  const ServiceStats after = service.stats();
  EXPECT_EQ(after.staged_samples, 0U);
  for (const ShardStatsWire& s : after.shards) EXPECT_EQ(s.novel, 0U);

  const std::unique_ptr<Monitor> reference = fx.build_monitor(4);
  reference->observe_batch(fx.net.forward_batch(fx.k, live));
  const std::vector<Tensor> probe = fx.make_inputs(40, 95);
  EXPECT_EQ(service.query_warns(probe),
            fx.direct_warns(*reference, probe));
}

TEST(MonitorServiceLifecycle, RollbackRestoresPreviousVerdicts) {
  ServeFixture fx;
  MonitorService service(fx.clone_net(), fx.build_monitor(1), fx.k);
  const std::vector<Tensor> probe = fx.make_inputs(50, 96);
  const std::vector<std::uint8_t> before = service.query_warns(probe);

  (void)service.observe_batch(fx.make_inputs(16, 97));
  (void)service.swap();
  const RollbackReply rolled = service.rollback();
  EXPECT_EQ(rolled.generation, 1U);
  EXPECT_EQ(service.generation(), 1U);
  // Bit-identical to the pre-swap monitor, not merely similar.
  EXPECT_EQ(service.query_warns(probe), before);

  // Rolling forward again by explicit generation also works: the swapped
  // artifact stays in history.
  (void)service.rollback(2);
  EXPECT_EQ(service.generation(), 2U);
}

TEST(MonitorServiceLifecycle, RollbackErrors) {
  ServeFixture fx;
  MonitorService service(fx.clone_net(), fx.build_monitor(1), fx.k);
  // Generation 1 is live and nothing precedes it.
  EXPECT_THROW((void)service.rollback(), std::runtime_error);
  EXPECT_THROW((void)service.rollback(1ULL << 62), std::runtime_error);
  // The service still answers queries after the failed rollbacks.
  EXPECT_EQ(service.query_warns(fx.make_inputs(4, 98)).size(), 4U);
}

TEST(MonitorServiceLifecycle, CompiledMonitorIsFrozen) {
  ServeFixture fx;
  const std::unique_ptr<Monitor> source = fx.build_monitor(1);
  auto compiled = std::make_unique<compile::CompiledMonitor>(
      compile::compile_monitor(*source));
  MonitorService service(fx.clone_net(), std::move(compiled), fx.k);
  EXPECT_FALSE(service.adaptive());
  EXPECT_THROW((void)service.observe_batch(fx.make_inputs(4, 99)),
               std::invalid_argument);
  // Queries are unaffected: frozen means no adaptation, not no serving.
  const std::vector<Tensor> probe = fx.make_inputs(12, 99);
  EXPECT_EQ(service.query_warns(probe),
            fx.direct_warns(*source, probe));
}

TEST(MonitorServiceLifecycle, StagingCapRejectsOverflow) {
  FeatureBatch batch(2, 3);
  AdaptState state(2, "base-bytes", 0,
                   /*max_staged_bytes=*/4 * 2 * sizeof(float));
  EXPECT_EQ(state.stage(batch, {}), 3U);
  EXPECT_THROW((void)state.stage(batch, {}), std::runtime_error);
  // A failed stage is atomic: the pool still holds exactly 3 samples and
  // a fitting batch still lands.
  EXPECT_EQ(state.telemetry().staged_samples, 3U);
  EXPECT_EQ(state.stage(FeatureBatch(2, 1), {}), 4U);
}

TEST(MonitorServiceLifecycle, StagingBudgetIsBytesNotSamples) {
  // 128 MiB holds 2^20 samples at dimension 32, as the old sample cap
  // did, but only 32768 at a 1024-wide layer (not 4 GiB).
  EXPECT_EQ(AdaptState(32, "base", 0).max_staged_samples(),
            std::size_t{1} << 20);
  EXPECT_EQ(AdaptState(1024, "base", 0).max_staged_samples(), 32768U);
  // The refusal itself at d = 1024, under a 3-sample injected budget.
  AdaptState state(1024, "base", 0, 3 * 1024 * sizeof(float));
  EXPECT_EQ(state.stage(FeatureBatch(1024, 2), {}), 2U);
  EXPECT_THROW((void)state.stage(FeatureBatch(1024, 2), {}),
               std::runtime_error);
  EXPECT_EQ(state.stage(FeatureBatch(1024, 1), {}), 3U);
}

// Observers on several threads stage into the service's one pool, and the
// next swap folds every one of their samples in.
TEST(MonitorServiceLifecycle, ConcurrentObserversShareOneStagingPool) {
  ServeFixture fx;
  MonitorService service(fx.clone_net(), fx.build_monitor(4), fx.k, 2);
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<Tensor>> live;
  for (std::size_t t = 0; t < kThreads; ++t) {
    live.push_back(fx.make_inputs(12, 80 + t));
  }
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] { (void)service.observe_batch(live[t]); });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(service.staged_samples(), kThreads * 12);

  const SwapReply swapped = service.swap();
  EXPECT_EQ(swapped.generation, 2U);
  EXPECT_EQ(swapped.staged_applied, kThreads * 12);
  const std::unique_ptr<Monitor> reference = fx.build_monitor(4);
  for (const std::vector<Tensor>& batch : live) {
    reference->observe_batch(fx.net.forward_batch(fx.k, batch));
  }
  const std::vector<Tensor> probe = fx.make_inputs(40, 89);
  EXPECT_EQ(service.query_warns(probe), fx.direct_warns(*reference, probe));
}

// ---- socket transport -----------------------------------------------------

/// Runs a Server on a background thread for one test.
struct ServerHarness {
  Server server;
  std::thread thread;

  ServerHarness(MonitorService& svc, ServerConfig config)
      : server(svc, std::move(config)) {
    thread = std::thread([this] { server.run(); });
  }

  static ServerConfig unix_config(const std::string& tag,
                                  std::size_t workers = 1) {
    ServerConfig config;
    config.unix_path = test_socket_path(tag);
    config.workers = workers;
    return config;
  }

  ~ServerHarness() {
    server.stop();
    if (thread.joinable()) thread.join();
  }
};

TEST(Server, EndToEndBitIdenticalToDirect) {
  ServeFixture fx;
  MonitorService service(fx.clone_net(), fx.build_monitor(4), fx.k, 2);
  const std::unique_ptr<Monitor> reference = fx.build_monitor(4);
  ServerHarness harness(service, ServerHarness::unix_config("e2e"));

  ServeClient client(harness.server.unix_path());
  // Stream a dataset through the daemon in minibatches; every verdict
  // must match the direct pipeline bit for bit.
  const std::vector<Tensor> dataset = fx.make_inputs(100, 42);
  const std::vector<std::uint8_t> expected =
      fx.direct_warns(*reference, dataset);
  std::vector<std::uint8_t> served;
  const std::size_t batch = 17;  // deliberately not a divisor of 100
  for (std::size_t i = 0; i < dataset.size(); i += batch) {
    const std::size_t n = std::min(batch, dataset.size() - i);
    const auto warns = client.query_warns({dataset.data() + i, n});
    served.insert(served.end(), warns.begin(), warns.end());
  }
  EXPECT_EQ(served, expected);

  const ServiceStats stats = client.stats();
  EXPECT_EQ(stats.samples, 100U);
  EXPECT_EQ(stats.shards.size(), 4U);
}

TEST(Server, TcpEndToEndBitIdenticalToDirect) {
  ServeFixture fx;
  MonitorService service(fx.clone_net(), fx.build_monitor(1), fx.k);
  const std::unique_ptr<Monitor> reference = fx.build_monitor(1);
  ServerConfig config;
  config.tcp = true;  // port 0: kernel-assigned, no collisions in CI
  ServerHarness harness(service, config);
  ASSERT_NE(harness.server.tcp_port(), 0);

  ServeClient client("127.0.0.1", harness.server.tcp_port());
  const std::vector<Tensor> dataset = fx.make_inputs(50, 43);
  EXPECT_EQ(client.query_warns(dataset),
            fx.direct_warns(*reference, dataset));
}

TEST(Server, ShutdownFrameDrainsServer) {
  ServeFixture fx;
  MonitorService service(fx.clone_net(), fx.build_monitor(1), fx.k);
  Server server(service, ServerHarness::unix_config("shutdown"));
  std::thread thread([&server] { server.run(); });
  {
    ServeClient client(server.unix_path());
    client.shutdown_server();
  }
  thread.join();  // returns only if the shutdown frame drained run()
  EXPECT_EQ(server.connections_served(), 1U);
}

TEST(Server, StopUnblocksIdleServer) {
  ServeFixture fx;
  MonitorService service(fx.clone_net(), fx.build_monitor(1), fx.k);
  Server server(service, ServerHarness::unix_config("stop"));
  std::thread thread([&server] { server.run(); });
  server.stop();
  thread.join();
}

TEST(Server, NeedsAtLeastOneListener) {
  ServeFixture fx;
  MonitorService service(fx.clone_net(), fx.build_monitor(1), fx.k);
  EXPECT_THROW(Server(service, ServerConfig{}), std::invalid_argument);
}

TEST(Server, QueryErrorKeepsConnectionUsable) {
  ServeFixture fx;
  MonitorService service(fx.clone_net(), fx.build_monitor(1), fx.k);
  ServerHarness harness(service, ServerHarness::unix_config("qerr"));

  ServeClient client(harness.server.unix_path());
  std::vector<Tensor> bad;
  bad.push_back(Tensor::vector({1.0F}));  // wrong input shape
  EXPECT_THROW((void)client.query_warns(bad), std::runtime_error);
  // Payload-level failures leave the stream synced: same connection, next
  // query answers normally.
  const std::vector<Tensor> good = fx.make_inputs(8, 8);
  EXPECT_EQ(client.query_warns(good).size(), 8U);
}

TEST(Server, RefusesPathAnotherDaemonIsServing) {
  ServeFixture fx;
  MonitorService service(fx.clone_net(), fx.build_monitor(1), fx.k);
  ServerHarness harness(service, ServerHarness::unix_config("inuse"));
  // A second server must not silently steal the live socket.
  EXPECT_THROW(Server(service, ServerHarness::unix_config("inuse")),
               std::runtime_error);
  // The first daemon is unaffected by the refused takeover.
  ServeClient client(harness.server.unix_path());
  EXPECT_EQ(client.query_warns(fx.make_inputs(4, 2)).size(), 4U);
}

TEST(Server, ReplacesStaleSocketFile) {
  ServeFixture fx;
  MonitorService service(fx.clone_net(), fx.build_monitor(1), fx.k);
  const std::string path = test_socket_path("stale");
  {
    // Leftover file with no listener behind it (crashed daemon).
    std::ofstream stale(path);
  }
  ServerHarness harness(service, ServerHarness::unix_config("stale"));
  ServeClient client(path);
  EXPECT_EQ(client.query_warns(fx.make_inputs(4, 3)).size(), 4U);
}

TEST(Server, MalformedFrameGetsErrorAndNextConnectionServes) {
  ServeFixture fx;
  MonitorService service(fx.clone_net(), fx.build_monitor(1), fx.k);
  ServerHarness harness(service, ServerHarness::unix_config("garbage"));

  // Raw client speaking garbage: 16 bytes that are not a valid header.
  {
    const int fd = connect_unix(harness.server.unix_path());
    const char garbage[kFrameHeaderBytes] = "not a frame!!!!";
    ASSERT_EQ(::write(fd, garbage, sizeof garbage),
              ssize_t(sizeof garbage));
    // The server answers with an error frame, then closes.
    Frame reply;
    ASSERT_EQ(read_frame_fd(fd, reply), FdReadStatus::kFrame);
    EXPECT_EQ(reply.type, FrameType::kError);
    EXPECT_EQ(read_frame_fd(fd, reply), FdReadStatus::kEof);
    ::close(fd);
  }

  // The daemon is still alive for well-formed clients.
  ServeClient client(harness.server.unix_path());
  EXPECT_EQ(client.query_warns(fx.make_inputs(4, 1)).size(), 4U);
}

TEST(Server, StatsReportPerWorkerAndAggregate) {
  ServeFixture fx;
  MonitorService service(fx.clone_net(), fx.build_monitor(1), fx.k);
  ServerHarness harness(service,
                        ServerHarness::unix_config("wstats", 2));
  ASSERT_EQ(harness.server.worker_count(), 2U);

  ServeClient client(harness.server.unix_path());
  const std::vector<Tensor> inputs = fx.make_inputs(10, 4);
  for (int i = 0; i < 5; ++i) (void)client.query_warns(inputs);

  const ServiceStats stats = client.stats();
  ASSERT_EQ(stats.workers.size(), 2U);
  std::uint64_t queries = 0, samples = 0, warnings = 0;
  for (const WorkerCountersWire& w : stats.workers) {
    queries += w.queries;
    samples += w.samples;
    warnings += w.warnings;
  }
  // Aggregate is exactly the sum of the per-worker counters.
  EXPECT_EQ(stats.queries, queries);
  EXPECT_EQ(stats.samples, samples);
  EXPECT_EQ(stats.warnings, warnings);
  EXPECT_EQ(stats.queries, 5U);
  EXPECT_EQ(stats.samples, 50U);
  EXPECT_EQ(stats.overloaded, 0U);
}

TEST(Server, ObserveSwapRollbackOverTheWire) {
  ServeFixture fx;
  MonitorService service(fx.clone_net(), fx.build_monitor(4), fx.k, 2);
  // Two workers share the one service: a swap reaches both.
  ServerHarness harness(service,
                        ServerHarness::unix_config("lifecycle", 2));

  ServeClient client(harness.server.unix_path());
  const std::vector<Tensor> probe = fx.make_inputs(40, 70);
  const std::vector<std::uint8_t> before = client.query_warns(probe);

  const std::vector<Tensor> live = fx.make_inputs(24, 71);
  const ObserveReply observed = client.observe(live);
  EXPECT_EQ(observed.accepted, 24U);
  EXPECT_EQ(observed.staged_total, 24U);

  const SwapReply swapped = client.swap();
  EXPECT_EQ(swapped.generation, 2U);
  EXPECT_EQ(swapped.staged_applied, 24U);

  // Both workers serve the refreshed generation: the offline-rebuilt
  // reference matches over many queries (round-robin hits each worker).
  const std::unique_ptr<Monitor> reference = fx.build_monitor(4);
  reference->observe_batch(fx.net.forward_batch(fx.k, live));
  const std::vector<std::uint8_t> expected =
      fx.direct_warns(*reference, probe);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(client.query_warns(probe), expected) << i;
  }

  ServiceStats stats = client.stats();
  EXPECT_EQ(stats.generation, 2U);
  EXPECT_EQ(stats.swaps, 1U);
  EXPECT_EQ(stats.staged_samples, 0U);
  EXPECT_GT(stats.rolling_samples, 0U);

  const RollbackReply rolled = client.rollback();
  EXPECT_EQ(rolled.generation, 1U);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(client.query_warns(probe), before) << i;
  }
  stats = client.stats();
  EXPECT_EQ(stats.generation, 1U);
  EXPECT_EQ(stats.rollbacks, 1U);
}

// The caller's service is the served one: a swap or rollback over the
// wire changes what in-process queries on it answer, too.
TEST(Server, WireSwapReachesTheCallersService) {
  ServeFixture fx;
  MonitorService service(fx.clone_net(), fx.build_monitor(1), fx.k);
  ServerHarness harness(service, ServerHarness::unix_config("caller", 2));
  ServeClient client(harness.server.unix_path());
  const std::vector<Tensor> live = fx.make_inputs(32, 76);
  // The probe holds the observed samples, which the swap takes in.
  std::vector<Tensor> probe = fx.make_inputs(28, 75);
  probe.insert(probe.end(), live.begin(), live.end());
  const std::vector<std::uint8_t> before = service.query_warns(probe);

  (void)client.observe(live);
  ASSERT_EQ(client.swap().generation, 2U);
  const std::unique_ptr<Monitor> reference = fx.build_monitor(1);
  reference->observe_batch(fx.net.forward_batch(fx.k, live));
  const std::vector<std::uint8_t> expected =
      fx.direct_warns(*reference, probe);
  ASSERT_NE(expected, before);  // the swap must change some verdict
  EXPECT_EQ(service.generation(), 2U);
  EXPECT_EQ(service.query_warns(probe), expected);

  ASSERT_EQ(client.rollback().generation, 1U);
  EXPECT_EQ(service.query_warns(probe), before);
}

// A store attached after the server started resumes its newest
// generation for every worker, not only for the caller.
TEST(Server, StoreAttachedAfterStartResumesForEveryWorker) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("ranm_serve_late_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  ServeFixture fx;
  const std::vector<Tensor> live = fx.make_inputs(24, 78);
  std::vector<Tensor> probe = fx.make_inputs(16, 77);
  probe.insert(probe.end(), live.begin(), live.end());
  std::vector<std::uint8_t> swapped;
  {
    MonitorService first(fx.clone_net(), fx.build_monitor(1), fx.k);
    (void)first.set_snapshot_store(
        std::make_unique<SnapshotStore>(dir.string(), 4));
    const std::vector<std::uint8_t> before = first.query_warns(probe);
    (void)first.observe_batch(live);
    ASSERT_EQ(first.swap().generation, 2U);
    swapped = first.query_warns(probe);
    ASSERT_NE(swapped, before);  // generation 2 must be distinguishable
  }
  MonitorService restarted(fx.clone_net(), fx.build_monitor(1), fx.k);
  ServerHarness harness(restarted, ServerHarness::unix_config("late", 2));
  EXPECT_EQ(restarted.set_snapshot_store(
                std::make_unique<SnapshotStore>(dir.string(), 4)),
            2U);
  ServeClient client(harness.server.unix_path());
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(client.query_warns(probe), swapped) << i;
  }
  EXPECT_EQ(client.stats().generation, 2U);
  fs::remove_all(dir);
}

TEST(Server, CompiledObserveAnswersErrorAndServesOn) {
  ServeFixture fx;
  const std::unique_ptr<Monitor> source = fx.build_monitor(1);
  auto compiled = std::make_unique<compile::CompiledMonitor>(
      compile::compile_monitor(*source));
  MonitorService service(fx.clone_net(), std::move(compiled), fx.k);
  // The satellite bug: with workers, CompiledMonitor::observe's error
  // used to escape the worker thread and take the daemon down. It must
  // come back as a structured kError on the same connection instead.
  ServerHarness harness(service, ServerHarness::unix_config("frozen", 2));

  ServeClient client(harness.server.unix_path());
  const std::vector<Tensor> live = fx.make_inputs(8, 72);
  for (int i = 0; i < 3; ++i) {
    EXPECT_THROW((void)client.observe(live), std::runtime_error) << i;
  }
  // Same connection, same workers: queries still answer, and a second
  // connection is accepted — the event loop and both workers survived.
  EXPECT_EQ(client.query_warns(live),
            fx.direct_warns(*source, live));
  ServeClient second(harness.server.unix_path());
  EXPECT_EQ(second.query_warns(live).size(), 8U);
  EXPECT_THROW((void)second.rollback(), std::runtime_error);
  EXPECT_EQ(second.stats().generation, 0U);  // adaptation disabled
}

TEST(Server, SwapPersistsGenerationsAcrossRestart) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("ranm_serve_gens_" + std::to_string(::getpid()));
  fs::remove_all(dir);

  ServeFixture fx;
  const std::vector<Tensor> probe = fx.make_inputs(40, 73);
  std::vector<std::uint8_t> swapped_verdicts;
  {
    MonitorService service(fx.clone_net(), fx.build_monitor(1), fx.k);
    EXPECT_EQ(service.set_snapshot_store(
                  std::make_unique<SnapshotStore>(dir.string(), 4)),
              0U);  // fresh store: nothing resumed
    ServerHarness harness(service, ServerHarness::unix_config("gens"));
    ServeClient client(harness.server.unix_path());
    (void)client.observe(fx.make_inputs(16, 74));
    EXPECT_EQ(client.swap().generation, 2U);
    swapped_verdicts = client.query_warns(probe);
  }

  // "Restart": a fresh service over the original artifact resumes the
  // newest persisted generation from the store.
  MonitorService restarted(fx.clone_net(), fx.build_monitor(1), fx.k);
  EXPECT_EQ(restarted.set_snapshot_store(
                std::make_unique<SnapshotStore>(dir.string(), 4)),
            2U);
  EXPECT_EQ(restarted.generation(), 2U);
  EXPECT_EQ(restarted.query_warns(probe), swapped_verdicts);
  // And the persisted history still supports a rollback to generation 1.
  EXPECT_EQ(restarted.rollback().generation, 1U);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace ranm::serve
