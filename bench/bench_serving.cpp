// Serving-layer cost: what does answering membership through the daemon
// add over the in-process pipeline, how does it amortise with batch
// size, and how does aggregate throughput behave under concurrent load?
// Deployment monitors run next to a live DNN, so the numbers that matter
// are sustained queries/s and tail latency at the frame sizes the vehicle
// actually produces.
//
// Three single-client paths per batch size, all against the same
// MonitorService artifacts:
//
//   direct — MonitorService::query_warns called in-process (the serving
//            core with zero transport cost)
//   socket — the full wire path: frame encode -> Unix socket -> epoll
//            loop -> query -> reply (what `ranm query` pays)
//   tcp    — the same through the TCP listener (loopback, TCP_NODELAY)
//
// plus a closed-loop load mode: C concurrent clients, each with its own
// connection, against a server with N event loops (`workers`) —
// aggregate queries/s and p50/p99/p999 latency as offered load and loop
// count vary; workers = clients at 1, 2 and 4 shows how the loops scale
// with the cores the host gives them. Results are printed as a table and
// written as BENCH_serving.json (or argv[1]). RANM_SMOKE=1 shrinks the
// sweep for CI smoke runs.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/monitor_builder.hpp"
#include "eval/experiment.hpp"
#include "io/serialize.hpp"
#include "nn/init.hpp"
#include "serve/client.hpp"
#include "serve/monitor_service.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace ranm {
namespace {

struct Fixture {
  Rng rng{123};
  Network net = make_mlp({16, 64, 32, 8}, rng);
  std::size_t k = 4;  // ReLU after second Dense, dim 32
  std::vector<Tensor> train;
  std::vector<Tensor> pool;  // query inputs, reused across requests
  NeuronStats stats{32, true};

  explicit Fixture(std::size_t samples, std::size_t pool_size) {
    MonitorBuilder builder(net, k);
    train.reserve(samples);
    for (std::size_t i = 0; i < samples; ++i) {
      train.push_back(Tensor::random_uniform({16}, rng));
      stats.add(builder.features(train.back()));
    }
    pool.reserve(pool_size);
    for (std::size_t i = 0; i < pool_size; ++i) {
      const float scale = i % 2 == 0 ? 1.0F : 3.0F;
      pool.push_back(Tensor::random_uniform({16}, rng, -scale, scale));
    }
  }

  [[nodiscard]] std::unique_ptr<Monitor> build_monitor(
      std::size_t shards) {
    MonitorOptions opts;
    opts.family = MonitorFamily::kInterval;
    opts.bits = 2;
    opts.shards = shards;
    std::unique_ptr<Monitor> monitor = make_monitor(opts, stats);
    MonitorBuilder builder(net, k);
    builder.build_standard(*monitor, train);
    return monitor;
  }

  [[nodiscard]] Network clone_net() {
    std::stringstream buf;
    save_network(buf, net);
    return load_network(buf);
  }
};

struct Measurement {
  std::string monitor;
  std::string mode;  // "direct" | "socket" | "tcp" | "load" | lifecycle
  std::size_t batch_size = 0;
  std::size_t requests = 0;
  std::size_t workers = 0;  // 0: in-process (no server)
  std::size_t clients = 1;
  double queries_per_s = 0.0;
  double samples_per_s = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  // Median kSwap round trip (rebuild + publish), only on
  // "swap" rows; < 0 elsewhere. bench_diff gates this in CI.
  double swap_ms = -1.0;
};

/// Keeps verdicts observable so the compiler cannot drop the loops.
std::size_t g_sink = 0;

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const std::size_t idx = std::min(
      sorted.size() - 1, std::size_t(q * double(sorted.size())));
  return sorted[idx];
}

void fill_latencies(Measurement& m, std::vector<double>& latencies_ms,
                    double secs) {
  std::sort(latencies_ms.begin(), latencies_ms.end());
  m.requests = latencies_ms.size();
  m.queries_per_s =
      secs > 0.0 ? double(latencies_ms.size()) / secs : 0.0;
  m.samples_per_s = m.queries_per_s * double(m.batch_size);
  m.p50_ms = percentile(latencies_ms, 0.50);
  m.p99_ms = percentile(latencies_ms, 0.99);
  m.p999_ms = percentile(latencies_ms, 0.999);
}

/// Drives `request(batch_span)` `requests` times on this thread and
/// extracts the latency distribution.
template <typename Fn>
Measurement sweep(const Fixture& fx, const std::string& monitor,
                  const std::string& mode, std::size_t workers,
                  std::size_t batch, std::size_t requests, Fn&& request) {
  const std::span<const Tensor> inputs(fx.pool.data(),
                                       std::min(batch, fx.pool.size()));
  (void)request(inputs);  // warmup
  std::vector<double> latencies_ms;
  latencies_ms.reserve(requests);
  Timer total;
  for (std::size_t r = 0; r < requests; ++r) {
    Timer timer;
    g_sink += request(inputs);
    latencies_ms.push_back(timer.millis());
  }
  const double secs = total.seconds();

  Measurement m;
  m.monitor = monitor;
  m.mode = mode;
  m.batch_size = inputs.size();
  m.workers = workers;
  m.clients = 1;
  fill_latencies(m, latencies_ms, secs);
  return m;
}

/// Closed-loop load: `clients` threads, each with its own connection,
/// each issuing `per_client` queries of `batch` samples back to back
/// against a server with `workers` event loops. Aggregate throughput and the
/// merged latency distribution.
Measurement load_sweep(const Fixture& fx, serve::MonitorService& service,
                       const std::string& monitor, std::size_t workers,
                       std::size_t clients, std::size_t batch,
                       std::size_t per_client) {
  serve::ServerConfig config;
  config.unix_path =
      "/tmp/ranm_bench_" + std::to_string(::getpid()) + "_load.sock";
  config.workers = workers;
  serve::Server server(service, config);
  std::thread server_thread([&server] { server.run(); });

  const std::span<const Tensor> inputs(fx.pool.data(),
                                       std::min(batch, fx.pool.size()));
  std::vector<std::vector<double>> per_client_lat(clients);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  Timer total;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      serve::ServeClient client(server.unix_path());
      std::vector<std::uint8_t> warns;
      client.query_warns_into(inputs, warns);  // warmup + connect
      auto& lat = per_client_lat[c];
      lat.reserve(per_client);
      for (std::size_t r = 0; r < per_client; ++r) {
        Timer timer;
        client.query_warns_into(inputs, warns);
        lat.push_back(timer.millis());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double secs = total.seconds();
  server.stop();
  server_thread.join();

  std::vector<double> latencies_ms;
  latencies_ms.reserve(clients * per_client);
  for (auto& lat : per_client_lat) {
    latencies_ms.insert(latencies_ms.end(), lat.begin(), lat.end());
    g_sink += lat.size();
  }

  Measurement m;
  m.monitor = monitor;
  m.mode = "load";
  m.batch_size = inputs.size();
  m.workers = workers;
  m.clients = clients;
  fill_latencies(m, latencies_ms, secs);
  return m;
}

std::string json_row(const Measurement& m) {
  std::ostringstream out;
  out << "{\"monitor\": \"" << m.monitor << "\", \"mode\": \"" << m.mode
      << "\", \"batch_size\": " << m.batch_size
      << ", \"workers\": " << m.workers << ", \"clients\": " << m.clients
      << ", \"requests\": " << m.requests
      << ", \"queries_per_s\": " << m.queries_per_s
      << ", \"samples_per_s\": " << m.samples_per_s
      << ", \"p50_ms\": " << m.p50_ms << ", \"p99_ms\": " << m.p99_ms
      << ", \"p999_ms\": " << m.p999_ms;
  if (m.swap_ms >= 0.0) out << ", \"swap_ms\": " << m.swap_ms;
  out << "}";
  return out.str();
}

int run(int argc, char** argv) {
  const bool smoke = benchutil::smoke_mode();
  const std::string report_path =
      argc > 1 ? argv[1] : "BENCH_serving.json";

  const std::vector<std::size_t> batches =
      smoke ? std::vector<std::size_t>{1, 32}
            : std::vector<std::size_t>{1, 8, 32, 128, 256};
  const auto requests_for = [smoke](std::size_t batch) {
    if (smoke) return std::size_t{5};
    return std::clamp<std::size_t>(4096 / batch, 64, 1024);
  };

  Fixture fx(smoke ? 32 : 256, 256);
  std::vector<Measurement> results;

  struct Config {
    std::string name;
    std::size_t shards;
    std::size_t threads;
  };
  const std::vector<Config> configs = {{"interval", 1, 1},
                                       {"interval_s4", 4, 2}};

  for (const Config& cfg : configs) {
    serve::MonitorService service(fx.clone_net(),
                                  fx.build_monitor(cfg.shards), fx.k,
                                  cfg.threads);

    // In-process path: the serving core with zero transport cost.
    std::vector<std::uint8_t> direct_scratch;
    for (const std::size_t batch : batches) {
      results.push_back(sweep(
          fx, cfg.name, "direct", 0, batch, requests_for(batch),
          [&service,
           &direct_scratch](std::span<const Tensor> inputs) {
            service.query_warns_into(inputs, direct_scratch);
            return direct_scratch.size();
          }));
    }

    // Wire paths: one inline worker (no handoff), one client, over the
    // Unix socket and over loopback TCP.
    serve::ServerConfig server_config;
    server_config.unix_path =
        "/tmp/ranm_bench_" + std::to_string(::getpid()) + ".sock";
    server_config.tcp = true;  // ephemeral port
    serve::Server server(service, server_config);
    std::thread server_thread([&server] { server.run(); });
    {
      serve::ServeClient unix_client(server.unix_path());
      std::vector<std::uint8_t> scratch;
      for (const std::size_t batch : batches) {
        results.push_back(sweep(
            fx, cfg.name, "socket", 1, batch, requests_for(batch),
            [&unix_client, &scratch](std::span<const Tensor> inputs) {
              unix_client.query_warns_into(inputs, scratch);
              return scratch.size();
            }));
      }
      serve::ServeClient tcp_client("127.0.0.1", server.tcp_port());
      for (const std::size_t batch : batches) {
        results.push_back(sweep(
            fx, cfg.name, "tcp", 1, batch, requests_for(batch),
            [&tcp_client, &scratch](std::span<const Tensor> inputs) {
              tcp_client.query_warns_into(inputs, scratch);
              return scratch.size();
            }));
      }
    }
    server.stop();
    server_thread.join();
  }

  // Closed-loop load grid: C clients x N loops on the flat monitor
  // (loop parallelism is the subject; shard threads stay out).
  {
    serve::MonitorService service(fx.clone_net(), fx.build_monitor(1),
                                  fx.k, 1);
    struct LoadPoint {
      std::size_t workers, clients;
    };
    const std::vector<LoadPoint> grid =
        smoke ? std::vector<LoadPoint>{{1, 2}, {2, 2}}
              : std::vector<LoadPoint>{
                    {1, 1}, {1, 4}, {2, 2}, {2, 4}, {4, 4}, {4, 8}};
    const std::size_t load_batch = 32;
    const std::size_t per_client = smoke ? 6 : 300;
    for (const LoadPoint& point : grid) {
      results.push_back(load_sweep(fx, service, "interval", point.workers,
                                   point.clients, load_batch,
                                   per_client));
    }
  }

  // Monitor lifecycle: what staging a live batch costs on the query
  // path, and how long the atomic swap (background rebuild + publish)
  // takes end to end over the wire.
  {
    serve::MonitorService service(fx.clone_net(), fx.build_monitor(1),
                                  fx.k, 1);
    serve::ServerConfig config;
    config.unix_path = "/tmp/ranm_bench_" + std::to_string(::getpid()) +
                       "_swap.sock";
    config.workers = 2;
    serve::Server server(service, config);
    std::thread server_thread([&server] { server.run(); });
    {
      serve::ServeClient client(server.unix_path());
      const std::size_t obs_batch = 32;
      results.push_back(
          sweep(fx, "interval", "observe", 2, obs_batch,
                smoke ? std::size_t{5} : std::size_t{128},
                [&client](std::span<const Tensor> inputs) {
                  return std::size_t(client.observe(inputs).accepted);
                }));
      // Drain the observe sweep's staged pool so every timed swap folds
      // exactly one batch.
      (void)client.swap();

      const std::size_t swap_iters = smoke ? 3 : 24;
      std::vector<double> swap_lat;
      swap_lat.reserve(swap_iters);
      Timer total;
      for (std::size_t i = 0; i < swap_iters; ++i) {
        const std::span<const Tensor> staged(fx.pool.data(), obs_batch);
        g_sink += std::size_t(client.observe(staged).accepted);
        Timer timer;
        (void)client.swap();
        swap_lat.push_back(timer.millis());
      }
      Measurement m;
      m.monitor = "interval";
      m.mode = "swap";
      m.batch_size = obs_batch;
      m.workers = 2;
      fill_latencies(m, swap_lat, total.seconds());
      m.swap_ms = m.p50_ms;
      results.push_back(m);
    }
    server.stop();
    server_thread.join();
  }

  TextTable table("serving throughput and latency");
  table.set_header({"monitor", "mode", "batch", "workers", "clients",
                    "queries/s", "samples/s", "p50 ms", "p99 ms",
                    "p99.9 ms"});
  std::vector<std::string> rows;
  rows.reserve(results.size());
  for (const Measurement& m : results) {
    table.add_row({m.monitor, m.mode, std::to_string(m.batch_size),
                   std::to_string(m.workers), std::to_string(m.clients),
                   TextTable::num(m.queries_per_s, 0),
                   TextTable::num(m.samples_per_s, 0),
                   TextTable::num(m.p50_ms, 4),
                   TextTable::num(m.p99_ms, 4),
                   TextTable::num(m.p999_ms, 4)});
    rows.push_back(json_row(m));
  }
  table.print();
  benchutil::write_json_report(
      report_path, "bench_serving", smoke, rows,
      "latency percentiles: element floor(q * n) of the sorted latencies of "
      "every timed request after one untimed warm-up; queries/s: timed "
      "requests over their wall time");
  std::printf("sink: %zu\n", g_sink);
  return 0;
}

}  // namespace
}  // namespace ranm

int main(int argc, char** argv) { return ranm::run(argc, argv); }
