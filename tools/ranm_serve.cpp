// ranm_serve — long-running concurrent monitor serving daemon.
//
// Loads the network and monitor artifacts once, then answers minibatch
// membership queries over a Unix-domain socket and/or TCP for the life of
// the process (the deployment shape of the paper's monitors: a watcher
// riding along with a live DNN, not a batch job):
//
//   ranm_serve --net net.bin --monitor monitor.bin --layer 6
//              --socket /tmp/ranm.sock [--tcp PORT] [--workers N]
//              [--threads T]
//
// --workers N runs N epoll event loops over the one loaded service. Each
// connection is accepted by one loop, which answers its queries inline;
// a client that pipelines without reading is backpressured through its
// own socket.
//
// Clients: `ranm query --socket /tmp/ranm.sock --in-dist test.ds` (or
// `--tcp host:port`), the in-process ServeClient API, or anything
// speaking the frame protocol (serve/protocol.hpp). SIGINT/SIGTERM/SIGHUP
// (or a client shutdown frame) drain the daemon gracefully — accepting
// stops, every accepted query is answered — and final counters are
// printed.
//
// With --generations DIR the daemon persists every swapped monitor
// generation into DIR (crash-consistent, rotated to --keep files) and
// resumes the newest persisted generation on restart.
#include <csignal>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>

#include "serve/monitor_service.hpp"
#include "serve/server.hpp"
#include "serve/snapshot_store.hpp"
#include "util/args.hpp"

namespace ranm::cli {
namespace {

[[noreturn]] void usage() {
  std::fputs(
      "usage: ranm_serve --net FILE --monitor FILE --layer K\n"
      "                  [--socket PATH] [--tcp PORT]\n"
      "                  [--workers N] [--threads T]\n"
      "                  [--generations DIR] [--keep N]\n"
      "  --socket:  Unix-domain listener path\n"
      "  --tcp:     TCP listener port (1-65535)\n"
      "             at least one of --socket/--tcp is required\n"
      "  --workers: event loops, each answering the connections it\n"
      "             accepted (0 = hardware concurrency, default 1)\n"
      "  --threads: shard-level parallelism inside each query for\n"
      "             sharded monitors (0 = hardware concurrency, default 1)\n"
      "  --generations: directory persisting swapped monitor generations\n"
      "             (crash-consistent, rotated; newest resumed on restart)\n"
      "  --keep:    generations retained in --generations (default 8)\n",
      stderr);
  std::exit(2);
}

// The signal handlers reach the server through this pointer;
// Server::stop() is one write() on an eventfd, so calling it from a
// handler is async-signal-safe.
serve::Server* g_server = nullptr;

void handle_signal(int) {
  if (g_server != nullptr) g_server->stop();
}

void install_signal_handlers() {
  struct sigaction sa = {};
  sa.sa_handler = handle_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: blocking calls must wake up
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  // SIGHUP is how a closing terminal and systemd's default kill sequence
  // reach a daemon; without a handler it killed the process mid-query.
  // Drain exactly like SIGTERM.
  sigaction(SIGHUP, &sa, nullptr);
}

int run(int argc, char** argv) {
  const ArgParser args(argc, argv);
  args.check_known({"net", "monitor", "layer", "socket", "tcp", "workers",
                    "threads", "generations", "keep", "help"});
  if (args.has("help")) usage();
  const std::size_t layer = args.get_size("layer", 0, 1U << 20);
  // 0 means hardware concurrency; bounded like ranm_cli's --threads.
  const std::size_t threads = args.get_size("threads", 1, 256);

  serve::ServerConfig config;
  config.unix_path = args.get("socket", "");
  if (args.has("tcp")) {
    // Port 0 would bind a kernel-assigned ephemeral port — fine for the
    // in-process test Server, but a daemon on a port the operator never
    // asked for is just unreachable. Reject it loudly.
    const std::size_t port = args.get_size("tcp", 0, 65535);
    if (port == 0) {
      throw std::invalid_argument(
          "ranm_serve: --tcp 0 (ephemeral port) is not allowed for a "
          "daemon — pick an explicit port in 1-65535");
    }
    config.tcp = true;
    config.tcp_port = static_cast<std::uint16_t>(port);
  }
  if (config.unix_path.empty() && !config.tcp) {
    throw std::invalid_argument(
        "ranm_serve: need at least one listener (--socket PATH and/or "
        "--tcp PORT)");
  }
  config.workers = args.get_size("workers", 1, 256);
  if (args.has("keep") && !args.has("generations")) {
    throw std::invalid_argument(
        "ranm_serve: --keep needs --generations DIR");
  }

  serve::MonitorService service = serve::MonitorService::from_files(
      args.require("net"), args.require("monitor"), layer, threads);
  std::printf("loaded %s (dim %zu, layer %zu)\n",
              service.monitor_description().c_str(), service.dimension(),
              service.layer_k());

  if (args.has("generations")) {
    const std::size_t keep = args.get_size("keep", 8, 4096);
    const std::uint64_t resumed = service.set_snapshot_store(
        std::make_unique<serve::SnapshotStore>(args.require("generations"),
                                               keep));
    if (resumed != 0) {
      std::printf("resumed generation %llu from %s\n",
                  static_cast<unsigned long long>(resumed),
                  args.require("generations").c_str());
    }
  }

  serve::Server server(service, config);
  g_server = &server;
  install_signal_handlers();
  if (!server.unix_path().empty()) {
    std::printf("serving on %s", server.unix_path().c_str());
    if (server.tcp_port() != 0) std::printf(" and tcp port %u",
                                            unsigned(server.tcp_port()));
  } else {
    std::printf("serving on tcp port %u", unsigned(server.tcp_port()));
  }
  std::printf(" with %zu event loop%s — SIGINT/SIGTERM/SIGHUP or a shutdown "
              "frame drains\n",
              server.worker_count(),
              server.worker_count() == 1 ? "" : "s");
  std::fflush(stdout);
  server.run();
  g_server = nullptr;

  // The aggregate counters are the service's; the server adds the
  // per-loop breakdown.
  const serve::ServiceStats stats = server.stats();
  std::printf("stopped after %llu connections: %llu queries, "
              "%llu samples, %llu warnings\n",
              static_cast<unsigned long long>(server.connections_served()),
              static_cast<unsigned long long>(stats.queries),
              static_cast<unsigned long long>(stats.samples),
              static_cast<unsigned long long>(stats.warnings));
  if (stats.generation != 0) {
    std::printf("lifecycle: generation %llu, %llu swap%s, %llu "
                "rollback%s, %llu staged sample%s\n",
                static_cast<unsigned long long>(stats.generation),
                static_cast<unsigned long long>(stats.swaps),
                stats.swaps == 1 ? "" : "s",
                static_cast<unsigned long long>(stats.rollbacks),
                stats.rollbacks == 1 ? "" : "s",
                static_cast<unsigned long long>(stats.staged_samples),
                stats.staged_samples == 1 ? "" : "s");
  }
  return 0;
}

}  // namespace
}  // namespace ranm::cli

int main(int argc, char** argv) {
  try {
    return ranm::cli::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ranm_serve: %s\n", e.what());
    return 1;
  }
}
