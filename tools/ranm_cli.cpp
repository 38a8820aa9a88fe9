// ranm — command-line front end for the monitoring library.
//
// Subcommands compose into the full offline pipeline:
//
//   ranm gen    --workload track --variant nominal --count 500 --seed 1
//               --out train.ds
//   ranm train  --data train.ds --task regression --epochs 6 --out net.bin
//   ranm build  --net net.bin --data train.ds --layer 6 --type minmax
//               --robust --delta 0.005 --out monitor.bin
//   ranm compile --monitor monitor.bin --out monitor.rcm
//   ranm eval   --net net.bin --monitor monitor.rcm --layer 6
//               --in-dist test.ds --ood dark.ds --ood ice.ds
//   ranm info   --net net.bin | --monitor monitor.bin | --data file.ds
//
// and `ranm query` is the serving-layer client: it streams datasets
// through a running ranm_serve daemon instead of loading artifacts
// itself.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "compile/compiled_io.hpp"
#include "compile/lower.hpp"
#include "core/interval_monitor.hpp"
#include "core/minmax_monitor.hpp"
#include "core/monitor_builder.hpp"
#include "core/monitor_dot.hpp"
#include "core/monitorability.hpp"
#include "core/sharded_monitor.hpp"
#include "data/digits.hpp"
#include "eval/experiment.hpp"
#include "data/racetrack.hpp"
#include "data/signs.hpp"
#include "eval/metrics.hpp"
#include "io/serialize.hpp"
#include "nn/init.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/trainer.hpp"
#include "serve/client.hpp"
#include "serve/endpoint.hpp"
#include "util/args.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace ranm::cli {
namespace {

[[noreturn]] void usage() {
  std::fputs(
      "usage: ranm <gen|train|build|compile|eval|query|observe|"
      "swap|rollback|info> [options]\n"
      "  gen    --workload track|digits|signs [--variant NAME]\n"
      "         --count N [--seed S] --out FILE\n"
      "  train  --data FILE --task regression|classification\n"
      "         [--epochs N] [--lr F] [--hidden N] [--channels N]\n"
      "         [--seed S] --out FILE\n"
      "  build  --net FILE --data FILE --layer K\n"
      "         --type minmax|onoff|interval [--bits B]\n"
      "         [--shards N] [--threads T]\n"
      "         [--shard-strategy contiguous|round-robin|shuffled]\n"
      "         [--shard-seed S]\n"
      "         [--robust] [--delta F] [--kp K] [--domain box|zonotope]\n"
      "         --out FILE\n"
      "  compile --monitor FILE --out FILE [--threads T]   (lower a\n"
      "         frozen monitor to an RCM1 compiled artifact; eval/serve\n"
      "         load it like any monitor)\n"
      "  eval   --net FILE --monitor FILE --layer K --in-dist FILE\n"
      "         [--ood FILE ...] [--threads T]\n"
      "  query  --socket PATH | --tcp HOST:PORT [--in-dist FILE]\n"
      "         [--ood FILE ...] [--batch N] [--stats]   (talks to a\n"
      "         ranm_serve daemon over unix or tcp)\n"
      "  observe --socket PATH | --tcp HOST:PORT --data FILE [--batch N]\n"
      "         (stream a dataset into the daemon's staging pool for the\n"
      "         next swap; prints novelty against the live monitor)\n"
      "  swap   --socket PATH | --tcp HOST:PORT   (rebuild from staged\n"
      "         samples and atomically publish the refreshed monitor)\n"
      "  rollback --socket PATH | --tcp HOST:PORT [--generation G]\n"
      "         (restore a persisted generation; default: the previous)\n"
      "  info   --net FILE | --monitor FILE [--dot FILE] | --data FILE\n",
      stderr);
  std::exit(2);
}

// Range caps for the size-like options. Far above any real run, but low
// enough that a typo'd or negative value fails loudly instead of sizing a
// multi-gigabyte allocation.
constexpr std::size_t kMaxCount = 1U << 26;    // dataset samples
constexpr std::size_t kMaxLayer = 1U << 20;    // network depth
constexpr std::size_t kMaxWidth = 1U << 20;    // hidden/channel widths
constexpr std::size_t kMaxEpochs = 1U << 20;
constexpr std::size_t kMaxBatch = 1U << 20;
constexpr std::size_t kMaxBits = 16;           // ThresholdSpec limit
constexpr std::size_t kMaxKp = 1U << 26;       // perturbed-pixel count
constexpr double kMaxDelta = 1e9;              // L-inf perturbation radius

/// --threads: 0 means hardware concurrency; bounded so a typo cannot ask
/// the pool to spawn thousands of OS threads.
std::size_t parse_threads(const ArgParser& args) {
  const std::int64_t t = args.get_int("threads", 1);
  if (t < 0 || t > 256) {
    throw std::invalid_argument("--threads must be in 0..256");
  }
  return std::size_t(t);
}

/// --ood is repeatable and each occurrence may itself be a comma list
/// (the historical workaround from when the parser silently kept only
/// the last occurrence).
std::vector<std::string> ood_paths(const ArgParser& args) {
  std::vector<std::string> paths;
  for (const std::string& entry : args.get_all("ood")) {
    std::size_t start = 0;
    while (start <= entry.size()) {
      std::size_t comma = entry.find(',', start);
      if (comma == std::string::npos) comma = entry.size();
      if (comma > start) paths.push_back(entry.substr(start, comma - start));
      start = comma + 1;
    }
  }
  return paths;
}

/// samples/s table cell; a timed region that rounds to zero seconds is
/// reported as "n/a", not a misleading 0.
std::string per_sec_cell(std::size_t samples, double secs) {
  if (secs <= 0.0) return "n/a";
  return TextTable::num(double(samples) / secs, 0);
}

Dataset load_dataset_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open dataset " + path);
  return load_dataset(in);
}

void save_dataset_file(const std::string& path, const Dataset& ds) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write dataset " + path);
  save_dataset(out, ds);
}

int cmd_gen(const ArgParser& args) {
  args.check_known({"workload", "variant", "count", "seed", "out"});
  const std::string workload = args.require("workload");
  const std::string variant = args.get("variant", "nominal");
  const std::size_t count = args.get_size("count", 100, kMaxCount);
  Rng rng{std::uint64_t(args.get_int("seed", 1))};
  Dataset ds;
  if (workload == "track") {
    RacetrackConfig cfg;
    TrackScenario scenario = TrackScenario::kNominal;
    bool found = variant == "nominal";
    for (TrackScenario s : track_departure_scenarios()) {
      if (variant == track_scenario_name(s)) {
        scenario = s;
        found = true;
      }
    }
    if (!found) throw std::invalid_argument("unknown track variant " + variant);
    ds = make_track_dataset(cfg, scenario, count, rng);
  } else if (workload == "digits") {
    DigitConfig cfg;
    DigitVariant v = DigitVariant::kNominal;
    if (variant == "letters") {
      v = DigitVariant::kLetters;
    } else if (variant == "inverted") {
      v = DigitVariant::kInverted;
    } else if (variant == "heavy-noise") {
      v = DigitVariant::kNoisy;
    } else if (variant != "nominal" && variant != "digits") {
      throw std::invalid_argument("unknown digits variant " + variant);
    }
    ds = make_digit_dataset(cfg, v, count, rng);
  } else if (workload == "signs") {
    SignConfig cfg;
    SignVariant v = SignVariant::kNominal;
    if (variant == "unseen-shape") {
      v = SignVariant::kUnseen;
    } else if (variant == "graffiti") {
      v = SignVariant::kGraffiti;
    } else if (variant == "blurred") {
      v = SignVariant::kBlurred;
    } else if (variant != "nominal" && variant != "signs") {
      throw std::invalid_argument("unknown signs variant " + variant);
    }
    ds = make_sign_dataset(cfg, v, count, rng);
  } else {
    throw std::invalid_argument("unknown workload " + workload);
  }
  save_dataset_file(args.require("out"), ds);
  std::printf("wrote %zu samples (%s/%s) to %s\n", ds.size(),
              workload.c_str(), variant.c_str(),
              args.require("out").c_str());
  return 0;
}

int cmd_train(const ArgParser& args) {
  // Arguments validate before the dataset loads (fail fast on typos).
  args.check_known({"data", "task", "epochs", "lr", "hidden", "channels",
                    "batch", "seed", "out"});
  const std::string task = args.require("task");
  const std::size_t channels = args.get_size("channels", 6, kMaxWidth);
  const std::size_t hidden = args.get_size("hidden", 32, kMaxWidth);
  TrainConfig cfg;
  cfg.epochs = args.get_size("epochs", 6, kMaxEpochs);
  cfg.batch_size = args.get_size("batch", 16, kMaxBatch);
  Rng rng{std::uint64_t(args.get_int("seed", 1))};

  const Dataset ds = load_dataset_file(args.require("data"));
  if (ds.empty()) throw std::runtime_error("empty training dataset");

  const Shape in_shape = ds.inputs.front().shape();
  if (in_shape.size() != 3 || in_shape[0] != 1) {
    throw std::runtime_error("train expects 1xHxW image inputs");
  }
  std::size_t out_dim;
  if (task == "regression") {
    out_dim = ds.targets.front().numel();
  } else if (task == "classification") {
    float max_label = 0.0F;
    for (const Tensor& t : ds.targets) max_label = std::max(max_label, t[0]);
    out_dim = std::size_t(max_label) + 1;
  } else {
    throw std::invalid_argument("unknown task " + task);
  }

  Network net = make_small_convnet(in_shape[1], in_shape[2], channels,
                                   hidden, out_dim, rng);

  Adam::Config adam_cfg;
  adam_cfg.learning_rate = float(args.get_double("lr", 5e-3));
  Adam optimizer(net.parameters(), net.gradients(), adam_cfg);
  cfg.on_epoch = [](const EpochStats& s) {
    std::printf("epoch %zu: loss %.4f\n", s.epoch, double(s.mean_loss));
  };
  if (task == "regression") {
    MSELoss loss;
    (void)train(net, optimizer, loss, ds.inputs, ds.targets, cfg, rng);
  } else {
    SoftmaxCrossEntropyLoss loss;
    (void)train(net, optimizer, loss, ds.inputs, ds.targets, cfg, rng);
    std::printf("train accuracy: %.1f%%\n",
                100.0F * evaluate_accuracy(net, ds.inputs, ds.targets));
  }
  save_network_file(args.require("out"), net);
  std::printf("wrote network (%zu layers, %zu parameters) to %s\n",
              net.num_layers(), net.num_parameters(),
              args.require("out").c_str());
  return 0;
}

int cmd_build(const ArgParser& args) {
  // Every argument is validated before the first artifact load, so a bad
  // --layer, --bits, or --delta fails fast instead of after seconds of
  // I/O (or, for a NaN delta, after silently poisoning every bound).
  args.check_known({"net", "data", "layer", "type", "bits", "shards",
                    "threads", "shard-strategy", "shard-seed", "robust",
                    "delta", "kp", "domain", "out"});
  const std::size_t layer = args.get_size("layer", 0, kMaxLayer);
  if (layer == 0) {
    throw std::invalid_argument("--layer must be in 1.." +
                                std::to_string(kMaxLayer));
  }
  MonitorOptions opts;
  opts.family = parse_monitor_family(args.require("type"));
  opts.bits = args.get_size("bits", 2, kMaxBits);
  const std::int64_t shards = args.get_int("shards", 1);
  if (shards < 1 || shards > 4096) {
    throw std::invalid_argument("--shards must be in 1..4096");
  }
  opts.threads = parse_threads(args);
  opts.strategy =
      parse_shard_strategy(args.get("shard-strategy", "contiguous"));
  opts.shard_seed = std::uint64_t(args.get_int("shard-seed", 0));

  const bool robust = args.has("robust");
  PerturbationSpec spec;
  if (robust) {
    spec.kp = args.get_size("kp", 0, kMaxKp);
    if (spec.kp >= layer) {
      // Definition 1 needs kp < k; checked here so a bad --kp fails
      // before the network loads.
      throw std::invalid_argument("--kp must be in 0.." +
                                  std::to_string(layer - 1) +
                                  " (strictly before --layer)");
    }
    const double delta = args.get_double("delta", 0.005);
    // The predicate form rejects NaN (which fails every comparison),
    // ±inf, and negatives in one shot.
    if (!(delta >= 0.0 && delta <= kMaxDelta)) {
      throw std::invalid_argument(
          "--delta must be in [0, 1e9] and finite, got " +
          args.get("delta", ""));
    }
    spec.delta = float(delta);
    const std::string domain = args.get("domain", "box");
    if (domain == "box") {
      spec.domain = BoundDomain::kBox;
    } else if (domain == "zonotope") {
      spec.domain = BoundDomain::kZonotope;
    } else {
      throw std::invalid_argument("unknown domain " + domain);
    }
  }

  Network net = load_network_file(args.require("net"));
  const Dataset ds = load_dataset_file(args.require("data"));
  MonitorBuilder builder(net, layer);
  NeuronStats stats = builder.collect_stats(ds.inputs, true);
  // Shard counts above the layer width clamp down so "--shards 8" works
  // uniformly across layers of any dimension.
  opts.shards = std::min(std::size_t(shards), builder.feature_dim());
  std::unique_ptr<Monitor> monitor = make_monitor(opts, stats);

  if (robust) {
    builder.build_robust(*monitor, ds.inputs, spec);
  } else {
    builder.build_standard(*monitor, ds.inputs);
  }

  std::ofstream out(args.require("out"), std::ios::binary);
  if (!out) throw std::runtime_error("cannot write monitor file");
  save_any_monitor(out, *monitor);
  if (robust) {
    std::printf("robust build: domain %s, delta %g, kp %zu\n",
                std::string(bound_domain_name(spec.domain)).c_str(),
                double(spec.delta), spec.kp);
  }
  std::printf("built %s [%s] from %zu samples -> %s\n",
              monitor->describe().c_str(),
              std::string(monitor_family_name(opts.family)).c_str(),
              ds.size(), args.require("out").c_str());
  return 0;
}

/// Lowers a saved monitor artifact into the compiled RCM1 form. The
/// compiled artifact answers the same membership queries bit-for-bit,
/// loads anywhere a monitor loads (eval, serve), and is frozen: new
/// training data needs a rebuild + recompile.
int cmd_compile(const ArgParser& args) {
  args.check_known({"monitor", "out", "threads"});
  const std::size_t threads = parse_threads(args);

  std::ifstream in(args.require("monitor"), std::ios::binary);
  if (!in) throw std::runtime_error("cannot open monitor file");
  const auto monitor = load_any_monitor(in);
  // --threads sets the pool a sharded monitor lowers its shards on, a
  // host setting: the artifact records the monitor as loaded.
  const std::string source = monitor->describe();
  monitor->set_threads(threads);

  Timer timer;
  const compile::CompiledMonitor lowered = compile::compile_monitor(*monitor);
  const compile::CompiledMonitor compiled(lowered.dimension(), source,
                                          lowered.lower_program());
  const double secs = timer.seconds();

  std::ofstream out(args.require("out"), std::ios::binary);
  if (!out) throw std::runtime_error("cannot write compiled monitor file");
  compile::save_compiled_monitor(out, compiled);
  std::printf("compiled %s\n  -> %s (%s, %.3fs)\n", source.c_str(),
              args.require("out").c_str(), compiled.describe().c_str(), secs);
  return 0;
}

int cmd_eval(const ArgParser& args) {
  args.check_known({"net", "monitor", "layer", "in-dist", "ood", "threads"});
  const std::size_t layer = args.get_size("layer", 0, kMaxLayer);
  const std::size_t threads = parse_threads(args);

  Network net = load_network_file(args.require("net"));
  std::ifstream min(args.require("monitor"), std::ios::binary);
  if (!min) throw std::runtime_error("cannot open monitor file");
  const auto monitor = load_any_monitor(min);
  // The thread count is a runtime (host) property, not part of the
  // artifact: apply --threads after loading.
  monitor->set_threads(threads);
  MonitorBuilder builder(net, layer);

  // Each set runs through the batched query pipeline (one feature
  // extraction pass + one membership query per chunk); the measured
  // end-to-end throughput rides along in the report.
  auto eval_set = [&](const std::string& label, int precision,
                      const std::vector<Tensor>& inputs, TextTable& table) {
    Timer timer;
    const double rate = warning_rate(builder, *monitor, inputs);
    const double secs = timer.seconds();
    table.add_row({label, TextTable::pct(100 * rate, precision),
                   per_sec_cell(inputs.size(), secs)});
  };

  const Dataset in_dist = load_dataset_file(args.require("in-dist"));
  TextTable table("monitor evaluation");
  table.set_header({"set", "warning rate", "samples/s"});
  eval_set("in-dist (FP)", 3, in_dist.inputs, table);
  for (const std::string& path : ood_paths(args)) {
    const Dataset ood = load_dataset_file(path);
    eval_set(path, 2, ood.inputs, table);
  }
  table.print();
  return 0;
}

/// Shared daemon-connection handling of the client subcommands
/// (query/observe/swap/rollback): exactly one of --socket/--tcp.
serve::ServeClient connect_daemon(const ArgParser& args,
                                  const char* command) {
  if (args.has("socket") == args.has("tcp")) {
    throw std::invalid_argument(
        std::string(command) +
        " needs exactly one of --socket PATH or --tcp HOST:PORT");
  }
  if (args.has("socket")) return serve::ServeClient(args.require("socket"));
  const serve::HostPort hp = serve::parse_host_port(args.require("tcp"));
  return serve::ServeClient(hp.host, hp.port);
}

/// Renders a stats reply the way `info --monitor` renders a local
/// artifact, plus the daemon's lifetime counters.
void print_service_stats(const serve::ServiceStats& stats) {
  std::printf("%s\n", stats.monitor.c_str());
  std::printf("feature dimension: %llu, monitored layer: %llu\n",
              static_cast<unsigned long long>(stats.dimension),
              static_cast<unsigned long long>(stats.layer));
  std::printf("served: %llu queries, %llu samples, %llu warnings\n",
              static_cast<unsigned long long>(stats.queries),
              static_cast<unsigned long long>(stats.samples),
              static_cast<unsigned long long>(stats.warnings));
  if (stats.rolling_samples > 0) {
    std::printf("rolling warning rate: %.2f%% over last %llu samples\n",
                100.0 * double(stats.rolling_warnings) /
                    double(stats.rolling_samples),
                static_cast<unsigned long long>(stats.rolling_samples));
  }
  if (stats.generation != 0) {
    std::printf("lifecycle: generation %llu, %llu staged, %llu swaps, "
                "%llu rollbacks\n",
                static_cast<unsigned long long>(stats.generation),
                static_cast<unsigned long long>(stats.staged_samples),
                static_cast<unsigned long long>(stats.swaps),
                static_cast<unsigned long long>(stats.rollbacks));
  }
  if (stats.workers.size() > 1) {
    TextTable workers("per-loop counters");
    workers.set_header({"loop", "queries", "samples", "warnings"});
    for (std::size_t w = 0; w < stats.workers.size(); ++w) {
      const serve::WorkerCountersWire& c = stats.workers[w];
      workers.add_row({std::to_string(w), std::to_string(c.queries),
                       std::to_string(c.samples),
                       std::to_string(c.warnings)});
    }
    workers.print();
  }
  if (!stats.shards.empty()) {
    TextTable table("per-shard statistics");
    table.set_header({"shard", "neurons", "bdd nodes", "cubes inserted",
                      "novel", "patterns"});
    std::uint64_t neurons = 0, nodes = 0, cubes = 0, novel = 0;
    for (std::size_t s = 0; s < stats.shards.size(); ++s) {
      const serve::ShardStatsWire& st = stats.shards[s];
      table.add_row({std::to_string(s), std::to_string(st.neurons),
                     std::to_string(st.bdd_nodes),
                     std::to_string(st.cubes_inserted),
                     std::to_string(st.novel),
                     st.patterns < 0 ? std::string("-")
                                     : TextTable::num(st.patterns, 0)});
      neurons += st.neurons;
      nodes += st.bdd_nodes;
      cubes += st.cubes_inserted;
      novel += st.novel;
    }
    table.add_row({"total", std::to_string(neurons), std::to_string(nodes),
                   std::to_string(cubes), std::to_string(novel), "-"});
    table.print();
    std::printf("plan: %zu shards, strategy %s, seed %llu, threads %llu\n",
                stats.shards.size(), stats.shard_strategy.c_str(),
                static_cast<unsigned long long>(stats.shard_seed),
                static_cast<unsigned long long>(stats.threads));
  }
}

/// Serving-layer client: streams datasets through a running ranm_serve
/// daemon in minibatches and prints the same warning-rate table as eval —
/// without loading the network or monitor artifacts itself.
int cmd_query(const ArgParser& args) {
  args.check_known({"socket", "tcp", "in-dist", "ood", "batch", "stats"});
  serve::ServeClient client = connect_daemon(args, "query");
  const std::size_t batch = args.get_size(
      "batch", 256, std::size_t(serve::kMaxQuerySamples));
  if (batch == 0) throw std::invalid_argument("--batch must be >= 1");

  const bool want_stats = args.has("stats");
  if (!args.has("in-dist") && !want_stats) {
    throw std::invalid_argument(
        "query needs --in-dist (and/or --stats) to do anything");
  }

  if (args.has("in-dist")) {
    auto query_set = [&](const std::string& label, int precision,
                         const std::vector<Tensor>& inputs,
                         TextTable& table) {
      // The sample-count cap alone does not bound the frame size: clamp
      // the batch so every query frame stays under the payload cap.
      const std::size_t set_batch =
          inputs.empty() ? batch
                         : std::min(batch,
                                    serve::max_query_batch(inputs.front()));
      Timer timer;
      std::size_t warned = 0;
      for (std::size_t i = 0; i < inputs.size(); i += set_batch) {
        const std::size_t n = std::min(set_batch, inputs.size() - i);
        const std::span<const Tensor> chunk(inputs.data() + i, n);
        for (const std::uint8_t w : client.query_warns(chunk)) warned += w;
      }
      const double secs = timer.seconds();
      const double rate =
          inputs.empty() ? 0.0 : double(warned) / double(inputs.size());
      table.add_row({label, TextTable::pct(100 * rate, precision),
                     per_sec_cell(inputs.size(), secs)});
    };

    const Dataset in_dist = load_dataset_file(args.require("in-dist"));
    TextTable table("monitor evaluation (served)");
    table.set_header({"set", "warning rate", "samples/s"});
    query_set("in-dist (FP)", 3, in_dist.inputs, table);
    for (const std::string& path : ood_paths(args)) {
      const Dataset ood = load_dataset_file(path);
      query_set(path, 2, ood.inputs, table);
    }
    table.print();
  }

  if (want_stats) print_service_stats(client.stats());
  return 0;
}

/// Streams a dataset into the daemon's staging pool: each chunk is one
/// kObserve frame, answered with accepted/staged/novelty counters. The
/// daemon only rebuilds on an explicit `swap`.
int cmd_observe(const ArgParser& args) {
  args.check_known({"socket", "tcp", "data", "batch"});
  serve::ServeClient client = connect_daemon(args, "observe");
  const std::size_t batch = args.get_size(
      "batch", 256, std::size_t(serve::kMaxQuerySamples));
  if (batch == 0) throw std::invalid_argument("--batch must be >= 1");

  const Dataset data = load_dataset_file(args.require("data"));
  if (data.inputs.empty()) {
    throw std::invalid_argument("observe: dataset has no samples");
  }
  const std::size_t set_batch =
      std::min(batch, serve::max_query_batch(data.inputs.front()));
  Timer timer;
  std::uint64_t accepted = 0, novel = 0, staged = 0;
  for (std::size_t i = 0; i < data.inputs.size(); i += set_batch) {
    const std::size_t n = std::min(set_batch, data.inputs.size() - i);
    const std::span<const Tensor> chunk(data.inputs.data() + i, n);
    const serve::ObserveReply reply = client.observe(chunk);
    accepted += reply.accepted;
    novel += reply.novel;
    staged = reply.staged_total;
  }
  std::printf("observed %llu samples in %.2fs: %llu novel (%.2f%%), "
              "%llu now staged for the next swap\n",
              static_cast<unsigned long long>(accepted), timer.seconds(),
              static_cast<unsigned long long>(novel),
              accepted == 0 ? 0.0 : 100.0 * double(novel) / double(accepted),
              static_cast<unsigned long long>(staged));
  return 0;
}

/// Rebuild-and-publish: the daemon folds its staged samples into a fresh
/// monitor in the background and atomically publishes it to every loop
/// as the new generation.
int cmd_swap(const ArgParser& args) {
  args.check_known({"socket", "tcp"});
  serve::ServeClient client = connect_daemon(args, "swap");
  const serve::SwapReply reply = client.swap();
  std::printf("swapped to generation %llu in %.2f ms "
              "(%llu staged samples applied)\n%s\n",
              static_cast<unsigned long long>(reply.generation),
              double(reply.duration_us) / 1000.0,
              static_cast<unsigned long long>(reply.staged_applied),
              reply.monitor.c_str());
  return 0;
}

int cmd_rollback(const ArgParser& args) {
  args.check_known({"socket", "tcp", "generation"});
  const std::uint64_t target = args.get_size("generation", 0, 1U << 30);
  serve::ServeClient client = connect_daemon(args, "rollback");
  const serve::RollbackReply reply = client.rollback(target);
  std::printf("rolled back to generation %llu\n%s\n",
              static_cast<unsigned long long>(reply.generation),
              reply.monitor.c_str());
  return 0;
}

int cmd_info(const ArgParser& args) {
  args.check_known({"net", "monitor", "data", "dot"});
  if (args.has("net")) {
    Network net = load_network_file(args.require("net"));
    std::printf("network: %zu layers, %zu parameters\n%s",
                net.num_layers(), net.num_parameters(),
                net.summary().c_str());
    return 0;
  }
  if (args.has("monitor")) {
    std::ifstream in(args.require("monitor"), std::ios::binary);
    if (!in) throw std::runtime_error("cannot open monitor file");
    const auto monitor = load_any_monitor(in);
    std::printf("%s\n", monitor->describe().c_str());
    std::printf("feature dimension: %zu (batch queries: contains_batch "
                "over dim x n batches)\n",
                monitor->dimension());
    if (args.has("dot")) {
      // Graphviz dump of the stored BDDs. Fails fast for non-BDD families.
      std::ofstream dot(args.require("dot"));
      if (!dot) throw std::runtime_error("cannot write dot file");
      dot << monitor_to_dot(*monitor);
      std::printf("wrote BDD graph to %s\n", args.require("dot").c_str());
    }
    if (const auto* sharded =
            dynamic_cast<const ShardedMonitor*>(monitor.get())) {
      const auto stats = sharded->shard_stats();
      TextTable table("per-shard statistics");
      table.set_header(
          {"shard", "neurons", "bdd nodes", "cubes inserted", "patterns"});
      std::size_t neurons = 0, nodes = 0;
      for (std::size_t s = 0; s < stats.size(); ++s) {
        const auto& st = stats[s];
        table.add_row({std::to_string(s), std::to_string(st.neurons),
                       std::to_string(st.bdd_nodes),
                       std::to_string(st.cubes_inserted),
                       st.patterns < 0 ? std::string("-")
                                       : TextTable::num(st.patterns, 0)});
        neurons += st.neurons;
        nodes += st.bdd_nodes;
      }
      table.add_row({"total", std::to_string(neurons), std::to_string(nodes),
                     std::to_string(sharded->observation_count()), "-"});
      table.print();
      std::printf("plan: %zu shards, strategy %s, seed %llu\n",
                  sharded->shard_count(),
                  std::string(shard_strategy_name(sharded->plan().strategy()))
                      .c_str(),
                  static_cast<unsigned long long>(sharded->plan().seed()));
    }
    if (const auto* compiled =
            dynamic_cast<const compile::CompiledMonitor*>(monitor.get())) {
      TextTable table("compiled programs");
      table.set_header({"shard", "neurons", "program", "nodes", "cubes"});
      for (std::size_t s = 0; s < compiled->shard_count(); ++s) {
        const auto& sh = compiled->shards()[s];
        const char* kind = "box";
        std::size_t nodes = 0, cubes = 0;
        if (sh.unit.kind == compile::ProgramKind::kCube) {
          kind = "cube";
          cubes = sh.unit.cube.num_cubes;
        } else if (sh.unit.kind == compile::ProgramKind::kBdd) {
          kind = "bdd";
          nodes = sh.unit.bdd.nodes.size();
        }
        const std::size_t neurons = sh.neurons.empty()
                                        ? compiled->dimension()
                                        : sh.neurons.size();
        table.add_row({std::to_string(s), std::to_string(neurons), kind,
                       std::to_string(nodes), std::to_string(cubes)});
      }
      table.print();
      std::printf("compiled from: %s\n", compiled->source().c_str());
    }
    return 0;
  }
  if (args.has("data")) {
    const Dataset ds = load_dataset_file(args.require("data"));
    std::printf("dataset: %zu samples, input %s, target %s\n", ds.size(),
                shape_str(ds.inputs.front().shape()).c_str(),
                shape_str(ds.targets.front().shape()).c_str());
    return 0;
  }
  usage();
}

int run(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  const ArgParser args(argc - 1, argv + 1);
  if (cmd == "gen") return cmd_gen(args);
  if (cmd == "train") return cmd_train(args);
  if (cmd == "build") return cmd_build(args);
  if (cmd == "compile") return cmd_compile(args);
  if (cmd == "eval") return cmd_eval(args);
  if (cmd == "query") return cmd_query(args);
  if (cmd == "observe") return cmd_observe(args);
  if (cmd == "swap") return cmd_swap(args);
  if (cmd == "rollback") return cmd_rollback(args);
  if (cmd == "info") return cmd_info(args);
  std::fprintf(stderr, "ranm: unknown command '%s'\n", cmd.c_str());
  usage();
}

}  // namespace
}  // namespace ranm::cli

int main(int argc, char** argv) {
  try {
    return ranm::cli::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ranm: %s\n", e.what());
    return 1;
  }
}
