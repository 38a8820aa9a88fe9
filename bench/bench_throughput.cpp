// E9 — operational cost, batched vs scalar. A runtime monitor rides along
// with every inference, and deployment evaluates whole frames/minibatches,
// so the number that matters is query throughput at batch size. This bench
// drives every monitor family through both paths:
//
//   scalar  — one Monitor::contains call per sample (the paper's
//             one-vector-at-a-time operation loop)
//   batched — one Monitor::contains_batch call per minibatch
//
// plus the end-to-end pipeline (feature extraction + query), the
// construction loops (observe vs observe_batch), and a sharded mode that
// sweeps S ∈ {1, 2, 4, 8} shards (T = min(S, 4) threads) against the
// one-manager baseline for the BDD families. Results are printed as a
// table and written as machine-readable JSON (BENCH_throughput.json, or
// the path given as argv[1]) so the perf trajectory is tracked per-PR.
// RANM_SMOKE=1 shrinks repetition counts for CI smoke runs.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "core/box_cluster_monitor.hpp"
#include "core/interval_monitor.hpp"
#include "core/minmax_monitor.hpp"
#include "core/monitor_builder.hpp"
#include "core/multi_layer_monitor.hpp"
#include "core/sharded_monitor.hpp"
#include "nn/init.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace ranm {
namespace {

struct Fixture {
  Rng rng{123};
  Network net = make_mlp({16, 64, 32, 8}, rng);
  std::size_t k = 4;  // ReLU after second Dense, dim 32
  MonitorBuilder builder{net, k};
  std::vector<Tensor> train;
  std::vector<std::vector<float>> features;  // sample-major, for scalar
  NeuronStats stats{32, true};

  explicit Fixture(std::size_t samples) {
    train.reserve(samples);
    features.reserve(samples);
    for (std::size_t i = 0; i < samples; ++i) {
      train.push_back(Tensor::random_uniform({16}, rng));
      features.push_back(builder.features(train.back()));
      stats.add(features.back());
    }
  }
};

/// Keeps query results observable so the compiler cannot drop the loops.
std::size_t g_sink = 0;

/// Timed blocks per measurement; odd, so the median is one block.
constexpr std::size_t kBlocks = 5;

/// Median and minimum over kBlocks timed blocks, in ns per sample.
struct Timing {
  double median_ns = 0.0;
  double min_ns = 0.0;
};

/// Sorts per-block ns/sample and keeps the median and the minimum.
Timing reduce_blocks(std::vector<double> ns) {
  std::sort(ns.begin(), ns.end());
  return {ns[ns.size() / 2], ns.front()};
}

struct Measurement {
  std::string monitor;
  std::string mode;  // "query", "end_to_end", "construct", "shard_*"
  std::size_t batch_size = 0;
  // Sharded modes: shards/threads of the measured configuration; 0 marks
  // an unsharded row. For shard_* rows `scalar` holds the unsharded
  // (S=1, one manager) baseline and `batched` the sharded time, so
  // `speedup` is the sharded-vs-unsharded ratio.
  std::size_t shards = 0;
  std::size_t threads = 0;
  Timing scalar;   // ns per sample
  Timing batched;  // ns per sample
  /// Ratio of the medians.
  [[nodiscard]] double speedup() const {
    return batched.median_ns > 0.0 ? scalar.median_ns / batched.median_ns
                                   : 0.0;
  }
};

/// Runs `fn(1)` once untimed, then kBlocks timed blocks `fn(reps /
/// kBlocks)` (at least one rep each); ns per sample of each block.
template <typename Fn>
Timing time_per_sample(std::size_t reps, std::size_t samples_per_rep,
                       Fn&& fn) {
  fn(std::size_t{1});  // warmup
  const std::size_t block_reps = std::max<std::size_t>(1, reps / kBlocks);
  std::vector<double> ns(kBlocks);
  for (double& block_ns : ns) {
    Timer timer;
    fn(block_reps);
    block_ns = timer.seconds() * 1e9 / double(block_reps) /
               double(samples_per_rep);
  }
  return reduce_blocks(std::move(ns));
}

/// Scalar-loop vs contains_batch on pre-extracted features.
Measurement bench_query(const std::string& name, const Monitor& monitor,
                        const Fixture& f, std::size_t batch_size,
                        std::size_t reps) {
  FeatureBatch batch(monitor.dimension(), batch_size);
  for (std::size_t i = 0; i < batch_size; ++i) {
    batch.set_sample(i, f.features[i % f.features.size()]);
  }
  Measurement m;
  m.monitor = name;
  m.mode = "query";
  m.batch_size = batch_size;
  m.scalar = time_per_sample(reps, batch_size, [&](std::size_t n) {
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t i = 0; i < batch_size; ++i) {
        g_sink += monitor.contains(f.features[i % f.features.size()]);
      }
    }
  });
  auto out = std::make_unique<bool[]>(batch_size);
  std::span<bool> out_span(out.get(), batch_size);
  m.batched = time_per_sample(reps, batch_size, [&](std::size_t n) {
    for (std::size_t r = 0; r < n; ++r) {
      monitor.contains_batch(batch, out_span);
      g_sink += out_span.front();
    }
  });
  return m;
}

/// Per-sample warns() vs warns_batch(): feature extraction included.
Measurement bench_end_to_end(const std::string& name,
                             const Monitor& monitor, Fixture& f,
                             std::size_t batch_size, std::size_t reps) {
  Measurement m;
  m.monitor = name;
  m.mode = "end_to_end";
  m.batch_size = batch_size;
  m.scalar = time_per_sample(reps, batch_size, [&](std::size_t n) {
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t i = 0; i < batch_size; ++i) {
        g_sink += f.builder.warns(monitor,
                                  f.train[i % f.train.size()]);
      }
    }
  });
  auto out = std::make_unique<bool[]>(batch_size);
  std::span<bool> out_span(out.get(), batch_size);
  std::span<const Tensor> inputs(f.train.data(), batch_size);
  m.batched = time_per_sample(reps, batch_size, [&](std::size_t n) {
    for (std::size_t r = 0; r < n; ++r) {
      f.builder.warns_batch(monitor, inputs, out_span);
      g_sink += out_span.front();
    }
  });
  return m;
}

/// observe() loop vs observe_batch() on fresh monitors per repetition.
template <typename MakeMonitor>
Measurement bench_construct(const std::string& name, const Fixture& f,
                            std::size_t batch_size, std::size_t reps,
                            MakeMonitor&& make) {
  FeatureBatch batch(f.features.front().size(), batch_size);
  for (std::size_t i = 0; i < batch_size; ++i) {
    batch.set_sample(i, f.features[i % f.features.size()]);
  }
  Measurement m;
  m.monitor = name;
  m.mode = "construct";
  m.batch_size = batch_size;
  m.scalar = time_per_sample(reps, batch_size, [&](std::size_t n) {
    for (std::size_t r = 0; r < n; ++r) {
      auto monitor = make();
      for (std::size_t i = 0; i < batch_size; ++i) {
        monitor->observe(f.features[i % f.features.size()]);
      }
      g_sink += monitor->dimension();
    }
  });
  m.batched = time_per_sample(reps, batch_size, [&](std::size_t n) {
    for (std::size_t r = 0; r < n; ++r) {
      auto monitor = make();
      monitor->observe_batch(batch);
      g_sink += monitor->dimension();
    }
  });
  return m;
}

/// ns/sample of `fold(monitor)` over fresh monitors, with monitor setup
/// (manager allocation, thread-pool spawn) excluded from the timed
/// region so sharded and unsharded rows compare pure fold cost. After one
/// untimed fold, kBlocks blocks of reps / kBlocks folds (at least one).
template <typename Make, typename Fold>
Timing time_fold_per_sample(std::size_t reps, std::size_t samples,
                            Make&& make, Fold&& fold) {
  {
    auto monitor = make();  // warmup
    fold(*monitor);
    g_sink += monitor->dimension();
  }
  const std::size_t block_reps = std::max<std::size_t>(1, reps / kBlocks);
  std::vector<double> ns(kBlocks);
  for (double& block_ns : ns) {
    double secs = 0.0;
    for (std::size_t r = 0; r < block_reps; ++r) {
      auto monitor = make();
      Timer timer;
      fold(*monitor);
      secs += timer.seconds();
      g_sink += monitor->dimension();
    }
    block_ns = secs * 1e9 / double(block_reps) / double(samples);
  }
  return reduce_blocks(std::move(ns));
}

/// Sharded-vs-unsharded sweep for one BDD monitor family. `make_plain`
/// builds the S=1 single-manager monitor, `make_sharded(S)` the sharded
/// one; both fold the same batch, and queries run on the built sets.
template <typename MakePlain, typename MakeSharded>
void bench_sharded(const std::string& name, const Fixture& f,
                   std::size_t batch_size, std::size_t construct_reps,
                   std::size_t query_reps,
                   std::span<const std::size_t> shard_counts,
                   std::vector<Measurement>& results, MakePlain&& make_plain,
                   MakeSharded&& make_sharded) {
  FeatureBatch batch(f.features.front().size(), batch_size);
  for (std::size_t i = 0; i < batch_size; ++i) {
    batch.set_sample(i, f.features[i % f.features.size()]);
  }
  // Unsharded baseline: one manager over all neurons.
  auto fold_batch = [&batch](Monitor& m) { m.observe_batch(batch); };
  const Timing base_construct = time_fold_per_sample(
      construct_reps, batch_size, make_plain, fold_batch);
  auto plain = make_plain();
  plain->observe_batch(batch);
  auto out = std::make_unique<bool[]>(batch_size);
  std::span<bool> out_span(out.get(), batch_size);
  const Timing base_query =
      time_per_sample(query_reps, batch_size, [&](std::size_t n) {
        for (std::size_t r = 0; r < n; ++r) {
          plain->contains_batch(batch, out_span);
          g_sink += out_span.front();
        }
      });
  for (const std::size_t s : shard_counts) {
    // Thread lanes track the shard count up to 4 — the shape the
    // acceptance target (S=4/T=4 vs S=1) pins down.
    const std::size_t threads = std::min<std::size_t>(s, 4);
    auto make_sh = [&make_sharded, s, threads] {
      auto monitor =
          std::make_unique<ShardedMonitor>(make_sharded(s));
      monitor->set_threads(threads);
      return monitor;
    };
    Measurement construct;
    construct.monitor = name;
    construct.mode = "shard_construct";
    construct.batch_size = batch_size;
    construct.shards = s;
    construct.threads = threads;
    construct.scalar = base_construct;
    construct.batched = time_fold_per_sample(construct_reps, batch_size,
                                             make_sh, fold_batch);
    results.push_back(construct);

    auto sharded_ptr = make_sh();
    ShardedMonitor& sharded = *sharded_ptr;
    sharded.observe_batch(batch);
    Measurement query;
    query.monitor = name;
    query.mode = "shard_query";
    query.batch_size = batch_size;
    query.shards = s;
    query.threads = threads;
    query.scalar = base_query;
    query.batched =
        time_per_sample(query_reps, batch_size, [&](std::size_t n) {
          for (std::size_t r = 0; r < n; ++r) {
            sharded.contains_batch(batch, out_span);
            g_sink += out_span.front();
          }
        });
    results.push_back(query);
  }
}

/// Robust (don't-care) sharded construction: the adversarial word2set
/// case where the joint BDD grows super-linearly (every insert
/// contributes fresh straddling code ranges — see bench_scalability).
/// Sharding is the remedy: each shard's small word space saturates under
/// the don't-care coverage instead of exploding.
template <typename MakePlain, typename MakeSharded>
void bench_sharded_robust(const std::string& name, const Fixture& f,
                          std::size_t batch_size, std::size_t reps,
                          std::span<const std::size_t> shard_counts,
                          std::vector<Measurement>& results,
                          MakePlain&& make_plain, MakeSharded&& make_sharded) {
  const std::size_t dim = f.features.front().size();
  FeatureBatch lo(dim, batch_size), hi(dim, batch_size);
  Rng rng(97);
  std::vector<float> lo_s(dim), hi_s(dim);
  for (std::size_t i = 0; i < batch_size; ++i) {
    const auto& v = f.features[i % f.features.size()];
    for (std::size_t j = 0; j < dim; ++j) {
      const float d = rng.uniform_f(0.05F, 0.3F);
      lo_s[j] = v[j] - d;
      hi_s[j] = v[j] + d;
    }
    lo.set_sample(i, lo_s);
    hi.set_sample(i, hi_s);
  }
  auto fold_bounds = [&lo, &hi](Monitor& m) {
    m.observe_bounds_batch(lo, hi);
  };
  const Timing base =
      time_fold_per_sample(reps, batch_size, make_plain, fold_bounds);
  for (const std::size_t s : shard_counts) {
    const std::size_t threads = std::min<std::size_t>(s, 4);
    auto make_sh = [&make_sharded, s, threads] {
      auto monitor =
          std::make_unique<ShardedMonitor>(make_sharded(s));
      monitor->set_threads(threads);
      return monitor;
    };
    Measurement m;
    m.monitor = name;
    m.mode = "shard_construct_robust";
    m.batch_size = batch_size;
    m.shards = s;
    m.threads = threads;
    m.scalar = base;
    m.batched =
        time_fold_per_sample(reps, batch_size, make_sh, fold_bounds);
    results.push_back(m);
  }
}

void write_json(const std::string& path, bool smoke,
                const std::vector<Measurement>& results) {
  std::vector<std::string> rows;
  rows.reserve(results.size());
  for (const Measurement& m : results) {
    std::ostringstream row;
    row << "{\"monitor\": \"" << m.monitor << "\", \"mode\": \"" << m.mode
        << "\", \"batch_size\": " << m.batch_size
        << ", \"shards\": " << m.shards << ", \"threads\": " << m.threads
        << ", \"scalar_ns_per_sample\": " << m.scalar.median_ns
        << ", \"scalar_ns_per_sample_min\": " << m.scalar.min_ns
        << ", \"batched_ns_per_sample\": " << m.batched.median_ns
        << ", \"batched_ns_per_sample_min\": " << m.batched.min_ns
        << ", \"speedup\": " << m.speedup() << "}";
    rows.push_back(row.str());
  }
  benchutil::write_json_report(
      path, "bench_throughput", smoke, rows,
      "ns/sample: median (and _min: minimum) over 5 timed blocks of reps/5 "
      "x batch samples after one untimed warm-up (folds: summed per-fold "
      "time within a block, construction excluded)");
}

int run(int argc, char** argv) {
  const bool smoke = benchutil::smoke_mode();
  const std::string json_path =
      argc > 1 ? argv[1] : "BENCH_throughput.json";
  // Reps chosen so the full run stays in seconds; smoke barely turns the
  // crank but still exercises every path and emits the JSON schema.
  const std::size_t query_reps = smoke ? 2 : 2000;
  const std::size_t e2e_reps = smoke ? 2 : 50;
  const std::size_t construct_reps = smoke ? 2 : 50;
  const std::vector<std::size_t> batch_sizes = smoke
                                                   ? std::vector<std::size_t>{16, 256}
                                                   : std::vector<std::size_t>{1, 16, 256};

  Fixture f(256);

  MinMaxMonitor minmax(32);
  f.builder.build_standard(minmax, f.train);
  IntervalMonitor onoff(ThresholdSpec::from_means(f.stats));
  f.builder.build_standard(onoff, f.train);
  IntervalMonitor interval2(ThresholdSpec::from_percentiles(f.stats, 2));
  f.builder.build_standard(interval2, f.train);
  IntervalMonitor interval4(ThresholdSpec::from_percentiles(f.stats, 4));
  f.builder.build_standard(interval4, f.train);
  BoxClusterMonitor boxes(32, 8);
  f.builder.build_standard(boxes, f.train);
  {
    Rng cluster_rng(7);
    boxes.finalize(cluster_rng);
  }
  MultiLayerMonitor multi(f.net, WarnPolicy::kAny);
  multi.attach(2, NeuronSelection::all(64),
               std::make_unique<MinMaxMonitor>(64));
  multi.attach(4, NeuronSelection::all(32),
               std::make_unique<MinMaxMonitor>(32));
  multi.build_standard(f.train);

  std::vector<Measurement> results;
  const std::vector<std::pair<std::string, const Monitor*>> monitors = {
      {"minmax", &minmax},     {"onoff", &onoff},
      {"interval", &interval2}, {"interval4", &interval4},
      {"box_cluster", &boxes},
  };
  for (const std::size_t b : batch_sizes) {
    // Keep samples-per-measurement constant across batch sizes so small
    // batches are not drowned in timer noise.
    const std::size_t reps = query_reps * (256 / b);
    for (const auto& [name, monitor] : monitors) {
      results.push_back(bench_query(name, *monitor, f, b, reps));
    }
  }
  results.push_back(
      bench_end_to_end("minmax", minmax, f, 256, e2e_reps));
  results.push_back(
      bench_end_to_end("interval", interval2, f, 256, e2e_reps));
  // Multi-layer monitor: scalar warns() vs batched warns_batch().
  {
    const std::size_t b = 256;
    Measurement m;
    m.monitor = "multi_layer";
    m.mode = "end_to_end";
    m.batch_size = b;
    m.scalar = time_per_sample(e2e_reps, b, [&](std::size_t n) {
      for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t i = 0; i < b; ++i) {
          g_sink += multi.warns(f.train[i % f.train.size()]);
        }
      }
    });
    auto out = std::make_unique<bool[]>(b);
    std::span<bool> out_span(out.get(), b);
    std::span<const Tensor> inputs(f.train.data(), b);
    m.batched = time_per_sample(e2e_reps, b, [&](std::size_t n) {
      for (std::size_t r = 0; r < n; ++r) {
        multi.warns_batch(inputs, out_span);
        g_sink += out_span.front();
      }
    });
    results.push_back(m);
  }
  results.push_back(bench_construct(
      "minmax", f, 256, construct_reps,
      [] { return std::make_unique<MinMaxMonitor>(32); }));
  results.push_back(bench_construct("interval", f, 256, construct_reps,
                                    [&f] {
                                      return std::make_unique<IntervalMonitor>(
                                          ThresholdSpec::from_percentiles(
                                              f.stats, 2));
                                    }));

  // Sharded mode: S managers of ~32/S neurons each vs the one-manager
  // monitor. Construction wins come from cutting BDD growth (smaller
  // cubes, smaller sets) plus the shard-parallel fan-out; rows record
  // sharded time against the unsharded baseline.
  const std::vector<std::size_t> shard_counts = {1, 2, 4, 8};
  const ThresholdSpec spec2 = ThresholdSpec::from_percentiles(f.stats, 2);
  const ThresholdSpec spec4 = ThresholdSpec::from_percentiles(f.stats, 4);
  const ThresholdSpec spec_means = ThresholdSpec::from_means(f.stats);
  bench_sharded(
      "onoff", f, 256, construct_reps, query_reps, shard_counts, results,
      [&] { return std::make_unique<IntervalMonitor>(spec_means); },
      [&](std::size_t s) {
        return ShardedMonitor::interval(ShardPlan::contiguous(32, s),
                                        spec_means);
      });
  bench_sharded(
      "interval", f, 256, construct_reps, query_reps, shard_counts, results,
      [&] { return std::make_unique<IntervalMonitor>(spec2); },
      [&](std::size_t s) {
        return ShardedMonitor::interval(ShardPlan::contiguous(32, s), spec2);
      });
  bench_sharded(
      "interval4", f, 256, construct_reps, query_reps, shard_counts,
      results,
      [&] { return std::make_unique<IntervalMonitor>(spec4); },
      [&](std::size_t s) {
        return ShardedMonitor::interval(ShardPlan::contiguous(32, s), spec4);
      });
  // Robust construction is the super-linear word2set case, so fewer reps
  // keep the unsharded baseline affordable.
  const std::size_t robust_reps = smoke ? 2 : 5;
  bench_sharded_robust(
      "interval", f, 256, robust_reps, shard_counts, results,
      [&] { return std::make_unique<IntervalMonitor>(spec2); },
      [&](std::size_t s) {
        return ShardedMonitor::interval(ShardPlan::contiguous(32, s), spec2);
      });

  TextTable table("batched vs scalar monitor throughput (ns/sample)");
  table.set_header({"monitor", "mode", "batch", "S", "T", "scalar",
                    "batched", "speedup"});
  for (const Measurement& m : results) {
    table.add_row({m.monitor, m.mode, std::to_string(m.batch_size),
                   m.shards == 0 ? "-" : std::to_string(m.shards),
                   m.threads == 0 ? "-" : std::to_string(m.threads),
                   TextTable::num(m.scalar.median_ns, 1),
                   TextTable::num(m.batched.median_ns, 1),
                   TextTable::num(m.speedup(), 2)});
  }
  table.print();

  write_json(json_path, smoke, results);
  std::printf("wrote %s (sink %zu)\n", json_path.c_str(), g_sink);
  return 0;
}

}  // namespace
}  // namespace ranm

int main(int argc, char** argv) { return ranm::run(argc, argv); }
