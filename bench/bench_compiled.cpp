// Compiled vs interpreted query throughput. From compile::kSmallBatch
// samples up both columns run one batched engine, the lowered program of
// compile/program.hpp: the interpreted monitor lowers its program on its
// first batch (Monitor::contains_batch, the untimed warm-up here) and the
// CompiledMonitor runs the program `ranm_cli compile` builds. Flat or
// sharded, both columns then go through the same Monitor::contains_batch
// and compile::eval_program over the same units, so those rows differ
// only by noise. At batch 1 the interpreted column is the scalar contains
// (the lazily coded BDD walk for on-off and interval) and the compiled
// column the program's tiny-batch path. The warm-up verdicts of the two
// columns must agree, and so must both columns and the scalar contains
// on an untimed batch of samples mostly outside the set, or the bench
// exits non-zero: a CI smoke run fails on an engine split instead of
// timing it. Every family, flat and
// 4-shard, batch sizes 1..256. Every row records the compiled program's
// BDD node count: the small robust families sit below the sweep/walk
// crossover (compile::kBddWalkHopCost), while interval_robust_large — a
// robust interval monitor over enough observations for 100k+ nodes, the
// size class of the paper's robust construction — sits past it at every
// batch size, so its rows time the interleaved walk. Smoke runs keep it,
// so CI runs the walk too.
//
// Each row reports the median and the minimum of 5 timed blocks per
// column, the interpreted and compiled blocks alternating, so a drifting
// host moves both columns alike. Results print as a table and land in
// BENCH_compiled.json (or argv[1]); RANM_SMOKE=1 shrinks repetitions for
// CI smoke runs.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "compile/compiled_monitor.hpp"
#include "compile/lower.hpp"
#include "core/box_cluster_monitor.hpp"
#include "core/interval_monitor.hpp"
#include "core/minmax_monitor.hpp"
#include "core/neuron_stats.hpp"
#include "core/sharded_monitor.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace ranm {
namespace {

constexpr std::size_t kDim = 64;
constexpr std::size_t kObservations = 24;
/// Observations behind interval_robust_large: 110,624 flat BDD nodes.
constexpr std::size_t kLargeObservations = 1000;

std::size_t g_sink = 0;

/// Timed blocks per column; odd, so the median is one block.
constexpr std::size_t kBlocks = 5;

/// Median and minimum over kBlocks timed blocks, in ns per sample.
struct Timing {
  double median_ns = 0.0;
  double min_ns = 0.0;
};

struct Measurement {
  std::string monitor;
  std::string program;  // "box", "cube", "bdd", "mixed"
  std::size_t batch_size = 0;
  std::size_t shards = 0;  // 0: flat
  std::size_t threads = 0;
  std::size_t nodes = 0;  // compiled BDD nodes over all shards
  Timing interpreted;
  Timing compiled;
  /// Samples whose warm-up verdicts differ between the two columns, plus
  /// those of the out-of-set probe batch (probe_disagreements).
  std::size_t disagreements = 0;
  /// Ratio of the medians.
  [[nodiscard]] double speedup() const {
    return compiled.median_ns > 0.0
               ? interpreted.median_ns / compiled.median_ns
               : 0.0;
  }
};

std::vector<float> random_feature(Rng& rng) {
  std::vector<float> v(kDim);
  for (auto& x : v) x = float(rng.uniform() * 4.0 - 2.0);
  return v;
}

/// Shared training set: point features plus widened interval bounds for
/// the robust builds, so every monitor of a fixture folds the same data.
struct Fixture {
  Rng rng{20301};
  std::vector<std::vector<float>> features;
  std::vector<std::vector<float>> lo, hi;
  NeuronStats stats{kDim, true};

  explicit Fixture(std::size_t observations) {
    for (std::size_t i = 0; i < observations; ++i) {
      features.push_back(random_feature(rng));
      const auto& v = features.back();
      std::vector<float> l(v), h(v);
      for (std::size_t j = 0; j < kDim; ++j) {
        const float d = float(0.05 + rng.uniform() * 0.25);
        l[j] -= d;
        h[j] += d;
      }
      lo.push_back(std::move(l));
      hi.push_back(std::move(h));
    }
    for (const auto& v : features) stats.add(v);
  }

  void fold(Monitor& monitor, bool robust) const {
    for (std::size_t i = 0; i < features.size(); ++i) {
      if (robust) {
        monitor.observe_bounds(lo[i], hi[i]);
      } else {
        monitor.observe(features[i]);
      }
    }
  }
};

const char* program_label(const compile::CompiledMonitor& compiled) {
  const bool cubes = compiled.total_cubes() > 0;
  const bool nodes = compiled.total_nodes() > 0;
  if (cubes && nodes) return "mixed";
  if (cubes) return "cube";
  if (nodes) return "bdd";
  return "box";
}

/// Sorts per-block ns/sample and keeps the median and the minimum.
Timing reduce_blocks(std::vector<double> ns) {
  std::sort(ns.begin(), ns.end());
  return {ns[ns.size() / 2], ns.front()};
}

/// Samples of an untimed batch, mostly outside the monitored set, on which
/// the interpreted batch, the compiled batch and the scalar contains do
/// not all agree. The timed batches hold training features only, which
/// every monitor contains, so their check cannot see a form that accepts
/// too much. Sample i is a fresh random feature (i % 3 == 0), a training
/// feature with one coordinate moved by 3 (i % 3 == 1), or a training
/// feature jittered by up to 0.02 per coordinate (i % 3 == 2).
std::size_t probe_disagreements(const Monitor& interpreted,
                                const compile::CompiledMonitor& compiled,
                                const Fixture& f, std::size_t batch_size) {
  Rng rng(7919 + batch_size);
  FeatureBatch probe(kDim, batch_size);
  std::vector<std::vector<float>> samples;
  for (std::size_t i = 0; i < batch_size; ++i) {
    std::vector<float> v = f.features[(i * 7) % f.features.size()];
    if (i % 3 == 0) {
      v = random_feature(rng);
    } else if (i % 3 == 1) {
      v[i % kDim] += 3.0F;
    } else {
      for (float& x : v) x += float(rng.uniform() * 0.04 - 0.02);
    }
    probe.set_sample(i, v);
    samples.push_back(std::move(v));
  }
  const auto batch_verdicts = [&](const Monitor& monitor) {
    auto out = std::make_unique<bool[]>(batch_size);
    monitor.contains_batch(probe, std::span<bool>(out.get(), batch_size));
    return out;
  };
  const auto by_interpreted = batch_verdicts(interpreted);
  const auto by_compiled = batch_verdicts(compiled);
  std::size_t differ = 0;
  for (std::size_t i = 0; i < batch_size; ++i) {
    const bool scalar = interpreted.contains(samples[i]);
    differ += by_interpreted[i] != scalar || by_compiled[i] != scalar;
  }
  return differ;
}

/// One untimed warm-up call per form, then kBlocks timed blocks of
/// reps / kBlocks calls (at least one) per form, alternating.
Measurement bench_pair(const std::string& name, const Monitor& interpreted,
                       const compile::CompiledMonitor& compiled,
                       std::size_t shards, std::size_t threads,
                       const Fixture& f, std::size_t batch_size,
                       std::size_t reps) {
  FeatureBatch batch(kDim, batch_size);
  for (std::size_t i = 0; i < batch_size; ++i) {
    batch.set_sample(i, f.features[i % f.features.size()]);
  }
  auto out = std::make_unique<bool[]>(batch_size);
  const std::span<bool> out_span(out.get(), batch_size);
  const auto run = [&](const Monitor& monitor, std::size_t calls) {
    for (std::size_t r = 0; r < calls; ++r) {
      monitor.contains_batch(batch, out_span);
      g_sink += out_span.front();
    }
  };
  const std::size_t block_reps = std::max<std::size_t>(1, reps / kBlocks);
  const auto block_ns = [&](const Monitor& monitor) {
    Timer timer;
    run(monitor, block_reps);
    return timer.seconds() * 1e9 / double(block_reps) / double(batch_size);
  };
  run(interpreted, 1);
  const std::vector<bool> want(out.get(), out.get() + batch_size);
  run(compiled, 1);
  std::size_t disagreements = 0;
  for (std::size_t i = 0; i < batch_size; ++i) {
    disagreements += out[i] != want[i] ? 1 : 0;
  }
  disagreements += probe_disagreements(interpreted, compiled, f, batch_size);
  std::vector<double> interpreted_ns(kBlocks), compiled_ns(kBlocks);
  for (std::size_t b = 0; b < kBlocks; ++b) {
    interpreted_ns[b] = block_ns(interpreted);
    compiled_ns[b] = block_ns(compiled);
  }
  Measurement m;
  m.monitor = name;
  m.program = program_label(compiled);
  m.batch_size = batch_size;
  m.shards = shards;
  m.threads = threads;
  m.nodes = compiled.total_nodes();
  m.interpreted = reduce_blocks(std::move(interpreted_ns));
  m.compiled = reduce_blocks(std::move(compiled_ns));
  m.disagreements = disagreements;
  return m;
}

/// One monitor family in both deployment shapes: flat and 4-shard
/// (threads = 4, matching `ranm_serve --threads 4`). The make lambdas
/// return fully built (folded, finalized) monitors; a null sharded maker
/// result skips the sharded rows (box-cluster has no sharded form).
template <typename MakeFlat, typename MakeSharded>
void bench_family(const std::string& name, const Fixture& f,
                  std::span<const std::size_t> batch_sizes,
                  std::size_t base_reps, std::vector<Measurement>& results,
                  MakeFlat&& make_flat, MakeSharded&& make_sharded) {
  const std::unique_ptr<Monitor> flat = make_flat();
  const compile::CompiledMonitor compiled_flat =
      compile::compile_monitor(*flat);

  constexpr std::size_t kShards = 4;
  std::unique_ptr<ShardedMonitor> sharded = make_sharded(kShards);
  compile::CompiledMonitor compiled_sharded = [&] {
    if (sharded == nullptr) return compile::compile_monitor(*flat);
    sharded->set_threads(kShards);
    auto compiled = compile::compile_monitor(*sharded);
    compiled.set_threads(kShards);
    return compiled;
  }();

  for (const std::size_t b : batch_sizes) {
    // Constant samples-per-measurement across batch sizes.
    const std::size_t reps = base_reps * (256 / b);
    results.push_back(
        bench_pair(name, *flat, compiled_flat, 0, 1, f, b, reps));
    if (sharded != nullptr) {
      results.push_back(bench_pair(name, *sharded, compiled_sharded,
                                   kShards, kShards, f, b, reps));
    }
  }
}

void print_table(const std::vector<Measurement>& results) {
  TextTable table(
      "compiled vs interpreted contains_batch, median ns/sample of 5 blocks");
  table.set_header({"monitor", "program", "batch", "shards", "nodes",
                    "interp ns", "compiled ns", "speedup"});
  for (const Measurement& m : results) {
    table.add_row({m.monitor, m.program, std::to_string(m.batch_size),
                   std::to_string(m.shards), std::to_string(m.nodes),
                   TextTable::num(m.interpreted.median_ns, 1),
                   TextTable::num(m.compiled.median_ns, 1),
                   TextTable::num(m.speedup(), 2) + "x"});
  }
  table.print();
}

void write_json(const std::string& path, bool smoke,
                const std::vector<Measurement>& results) {
  std::vector<std::string> rows;
  rows.reserve(results.size());
  for (const Measurement& m : results) {
    std::ostringstream row;
    row << "{\"monitor\": \"" << m.monitor << "\", \"program\": \""
        << m.program << "\", \"batch_size\": " << m.batch_size
        << ", \"shards\": " << m.shards << ", \"threads\": " << m.threads
        << ", \"nodes\": " << m.nodes
        << ", \"interpreted_ns_per_sample\": " << m.interpreted.median_ns
        << ", \"interpreted_ns_per_sample_min\": " << m.interpreted.min_ns
        << ", \"compiled_ns_per_sample\": " << m.compiled.median_ns
        << ", \"compiled_ns_per_sample_min\": " << m.compiled.min_ns
        << ", \"speedup\": " << m.speedup() << "}";
    rows.push_back(row.str());
  }
  benchutil::write_json_report(
      path, "bench_compiled", smoke, rows,
      "ns/sample: median (and _min: minimum) over 5 timed blocks of reps/5 "
      "calls per column, interpreted and compiled blocks alternating, after "
      "one untimed warm-up call each (which lowers the interpreted "
      "monitor's program); speedup is the ratio of the medians");
}

int run(int argc, char** argv) {
  const bool smoke = benchutil::smoke_mode();
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_compiled.json";
  const std::size_t base_reps = smoke ? 2 : 800;
  const std::vector<std::size_t> batch_sizes =
      smoke ? std::vector<std::size_t>{16, 256}
            : std::vector<std::size_t>{1, 16, 64, 256};

  const Fixture f(kObservations);
  const ThresholdSpec means = ThresholdSpec::from_means(f.stats);
  const ThresholdSpec pct2 = ThresholdSpec::from_percentiles(f.stats, 2);
  std::vector<Measurement> results;

  bench_family(
      "minmax", f, batch_sizes, base_reps, results,
      [&f] {
        auto monitor = std::make_unique<MinMaxMonitor>(kDim);
        f.fold(*monitor, false);
        return monitor;
      },
      [&f](std::size_t s) {
        auto monitor = std::make_unique<ShardedMonitor>(
            ShardedMonitor::minmax(ShardPlan::contiguous(kDim, s)));
        f.fold(*monitor, false);
        return monitor;
      });
  bench_family(
      "box_cluster", f, batch_sizes, base_reps, results,
      [&f] {
        auto monitor = std::make_unique<BoxClusterMonitor>(kDim, 8);
        f.fold(*monitor, false);
        Rng cluster_rng(7);
        monitor->finalize(cluster_rng);
        return monitor;
      },
      [](std::size_t) { return std::unique_ptr<ShardedMonitor>(); });
  bench_family(
      "onoff", f, batch_sizes, base_reps, results,
      [&] {
        auto monitor = std::make_unique<IntervalMonitor>(means);
        f.fold(*monitor, false);
        return monitor;
      },
      [&](std::size_t s) {
        auto monitor = std::make_unique<ShardedMonitor>(
            ShardedMonitor::interval(ShardPlan::contiguous(kDim, s), means));
        f.fold(*monitor, false);
        return monitor;
      });
  bench_family(
      "interval", f, batch_sizes, base_reps, results,
      [&] {
        auto monitor = std::make_unique<IntervalMonitor>(pct2);
        f.fold(*monitor, false);
        return monitor;
      },
      [&](std::size_t s) {
        auto monitor = std::make_unique<ShardedMonitor>(
            ShardedMonitor::interval(ShardPlan::contiguous(kDim, s), pct2));
        f.fold(*monitor, false);
        return monitor;
      });
  // Robust interval: don't-care-rich sets, the cube-cover sweet spot.
  bench_family(
      "interval_robust", f, batch_sizes, base_reps, results,
      [&] {
        auto monitor = std::make_unique<IntervalMonitor>(pct2);
        f.fold(*monitor, true);
        return monitor;
      },
      [&](std::size_t s) {
        auto monitor = std::make_unique<ShardedMonitor>(
            ShardedMonitor::interval(ShardPlan::contiguous(kDim, s), pct2));
        f.fold(*monitor, true);
        return monitor;
      });

  // The paper-sized robust BDD: past the crossover at every batch size.
  const Fixture large(kLargeObservations);
  const ThresholdSpec large_pct2 =
      ThresholdSpec::from_percentiles(large.stats, 2);
  bench_family(
      "interval_robust_large", large, batch_sizes, base_reps, results,
      [&] {
        auto monitor = std::make_unique<IntervalMonitor>(large_pct2);
        large.fold(*monitor, true);
        return monitor;
      },
      [&](std::size_t s) {
        auto monitor = std::make_unique<ShardedMonitor>(ShardedMonitor::interval(
            ShardPlan::contiguous(kDim, s), large_pct2));
        large.fold(*monitor, true);
        return monitor;
      });

  print_table(results);
  write_json(json_path, smoke, results);
  std::printf("sink %zu\n", g_sink);
  std::printf("report: %s\n", json_path.c_str());
  int status = 0;
  for (const Measurement& m : results) {
    if (m.disagreements == 0) continue;
    std::fprintf(stderr,
                 "verdict mismatch: %s, batch %zu, shards %zu: %zu of %zu "
                 "samples differ between interpreted and compiled (warm-up "
                 "and out-of-set probe batches)\n",
                 m.monitor.c_str(), m.batch_size, m.shards, m.disagreements,
                 2 * m.batch_size);
    status = 1;
  }
  return status;
}

}  // namespace
}  // namespace ranm

int main(int argc, char** argv) { return ranm::run(argc, argv); }
