// E12 (extension) — construction scalability in |Dtr|.
//
// The paper's construction loop is one pass over the training set; its
// feasibility hinges on the per-sample cost of the abstraction update and
// on the BDD not growing out of control as patterns accumulate. This
// bench sweeps the training-set size and reports construction time,
// monitor size, and batched query latency for standard and robust
// interval monitors. Prints a table and writes machine-readable JSON
// (BENCH_scalability.json, or the path given as argv[1]). RANM_SMOKE=1
// shrinks the sweep for CI smoke runs.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/interval_monitor.hpp"
#include "core/monitor_builder.hpp"
#include "nn/init.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace ranm {
namespace {

std::size_t g_sink = 0;

struct Measurement {
  std::size_t train_size = 0;
  std::string mode;  // "standard" or "robust"
  double build_ms = 0.0;
  double us_per_sample = 0.0;
  double patterns = 0.0;
  std::size_t bdd_nodes = 0;
  double query_ns = 0.0;      // batched contains ns/sample, median block
  double query_ns_min = 0.0;  // the fastest block
};

/// Timed query blocks per row; odd, so the median is one block.
constexpr std::size_t kBlocks = 5;

/// Batched membership latency, ns/sample, on a fixed query batch: one
/// untimed warm-up call, then kBlocks timed blocks of `reps` calls.
/// Sets the median and the minimum over the blocks.
void time_queries(const Monitor& m, const FeatureBatch& batch,
                  std::size_t reps, Measurement& r) {
  auto out = std::make_unique<bool[]>(batch.size());
  const std::span<bool> out_span(out.get(), batch.size());
  m.contains_batch(batch, out_span);  // warmup
  std::vector<double> ns(kBlocks);
  for (double& block_ns : ns) {
    Timer t;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      m.contains_batch(batch, out_span);
      g_sink += out_span.front();
    }
    block_ns = t.seconds() * 1e9 / double(reps) / double(batch.size());
  }
  std::sort(ns.begin(), ns.end());
  r.query_ns = ns[kBlocks / 2];
  r.query_ns_min = ns.front();
}

void write_json(const std::string& path, bool smoke,
                const std::vector<Measurement>& results) {
  std::vector<std::string> rows;
  rows.reserve(results.size());
  for (const Measurement& m : results) {
    std::ostringstream row;
    row << "{\"train_size\": " << m.train_size << ", \"mode\": \"" << m.mode
        << "\", \"build_ms\": " << m.build_ms
        << ", \"us_per_sample\": " << m.us_per_sample
        << ", \"patterns\": " << m.patterns
        << ", \"bdd_nodes\": " << m.bdd_nodes
        << ", \"query_ns_per_sample\": " << m.query_ns
        << ", \"query_ns_per_sample_min\": " << m.query_ns_min << "}";
    rows.push_back(row.str());
  }
  benchutil::write_json_report(
      path, "bench_scalability", smoke, rows,
      "build_ms: one timed build per row; query_ns_per_sample: median (and "
      "_min: minimum) over 5 timed blocks of reps batched queries after one "
      "untimed warm-up call");
}

int run(int argc, char** argv) {
  const bool smoke = benchutil::smoke_mode();
  const std::string json_path =
      argc > 1 ? argv[1] : "BENCH_scalability.json";
  const std::vector<std::size_t> sweep =
      smoke ? std::vector<std::size_t>{64, 256}
            : std::vector<std::size_t>{64, 256, 1024};

  Rng rng(321);
  Network net = make_mlp({12, 48, 32, 8}, rng);
  const std::size_t k = 4;  // activation after the second Dense (dim 32)
  MonitorBuilder builder(net, k);

  // One big pool; prefixes of it form the sweep. The pool never shrinks
  // below the threshold-stats sample count, so smoke and full runs see
  // the same spec and the same (deterministic, CI-gated) bdd_nodes on
  // shared sweep sizes.
  constexpr std::size_t kStatSamples = 512;
  std::vector<Tensor> pool;
  const std::size_t pool_size = std::max(sweep.back(), kStatSamples);
  pool.reserve(pool_size);
  for (std::size_t i = 0; i < pool_size; ++i) {
    pool.push_back(Tensor::random_uniform({12}, rng));
  }
  NeuronStats stats(builder.feature_dim(), true);
  for (std::size_t i = 0; i < kStatSamples; ++i) {
    stats.add(builder.features(pool[i]));
  }

  // Fixed query batch (in-distribution features) for the latency column.
  const std::size_t query_n = std::min<std::size_t>(256, pool.size());
  const std::vector<Tensor> query_inputs(pool.begin(),
                                         pool.begin() + long(query_n));
  const FeatureBatch query_batch = builder.features_batch(query_inputs);
  // Enough reps per block that each block is tens of ms, not
  // noise-dominated single-digit ms.
  const std::size_t query_reps = smoke ? 3 : 500;

  TextTable table("E12: construction cost vs training-set size "
                  "(interval 2-bit, MLP 12-48-32-8, monitor layer 4)");
  table.set_header({"|Dtr|", "mode", "build ms", "us/sample", "patterns",
                    "bdd nodes", "query ns"});
  const auto add_row = [&table](const Measurement& r) {
    table.add_row({std::to_string(r.train_size), r.mode,
                   TextTable::num(r.build_ms, 1),
                   TextTable::num(r.us_per_sample, 1),
                   TextTable::num(r.patterns, 0),
                   std::to_string(r.bdd_nodes),
                   TextTable::num(r.query_ns, 1)});
  };

  std::vector<Measurement> results;
  for (const std::size_t n : sweep) {
    const std::vector<Tensor> data(pool.begin(), pool.begin() + long(n));
    for (const bool robust : {false, true}) {
      IntervalMonitor m(ThresholdSpec::from_percentiles(stats, 2));
      Timer t;
      if (robust) {
        builder.build_robust(m, data,
                             PerturbationSpec{0, 0.02F, BoundDomain::kBox});
      } else {
        builder.build_standard(m, data);
      }
      Measurement r;
      r.train_size = n;
      r.mode = robust ? "robust" : "standard";
      r.build_ms = t.millis();
      r.us_per_sample = r.build_ms * 1000.0 / double(n);
      r.patterns = m.pattern_count();
      r.bdd_nodes = m.bdd_node_count();
      time_queries(m, query_batch, query_reps, r);
      results.push_back(r);
      add_row(r);
    }
  }
  table.print();
  write_json(json_path, smoke, results);
  std::printf(
      "wrote %s\n"
      "\n[E12] expected shape: standard construction stays ~10 us/sample "
      "(one forward + one cube insert). Robust construction on *random* "
      "inputs is the adversarial case: every insert contributes fresh "
      "straddling code ranges, so the BDD grows super-linearly — this is "
      "the documented scalability limit of word2set on uncorrelated "
      "features (sharded monitors exist to cut exactly this growth). On "
      "the structured perception workloads (E3) robust construction of "
      "500 samples costs ~0.5 ms/sample because feature vectors repeat "
      "and correlate.\n",
      json_path.c_str());
  std::printf("sink %zu\n", g_sink);
  return 0;
}

}  // namespace
}  // namespace ranm

int main(int argc, char** argv) { return ranm::run(argc, argv); }
