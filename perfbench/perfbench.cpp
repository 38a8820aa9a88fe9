// Repository benchmark: three workloads over the ranm pipeline, one JSON
// result per run. perfbench/run.py builds this binary and drives it; see
// perfbench/NOTES.md for the metric table and why each workload exists.
//
//   perfbench --workload track_build|track_serve|mlp_socket --seed N
//             --seconds S --trace 0|1 [--tiny] [--workdir DIR]
//
// Every run checks verdicts against an oracle computed at set-up (the
// scalar Monitor::contains on MonitorBuilder::features) and counts each
// mismatch as a failed operation. --trace 0 reports the end-to-end
// metrics; --trace 1 spends the first 30% of the run untraced (the
// overhead baseline) and the rest with spans recorded around every call
// the benchmark makes into a module, and reports the per-layer split.
// Spans live in memory and are summarised when the run ends.
//
// The network and training set of each workload are fixed by a model
// seed, so every --seed exercises the same monitor; --seed generates the
// traffic: held-out and out-of-distribution queries, Lemma-1 probes and
// the query order.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "compile/lower.hpp"
#include "core/interval_monitor.hpp"
#include "core/monitor_builder.hpp"
#include "data/perturb.hpp"
#include "eval/experiment.hpp"
#include "io/serialize.hpp"
#include "nn/init.hpp"
#include "serve/client.hpp"
#include "serve/monitor_service.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

namespace pb {

using ranm::FeatureBatch;
using ranm::Tensor;

// ---- clock and statistics -------------------------------------------------

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t start) {
  return double(now_ns() - start) * 1e-9;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of an ascending vector.
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = std::size_t(std::ceil(q * double(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---- CPU choice -------------------------------------------------------------
//
// On a host whose physical cores are shared with other tenants, one vCPU
// can run this code half as fast as another, and which vCPUs are slow
// changes over minutes. Single-threaded timed work therefore runs pinned
// to the vCPU on which a short floating-point probe is fastest, re-chosen
// before every block of work, so runs measure the program and not the
// neighbours. Both sides of a comparison are measured the same way.

/// The CPUs the process may use, captured before any pinning.
const cpu_set_t& allowed_cpus() {
  static const cpu_set_t mask = [] {
    cpu_set_t m;
    CPU_ZERO(&m);
    if (::sched_getaffinity(0, sizeof m, &m) != 0) CPU_SET(0, &m);
    return m;
  }();
  return mask;
}

/// Dense-layer-shaped probe: float weights, double accumulation.
double probe_ns() {
  constexpr int kN = 96;
  static float w[kN * kN];
  static float x[kN];
  static bool init = false;
  if (!init) {
    for (int i = 0; i < kN * kN; ++i) w[i] = float(i % 7) * 0.125F;
    for (int i = 0; i < kN; ++i) x[i] = float(i % 5) * 0.25F;
    init = true;
  }
  volatile double sink = 0.0;
  const std::int64_t t = now_ns();
  for (int rep = 0; rep < 60; ++rep) {
    for (int r = 0; r < kN; ++r) {
      double acc = 0.0;
      for (int c = 0; c < kN; ++c) acc += double(w[r * kN + c]) * x[c];
      sink = sink + acc;
    }
  }
  return double(now_ns() - t);
}

/// Pins the calling thread to the fastest allowed CPU right now.
void pin_fastest_cpu() {
  const cpu_set_t& allowed = allowed_cpus();
  int best = -1;
  double best_ns = 0.0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (::sched_setaffinity(0, sizeof one, &one) != 0) continue;
    const double ns = std::min(probe_ns(), probe_ns());
    if (best < 0 || ns < best_ns) {
      best = cpu;
      best_ns = ns;
    }
  }
  if (best < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(best, &one);
  (void)::sched_setaffinity(0, sizeof one, &one);
}

/// Lets the calling thread (and threads it starts) use every allowed CPU.
void unpin() {
  (void)::sched_setaffinity(0, sizeof(cpu_set_t), &allowed_cpus());
}

/// Re-pins the calling thread when the last choice is older than a block.
class Repinner {
 public:
  static constexpr std::int64_t kBlockNs = 250'000'000;

  void maybe_repin() {
    const std::int64_t now = now_ns();
    if (now - last_ < kBlockNs) return;
    pin_fastest_cpu();
    last_ = now_ns();
  }

 private:
  std::int64_t last_ = 0;
};

// ---- tracing --------------------------------------------------------------

/// One timed call. `parent` indexes the enclosing span (-1: none).
struct Span {
  const char* name;
  std::int64_t begin;
  std::int64_t end;
  std::int32_t parent;
  std::uint32_t samples;
};

/// Per-thread in-memory span recorder; a disabled tracer records nothing.
class Tracer {
 public:
  void enable(bool on) { on_ = on; }
  [[nodiscard]] bool on() const { return on_; }

  int open(const char* name, std::size_t samples) {
    if (!on_) return -1;
    spans_.push_back(Span{name, now_ns(), 0, current_,
                          static_cast<std::uint32_t>(samples)});
    current_ = static_cast<std::int32_t>(spans_.size() - 1);
    return current_;
  }
  void close(int id) {
    if (id < 0) return;
    spans_[std::size_t(id)].end = now_ns();
    current_ = spans_[std::size_t(id)].parent;
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_ = false;
  std::vector<Span> spans_;
  std::int32_t current_ = -1;
};

class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::size_t samples = 1)
      : tracer_(tracer), id_(tracer.open(name, samples)) {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// Name of the root span of one timed operation in every workload.
constexpr const char* kRoot = "request";

struct SpanTotals {
  double total_ns = 0.0;
  double self_ns = 0.0;
  std::uint64_t calls = 0;
  std::uint64_t samples = 0;
};

/// Totals per span name; self time is a span's duration minus the
/// durations of its direct children.
void summarise(const Tracer& tracer, std::map<std::string, SpanTotals>& out) {
  const auto& spans = tracer.spans();
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_ns[std::size_t(s.parent)] += double(s.end - s.begin);
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = out[spans[i].name];
    const double dur = double(spans[i].end - spans[i].begin);
    t.total_ns += dur;
    t.self_ns += dur - child_ns[i];
    t.calls += 1;
    t.samples += spans[i].samples;
  }
}

const char* layer_span_name(std::size_t layer) {
  static const char* const kNames[] = {"nn.g1", "nn.g2", "nn.g3", "nn.g4",
                                       "nn.g5", "nn.g6", "nn.g7", "nn.g8"};
  return layer >= 1 && layer <= 8 ? kNames[layer - 1] : "nn.g_other";
}
constexpr std::size_t kMaxReportedLayer = 6;

// ---- results ----------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
  std::string better;
};

struct Result {
  std::map<std::string, Metric> metrics;
  std::map<std::string, double> info;  // sample counts and other context
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool complete = true;  // every check the workload promises ran

  void set(const std::string& name, double value, const char* unit,
           const char* better) {
    metrics[name] = Metric{std::isfinite(value) ? value : 0.0, unit, better};
  }
};

/// One timed operation: wall-clock span and the samples it answered.
struct Op {
  std::int64_t begin = 0;
  std::int64_t end = 0;
  std::size_t samples = 0;
};

/// Count and mean duration of operations, in constant memory.
struct OpMean {
  std::uint64_t count = 0;
  double ns = 0.0;

  void add(const Op& op) {
    count += 1;
    ns += double(op.end - op.begin);
  }
  void add(const OpMean& other) {
    count += other.count;
    ns += other.ns;
  }
  [[nodiscard]] double mean() const {
    return count > 0 ? ns / double(count) : 0.0;
  }
};

/// Operations in fixed memory: exact count, samples and last end, plus a
/// uniform sample (a reservoir) of at most kCapacity operations for the
/// percentiles. A socket client sends hundreds of thousands of requests
/// in a run, at a rate that follows the host's load; a log that kept
/// them all would make the run's peak memory follow it too.
class OpLog {
 public:
  static constexpr std::size_t kCapacity = std::size_t{1} << 16;

  explicit OpLog(std::uint64_t seed) : rng_(seed) {
    sample_.reserve(kCapacity);
  }

  void add(const Op& op) {
    count_ += 1;
    samples_ += double(op.samples);
    last_end_ = std::max(last_end_, op.end);
    if (sample_.size() < kCapacity) {
      sample_.push_back(op);
    } else if (const std::uint64_t j = rng_.below(count_); j < kCapacity) {
      sample_[j] = op;
    }
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double samples() const { return samples_; }
  [[nodiscard]] std::int64_t last_end() const { return last_end_; }
  [[nodiscard]] const std::vector<Op>& sample() const { return sample_; }

 private:
  ranm::Rng rng_;
  std::vector<Op> sample_;
  std::uint64_t count_ = 0;
  double samples_ = 0.0;
  std::int64_t last_end_ = 0;
};

/// Throughput and latency percentiles of one run's timed operations.
///
/// On a host whose cores are shared with other tenants, every request of
/// a run can be up to 2x slower for minutes at a time, so the median and
/// the tail move with the neighbours rather than with the program. The
/// gated throughput therefore comes from the 5th-percentile service time,
/// the cost of a request while the host is quiet: `callers` closed-loop
/// callers each answering one operation per p5. The median, the p99 and
/// the plain rate over `busy_ns` are reported beside it, ungated.
void set_latency(Result& r, const std::vector<Op>& ops, std::size_t callers,
                 std::int64_t busy_ns) {
  std::vector<double> ms;
  double samples = 0.0;
  for (const Op& op : ops) {
    ms.push_back(double(op.end - op.begin) * 1e-6);
    samples += double(op.samples);
  }
  std::sort(ms.begin(), ms.end());
  const double p5 = percentile(ms, 0.05);
  const double per_op = ops.empty() ? 0.0 : samples / double(ops.size());
  r.set("samples_per_s", p5 > 0 ? double(callers) * per_op / p5 * 1e3 : 0.0,
        "1/s", "higher");
  r.info["latency_samples"] = double(ms.size());
  r.info["latency_p5_ms"] = p5;
  r.info["latency_p50_ms"] = percentile(ms, 0.50);
  r.info["latency_p99_ms"] = percentile(ms, 0.99);
  r.info["latency_samples_beyond_p99"] = std::floor(double(ms.size()) * 0.01);
  r.info["plain_samples_per_s"] =
      busy_ns > 0 ? samples / double(busy_ns) * 1e9 : 0.0;
}

/// Build cost while the host is quiet: each chunk's fastest time across
/// the run's builds of the same data, summed. A whole build lasts long
/// enough that few builds run entirely in a quiet spell; chunks do.
class ChunkMins {
 public:
  void record(std::size_t chunk, double ns) {
    if (chunk >= mins_.size()) mins_.resize(chunk + 1, ns);
    mins_[chunk] = std::min(mins_[chunk], ns);
  }
  [[nodiscard]] double total_s() const {
    double sum = 0.0;
    for (double ns : mins_) sum += ns;
    return sum * 1e-9;
  }

 private:
  std::vector<double> mins_;
};

/// `data` cut into the chunks MonitorBuilder folds it in, so that one
/// build call per chunk does exactly the work of one call over `data`.
std::vector<std::vector<Tensor>> builder_chunks(const std::vector<Tensor>& data) {
  std::vector<std::vector<Tensor>> chunks;
  constexpr std::size_t kChunk = ranm::MonitorBuilder::kDefaultBatch;
  for (std::size_t start = 0; start < data.size(); start += kChunk) {
    const std::size_t n = std::min(kChunk, data.size() - start);
    chunks.emplace_back(data.begin() + std::ptrdiff_t(start),
                        data.begin() + std::ptrdiff_t(start + n));
  }
  return chunks;
}

/// Folds every chunk with `fold`, timing each; returns the build seconds.
template <typename Fold>
double timed_build(const std::vector<std::vector<Tensor>>& chunks,
                   ChunkMins& mins, Fold&& fold) {
  double total_ns = 0.0;
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    const std::int64_t t = now_ns();
    fold(chunks[c]);
    const double ns = double(now_ns() - t);
    mins.record(c, ns);
    total_ns += ns;
  }
  return total_ns * 1e-9;
}

/// Builds fresh monitors from `spec` over `chunks` for `seconds`, adding
/// each chunk's time to `mins`.
void extra_builds(const ranm::MonitorBuilder& builder,
                  const ranm::ThresholdSpec& spec,
                  const std::vector<std::vector<Tensor>>& chunks,
                  const ranm::PerturbationSpec* robust, double seconds,
                  ChunkMins& mins) {
  const std::int64_t b0 = now_ns();
  while (seconds_since(b0) < seconds) {
    pin_fastest_cpu();
    ranm::IntervalMonitor monitor(spec);
    (void)timed_build(chunks, mins, [&](const std::vector<Tensor>& chunk) {
      if (robust != nullptr) {
        builder.build_robust(monitor, chunk, *robust);
      } else {
        builder.build_standard(monitor, chunk);
      }
    });
  }
}

/// Every per-layer metric, zero where the workload does not run the layer.
void init_layer_metrics(Result& r) {
  for (std::size_t l = 1; l <= kMaxReportedLayer; ++l) {
    r.set(std::string(layer_span_name(l)) + ".ns_per_sample", 0, "ns",
          "lower");
  }
  for (const char* name :
       {"nn.forward_batch.ns_per_sample", "absint.estimate.ns_per_sample",
        "core.observe_bounds.ns_per_sample", "compile.contains.ns_per_sample",
        "core.contains.ns_per_sample"}) {
    r.set(name, 0, "ns", "lower");
  }
  r.set("absint.bound_width_mean", 0, "width", "lower");
  r.set("bdd.nodes", 0, "count", "lower");
  r.set("compile.lower_ms", 0, "ms", "lower");
  r.set("io.save_ms", 0, "ms", "lower");
  r.set("io.artifact_bytes", 0, "bytes", "lower");
  r.set("io.load_ms", 0, "ms", "lower");
  r.set("serve.server_start_ms", 0, "ms", "lower");
  for (const char* name :
       {"serve.encode_query.ns", "serve.decode_query.ns",
        "serve.encode_verdicts.ns", "serve.decode_verdicts.ns",
        "serve.query.ns", "serve.observe.ns", "serve.wire_residual.ns"}) {
    r.set(name, 0, "ns", "lower");
  }
  r.set("serve.overloaded", 0, "count", "lower");
  r.set("serve.worker_skew", 0, "ratio", "lower");
  r.set("trace.unattributed_share", 0, "ratio", "lower");
  r.set("trace.overhead_share", 0, "ratio", "lower");
}

/// Per-sample and per-call span averages into per-layer metrics.
void set_span_metrics(Result& r, const std::map<std::string, SpanTotals>& t) {
  const auto per_sample = [&](const char* span, const std::string& metric) {
    const auto it = t.find(span);
    if (it != t.end() && it->second.samples > 0) {
      r.metrics[metric].value =
          it->second.total_ns / double(it->second.samples);
    }
  };
  for (std::size_t l = 1; l <= kMaxReportedLayer; ++l) {
    per_sample(layer_span_name(l),
               std::string(layer_span_name(l)) + ".ns_per_sample");
  }
  per_sample("nn.forward_batch", "nn.forward_batch.ns_per_sample");
  per_sample("absint.estimate", "absint.estimate.ns_per_sample");
  per_sample("core.observe_bounds", "core.observe_bounds.ns_per_sample");
  per_sample("compile.contains", "compile.contains.ns_per_sample");
  per_sample("core.contains", "core.contains.ns_per_sample");
  const auto per_call_ms = [&](const char* span, const char* metric) {
    const auto it = t.find(span);
    if (it != t.end() && it->second.calls > 0) {
      r.metrics[metric].value =
          it->second.total_ns / double(it->second.calls) * 1e-6;
    }
  };
  per_call_ms("compile.lower", "compile.lower_ms");
  per_call_ms("io.save", "io.save_ms");
  for (const char* name :
       {"serve.encode_query", "serve.decode_query", "serve.encode_verdicts",
        "serve.decode_verdicts", "serve.query", "serve.observe"}) {
    const auto it = t.find(name);
    if (it != t.end() && it->second.calls > 0) {
      r.metrics[std::string(name) + ".ns"].value =
          it->second.total_ns / double(it->second.calls);
    }
  }
  // Root self time is what no layer span covers.
  const auto root = t.find(kRoot);
  if (root != t.end() && root->second.total_ns > 0) {
    r.metrics["trace.unattributed_share"].value =
        root->second.self_ns / root->second.total_ns;
    r.info["trace_roots"] = double(root->second.calls);
  }
}

/// Tracing overhead: traced against untraced requests of the same run.
/// A traced run without both phases is incomplete.
void set_overhead(Result& r, const OpMean& untraced, const OpMean& traced) {
  const double base = untraced.mean();
  r.metrics["trace.overhead_share"].value =
      base > 0 ? traced.mean() / base - 1.0 : 0.0;
  if (traced.count == 0 || untraced.count == 0) r.complete = false;
}

// ---- options ----------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string workdir = ".";
};

/// Workload sizes. --tiny shrinks everything for the self-test.
struct Sizes {
  std::size_t track_train = 1200;
  std::size_t track_epochs = 6;
  // Pool sizes keep the seed-to-seed spread of fp_rate near 3%.
  std::size_t in_odd = 3200;       // held-out nominal frames
  std::size_t per_scenario = 192;  // frames per departure scenario
  std::size_t mlp_train = 4096;
  std::size_t mlp_pool = 8192;  // half in-distribution, half shifted
  std::size_t track_setups = 3;
  std::size_t mlp_setups = 5;
  std::size_t min_latency_samples = 1010;

  static Sizes make(bool tiny) {
    Sizes s;
    if (tiny) {
      s.track_train = 96;
      s.track_epochs = 1;
      s.in_odd = 64;
      s.per_scenario = 32;
      s.mlp_train = 256;
      s.mlp_pool = 128;
      s.track_setups = 1;
      s.mlp_setups = 2;
      s.min_latency_samples = 0;
    }
    return s;
  }
};

constexpr std::size_t kTrackLayer = 6;  // LeakyReLU after the hidden Dense
constexpr float kTrackDelta = 0.002F;
constexpr std::uint64_t kTrackModelSeed = 42;
constexpr std::size_t kCameraBatch = 32;
constexpr std::size_t kMlpLayer = 4;  // ReLU after the second Dense, d = 32
constexpr std::uint64_t kMlpModelSeed = 123;
constexpr float kMlpNoise = 0.02F;
constexpr std::size_t kObserveEvery = 16;
constexpr double kTracedShare = 0.7;  // of a --trace 1 run
// Set-up builds fall within a few seconds; the serving workloads build
// again for this share of --seconds after their timed loop, which widens
// the window in which each chunk's fastest time is found.
constexpr double kExtraBuildShare = 0.2;

/// True while the timed loop should keep going: the time budget is not
/// spent, or a promised minimum is not reached yet (capped at 3x budget).
bool keep_going(std::int64_t t0, double seconds, bool minimum_unmet) {
  const double elapsed = seconds_since(t0);
  return elapsed < seconds || (minimum_unmet && elapsed < 3.0 * seconds);
}

// ---- shared workload pieces -------------------------------------------------

/// Query traffic with its oracle: reference verdict and distribution label
/// of every input, in a seed-shuffled order.
struct Pool {
  std::vector<Tensor> inputs;
  std::vector<std::uint8_t> ref_warn;
  std::vector<std::uint8_t> in_dist;  // 1: in-distribution, 0: shifted

  void shuffle(ranm::Rng& rng) {
    const std::vector<std::size_t> perm = rng.permutation(inputs.size());
    Pool out;
    for (std::size_t i : perm) {
      out.inputs.push_back(std::move(inputs[i]));
      out.in_dist.push_back(in_dist[i]);
    }
    *this = std::move(out);
  }
};

/// Reference verdicts: the scalar G^k then the scalar membership query.
std::vector<std::vector<float>> oracle(const ranm::MonitorBuilder& builder,
                                       const ranm::Monitor& reference,
                                       Pool& pool) {
  std::vector<std::vector<float>> features;
  features.reserve(pool.inputs.size());
  pool.ref_warn.clear();
  for (const Tensor& x : pool.inputs) {
    features.push_back(builder.features(x));
    pool.ref_warn.push_back(reference.contains(features.back()) ? 0 : 1);
  }
  return features;
}

/// Share of warns per distribution label over one pass of the pool.
void set_rates(Result& r, const Pool& pool,
               const std::vector<std::uint8_t>& warn) {
  double in = 0, in_warn = 0, out = 0, out_warn = 0;
  for (std::size_t i = 0; i < pool.inputs.size(); ++i) {
    (pool.in_dist[i] != 0 ? in : out) += 1;
    (pool.in_dist[i] != 0 ? in_warn : out_warn) += warn[i];
  }
  r.set("fp_rate", in > 0 ? in_warn / in : 0.0, "ratio", "lower");
  r.set("detection_rate", out > 0 ? out_warn / out : 0.0, "ratio", "higher");
  r.info["fp_queries"] = in;
  r.info["detection_queries"] = out;
}

struct TrackModel {
  ranm::LabSetup lab;
  std::unique_ptr<ranm::ThresholdSpec> spec;
};

/// The §IV race-track waypoint network, trained on a fixed training set.
TrackModel make_track_model(const Sizes& sizes) {
  ranm::LabConfig cfg;
  cfg.train_samples = sizes.track_train;
  cfg.test_samples = 0;  // the benchmark generates its own traffic
  cfg.ood_samples = 0;
  cfg.epochs = sizes.track_epochs;
  cfg.seed = kTrackModelSeed;
  TrackModel model{ranm::make_lab_setup(cfg), nullptr};
  const ranm::MonitorBuilder builder(model.lab.net, kTrackLayer);
  const ranm::NeuronStats stats =
      builder.collect_stats(model.lab.train.inputs, /*keep_samples=*/true);
  model.spec = std::make_unique<ranm::ThresholdSpec>(
      ranm::ThresholdSpec::from_percentiles(stats, 2));
  return model;
}

ranm::PerturbationSpec track_perturbation() {
  return ranm::PerturbationSpec{0, kTrackDelta, ranm::BoundDomain::kBox};
}

/// Held-out nominal frames plus every departure scenario.
Pool make_track_traffic(const ranm::LabSetup& lab, const Sizes& sizes,
                        ranm::Rng& rng) {
  Pool pool;
  const auto add = [&](ranm::TrackScenario scenario, std::size_t n,
                       std::uint8_t in_dist) {
    ranm::Dataset ds =
        ranm::make_track_dataset(lab.config.track, scenario, n, rng);
    for (Tensor& x : ds.inputs) {
      pool.inputs.push_back(std::move(x));
      pool.in_dist.push_back(in_dist);
    }
  };
  add(ranm::TrackScenario::kNominal, sizes.in_odd, 1);
  for (ranm::TrackScenario s : ranm::track_departure_scenarios()) {
    add(s, sizes.per_scenario, 0);
  }
  pool.shuffle(rng);
  return pool;
}

std::unique_ptr<bool[]> bools(std::size_t n) {
  return std::unique_ptr<bool[]>(new bool[std::max<std::size_t>(n, 1)]);
}

// ---- track_build ------------------------------------------------------------
//
// Robust flat 2-bit interval build (kp = 0, Δ = 0.002) over the training
// set, then compile and save. Each iteration verifies the artifact in
// camera-sized batches of precomputed features: compiled verdicts against
// the interpreted monitor and the oracle, and Lemma-1 probes (Δ-corner
// perturbations of training images) that must never warn.

struct TrackBuildState {
  TrackModel model;
  Pool eval;
  std::size_t probes = 0;
  std::vector<FeatureBatch> batches;       // eval features, then probes
  std::vector<std::size_t> batch_start;    // first index of each batch
  std::vector<std::uint8_t> ref_warn;      // eval refs, then probe refs (0)
  std::size_t reference_nodes = 0;
  std::uint64_t setup_violations = 0;
  std::vector<std::vector<Tensor>> chunks;  // the training set, chunked
};

std::unique_ptr<TrackBuildState> setup_track_build(const Options& opt,
                                                   const Sizes& sizes,
                                                   ChunkMins& build_mins) {
  auto st = std::make_unique<TrackBuildState>();
  pin_fastest_cpu();
  st->model = make_track_model(sizes);
  ranm::LabSetup& lab = st->model.lab;
  const ranm::MonitorBuilder builder(lab.net, kTrackLayer);
  ranm::IntervalMonitor reference(*st->model.spec);
  pin_fastest_cpu();
  st->chunks = builder_chunks(lab.train.inputs);
  (void)timed_build(st->chunks, build_mins,
                    [&](const std::vector<Tensor>& chunk) {
                      builder.build_robust(reference, chunk,
                                           track_perturbation());
                    });
  st->reference_nodes = reference.bdd_node_count();
  pin_fastest_cpu();

  ranm::Rng rng(opt.seed ^ 0xB01DULL);
  st->eval = make_track_traffic(lab, sizes, rng);
  std::vector<std::vector<float>> features = oracle(builder, reference, st->eval);
  st->ref_warn = st->eval.ref_warn;
  for (const Tensor& x : lab.train.inputs) {
    features.push_back(builder.features(
        ranm::perturb_linf_corner(x, kTrackDelta, rng)));
    const bool warn = !reference.contains(features.back());
    st->setup_violations += warn ? 1 : 0;
    st->ref_warn.push_back(0);  // Lemma 1: a probe never warns
    ++st->probes;
  }
  const std::size_t dim = builder.feature_dim();
  const std::size_t n_eval = st->eval.inputs.size();
  for (std::size_t start = 0; start < features.size();) {
    // Batches never straddle the eval/probe boundary.
    const std::size_t limit = start < n_eval ? n_eval : features.size();
    const std::size_t n = std::min(kCameraBatch, limit - start);
    st->batches.push_back(FeatureBatch::from_samples(
        dim, std::span<const std::vector<float>>(features.data() + start, n)));
    st->batch_start.push_back(start);
    start += n;
  }
  return st;
}

Result run_track_build(const Options& opt, const Sizes& sizes,
                       std::vector<double>& setup_s) {
  std::unique_ptr<TrackBuildState> st;
  ChunkMins chunk_mins;  // the set-up reference builds count too
  for (std::size_t i = 0; i < sizes.track_setups; ++i) {
    st.reset();
    const std::int64_t t = now_ns();
    st = setup_track_build(opt, sizes, chunk_mins);
    setup_s.push_back(seconds_since(t));
  }
  ranm::LabSetup& lab = st->model.lab;
  const ranm::MonitorBuilder builder(lab.net, kTrackLayer);
  const ranm::PerturbationSpec pspec = track_perturbation();
  const std::vector<Tensor>& train = lab.train.inputs;

  Result r;
  init_layer_metrics(r);
  Tracer tracer;
  std::vector<double> build_s;
  std::vector<Op> ops;        // verification queries (all iterations)
  OpMean untraced;            // iterations before tracing (trace runs)
  OpMean traced;              // iterations while tracing
  std::vector<std::uint8_t> first_warn;
  double width_sum = 0.0, width_n = 0.0;
  std::size_t nodes = 0, artifact_bytes = 0;
  r.failed += st->setup_violations;
  r.attempted += st->probes;

  const std::unique_ptr<bool[]> compiled_out = bools(kCameraBatch);
  const std::unique_ptr<bool[]> interp_out = bools(kCameraBatch);
  Repinner repin;
  const std::int64_t t0 = now_ns();
  const std::int64_t trace_at =
      t0 + std::int64_t(opt.seconds * (1.0 - kTracedShare) * 1e9);
  while (keep_going(t0, opt.seconds,
                    ops.size() < sizes.min_latency_samples)) {
    tracer.enable(opt.trace && now_ns() >= trace_at);
    pin_fastest_cpu();
    const std::int64_t it_begin = now_ns();
    const int root = tracer.open(kRoot, train.size());
    ranm::IntervalMonitor monitor(*st->model.spec);
    const std::int64_t b0 = now_ns();
    if (!tracer.on()) {
      (void)timed_build(st->chunks, chunk_mins,
                        [&](const std::vector<Tensor>& chunk) {
                          builder.build_robust(monitor, chunk, pspec);
                        });
    } else {
      // MonitorBuilder::build_robust's loop, one span per module call.
      const ranm::PerturbationEstimator pe(lab.net, kTrackLayer, pspec);
      constexpr std::size_t kChunk = ranm::MonitorBuilder::kDefaultBatch;
      for (std::size_t start = 0; start < train.size(); start += kChunk) {
        const std::size_t n = std::min(kChunk, train.size() - start);
        ranm::BoxBatch bounds;
        {
          const Scope s(tracer, "absint.estimate", n);
          bounds = pe.estimate_batch({train.data() + start, n});
        }
        {
          const Scope s(tracer, "core.observe_bounds", n);
          monitor.observe_bounds_batch(bounds.lower(), bounds.upper());
        }
        if (traced.count == 0) {  // first traced iteration only
          const std::span<const float> lo = bounds.lower().storage();
          const std::span<const float> hi = bounds.upper().storage();
          for (std::size_t i = 0; i < lo.size(); ++i) width_sum += hi[i] - lo[i];
          width_n += double(lo.size());
        }
      }
    }
    build_s.push_back(seconds_since(b0));
    nodes = monitor.bdd_node_count();
    r.attempted += 1;
    if (nodes != st->reference_nodes) r.failed += 1;  // build diverged

    std::unique_ptr<ranm::compile::CompiledMonitor> compiled;
    {
      const Scope s(tracer, "compile.lower");
      compiled = std::make_unique<ranm::compile::CompiledMonitor>(
          ranm::compile::compile_monitor(monitor));
    }
    {
      const Scope s(tracer, "io.save");
      std::ostringstream artifact;
      ranm::save_any_monitor(artifact, *compiled);
      artifact_bytes = artifact.str().size();
    }

    std::vector<std::uint8_t> warn(st->ref_warn.size(), 0);
    for (std::size_t b = 0; b < st->batches.size(); ++b) {
      if (!tracer.on()) repin.maybe_repin();
      const FeatureBatch& batch = st->batches[b];
      const std::size_t n = batch.size();
      Op op{now_ns(), 0, n};
      {
        const Scope s(tracer, "compile.contains", n);
        compiled->contains_batch(batch, {compiled_out.get(), n});
      }
      op.end = now_ns();
      ops.push_back(op);
      {
        const Scope s(tracer, "core.contains", n);
        monitor.contains_batch(batch, {interp_out.get(), n});
      }
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t idx = st->batch_start[b] + i;
        const std::uint8_t w = compiled_out[i] ? 0 : 1;
        warn[idx] = w;
        r.attempted += 1;
        // A compiled/interpreted disagreement, a changed verdict, or a
        // warning probe (Lemma-1 violation) each fail the verdict.
        if (compiled_out[i] != interp_out[i] || w != st->ref_warn[idx]) {
          r.failed += 1;
        }
      }
    }
    if (first_warn.empty()) first_warn = warn;
    tracer.close(root);
    (tracer.on() ? traced : untraced).add(Op{it_begin, now_ns(), 1});
  }

  if (first_warn.empty()) {
    r.complete = false;
    first_warn.assign(st->ref_warn.size(), 0);
  }
  first_warn.resize(st->eval.inputs.size());
  set_rates(r, st->eval, first_warn);
  r.set("build_samples_per_s", double(train.size()) / chunk_mins.total_s(),
        "1/s", "higher");
  std::int64_t verify_ns = 0;
  for (const Op& op : ops) verify_ns += op.end - op.begin;
  set_latency(r, ops, 1, verify_ns);
  r.info["builds"] = double(build_s.size());
  r.info["build_s_median"] = median(build_s);
  r.info["train_samples"] = double(train.size());
  r.info["lemma1_probes"] = double(st->probes);
  r.info["bdd_nodes"] = double(nodes);

  if (opt.trace) {
    std::map<std::string, SpanTotals> totals;
    summarise(tracer, totals);
    set_span_metrics(r, totals);
    r.metrics["absint.bound_width_mean"].value =
        width_n > 0 ? width_sum / width_n : 0.0;
    r.metrics["bdd.nodes"].value = double(nodes);
    r.metrics["io.artifact_bytes"].value = double(artifact_bytes);
    set_overhead(r, untraced, traced);
  }
  return r;
}

// ---- track_serve ------------------------------------------------------------
//
// In-process MonitorService over the compiled robust artifact, closed
// loop, one caller, batches of 32 frames (a camera tick).

struct TrackServeState {
  TrackModel model;
  std::unique_ptr<ranm::IntervalMonitor> reference;
  std::unique_ptr<ranm::serve::MonitorService> service;
  Pool pool;
  double load_ms = 0.0;
  double service_ms = 0.0;
  std::size_t nodes = 0;
  // The benchmark's own copies of the served artifacts, for tracing.
  ranm::Network net;
  std::unique_ptr<ranm::Monitor> compiled;
};

std::unique_ptr<TrackServeState> setup_track_serve(const Options& opt,
                                                   const Sizes& sizes,
                                                   ChunkMins& build_mins) {
  auto st = std::make_unique<TrackServeState>();
  pin_fastest_cpu();
  st->model = make_track_model(sizes);
  ranm::LabSetup& lab = st->model.lab;
  const ranm::MonitorBuilder builder(lab.net, kTrackLayer);
  st->reference = std::make_unique<ranm::IntervalMonitor>(*st->model.spec);
  pin_fastest_cpu();
  (void)timed_build(builder_chunks(lab.train.inputs), build_mins,
                    [&](const std::vector<Tensor>& chunk) {
                      builder.build_robust(*st->reference, chunk,
                                           track_perturbation());
                    });
  st->nodes = st->reference->bdd_node_count();
  pin_fastest_cpu();

  std::stringstream net_bytes, monitor_bytes;
  ranm::save_network(net_bytes, lab.net);
  ranm::save_any_monitor(monitor_bytes,
                         ranm::compile::compile_monitor(*st->reference));
  const std::string net_artifact = net_bytes.str();
  const std::string monitor_artifact = monitor_bytes.str();

  const std::int64_t l0 = now_ns();
  ranm::Network net = ranm::load_network(net_bytes);
  std::unique_ptr<ranm::Monitor> monitor = ranm::load_any_monitor(monitor_bytes);
  st->load_ms = double(now_ns() - l0) * 1e-6;
  const std::int64_t s0 = now_ns();
  st->service = std::make_unique<ranm::serve::MonitorService>(
      std::move(net), std::move(monitor), kTrackLayer, 1);
  st->service_ms = double(now_ns() - s0) * 1e-6;

  ranm::Rng rng(opt.seed ^ 0x5E7FULL);
  st->pool = make_track_traffic(lab, sizes, rng);
  (void)oracle(builder, *st->reference, st->pool);

  if (opt.trace) {
    std::istringstream n(net_artifact), m(monitor_artifact);
    st->net = ranm::load_network(n);
    st->compiled = ranm::load_any_monitor(m);
  }
  return st;
}

Result run_track_serve(const Options& opt, const Sizes& sizes,
                       std::vector<double>& setup_s) {
  std::unique_ptr<TrackServeState> st;
  ChunkMins build_mins;
  std::vector<double> load_ms, service_ms;
  for (std::size_t i = 0; i < sizes.track_setups; ++i) {
    st.reset();
    const std::int64_t t = now_ns();
    st = setup_track_serve(opt, sizes, build_mins);
    setup_s.push_back(seconds_since(t));
    load_ms.push_back(st->load_ms);
    service_ms.push_back(st->service_ms);
  }
  const Pool& pool = st->pool;
  const std::size_t n_pool = pool.inputs.size();
  const std::size_t per_pass = (n_pool + kCameraBatch - 1) / kCameraBatch;

  Result r;
  init_layer_metrics(r);
  Tracer tracer;
  std::vector<Op> ops;
  OpMean untraced, traced;
  std::vector<std::uint8_t> first_warn(n_pool, 0);
  std::vector<std::uint8_t> warns;
  std::size_t requests = 0;

  const std::size_t dim = st->service->dimension();
  const std::unique_ptr<bool[]> contains_out = bools(kCameraBatch);
  Repinner repin;
  const std::int64_t t0 = now_ns();
  const std::int64_t trace_at =
      t0 + std::int64_t(opt.seconds * (1.0 - kTracedShare) * 1e9);
  while (requests < per_pass ||
         keep_going(t0, opt.seconds, ops.size() < sizes.min_latency_samples)) {
    tracer.enable(opt.trace && now_ns() >= trace_at);
    repin.maybe_repin();
    const std::size_t start = (requests % per_pass) * kCameraBatch;
    const std::size_t n = std::min(kCameraBatch, n_pool - start);
    const std::span<const Tensor> batch(pool.inputs.data() + start, n);
    Op op{now_ns(), 0, n};
    try {
      if (!tracer.on()) {
        st->service->query_warns_into(batch, warns);
      } else {
        // MonitorService::query_warns_into's pipeline through the public
        // module calls: Network::forward_batch's per-sample layer chain,
        // then the compiled membership query.
        const Scope root(tracer, kRoot, n);
        FeatureBatch features(dim, n);
        for (std::size_t i = 0; i < n; ++i) {
          Tensor v = batch[i];
          for (std::size_t l = 1; l <= kTrackLayer; ++l) {
            const Scope s(tracer, layer_span_name(l));
            v = st->net.layer(l).forward(v);
          }
          features.set_sample(i, v.span());
        }
        {
          const Scope s(tracer, "compile.contains", n);
          st->compiled->contains_batch(features, {contains_out.get(), n});
        }
        warns.resize(n);
        for (std::size_t i = 0; i < n; ++i) warns[i] = contains_out[i] ? 0 : 1;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "track_serve: query failed: %s\n", e.what());
      warns.assign(n, 2);  // matches no reference verdict
    }
    op.end = now_ns();
    ops.push_back(op);
    (tracer.on() ? traced : untraced).add(op);
    for (std::size_t i = 0; i < n; ++i) {
      r.attempted += 1;
      if (warns[i] != pool.ref_warn[start + i]) r.failed += 1;
      if (requests < per_pass) first_warn[start + i] = warns[i] == 1 ? 1 : 0;
    }
    if (tracer.on() && requests % 4 == 0) {
      // Whole-call costs next to the decomposed path, outside the root.
      FeatureBatch features;
      {
        const Scope s(tracer, "nn.forward_batch", n);
        features = st->net.forward_batch(kTrackLayer, batch);
      }
      {
        const Scope s(tracer, "core.contains", n);
        st->reference->contains_batch(features, {contains_out.get(), n});
      }
      std::vector<std::uint8_t> scratch;
      {
        const Scope s(tracer, "serve.query", n);
        st->service->query_warns_into(batch, scratch);
      }
    }
    ++requests;
  }

  const ranm::PerturbationSpec robust = track_perturbation();
  extra_builds(ranm::MonitorBuilder(st->model.lab.net, kTrackLayer),
               *st->model.spec, builder_chunks(st->model.lab.train.inputs),
               &robust, kExtraBuildShare * opt.seconds, build_mins);
  set_rates(r, pool, first_warn);
  r.set("build_samples_per_s",
        double(st->model.lab.train.inputs.size()) / build_mins.total_s(),
        "1/s", "higher");
  set_latency(r, ops, 1, ops.empty() ? 0 : ops.back().end - t0);
  r.info["requests"] = double(ops.size());
  r.info["batch"] = double(kCameraBatch);
  r.info["pool"] = double(n_pool);
  r.info["bdd_nodes"] = double(st->nodes);

  if (opt.trace) {
    std::map<std::string, SpanTotals> totals;
    summarise(tracer, totals);
    set_span_metrics(r, totals);  // serve.query.ns: per 32-frame call
    r.metrics["bdd.nodes"].value = double(st->nodes);
    r.metrics["io.load_ms"].value = median(load_ms);
    r.metrics["serve.server_start_ms"].value = median(service_ms);
    set_overhead(r, untraced, traced);
  }
  return r;
}

// ---- mlp_socket -------------------------------------------------------------
//
// The bench_serving MLP (16 -> 64 -> 32 -> 8) with a standard 2-bit
// interval monitor, served over the Unix socket by Server at workers = 2.
// Two closed-loop clients on two connections, batch 1; one request in 16
// is an observe (staging beside the reads), the rest are queries.

struct MlpState {
  ranm::Network net;  // the model the monitor was built on
  std::unique_ptr<ranm::ThresholdSpec> spec;
  std::vector<std::vector<Tensor>> train_chunks;
  std::unique_ptr<ranm::IntervalMonitor> reference;
  std::string net_artifact, monitor_artifact;
  std::unique_ptr<ranm::serve::MonitorService> service;
  std::unique_ptr<ranm::serve::Server> server;
  std::thread server_thread;
  std::vector<std::unique_ptr<ranm::serve::ServeClient>> clients;
  Pool pool;
  double load_ms = 0.0;
  double server_ms = 0.0;

  MlpState() = default;
  MlpState(const MlpState&) = delete;
  MlpState& operator=(const MlpState&) = delete;
  ~MlpState() {
    clients.clear();
    if (server) server->stop();
    if (server_thread.joinable()) server_thread.join();
  }
};

constexpr std::size_t kMlpClients = 2;

std::unique_ptr<MlpState> setup_mlp(const Options& opt, const Sizes& sizes,
                                    ChunkMins& build_mins) {
  auto st = std::make_unique<MlpState>();
  pin_fastest_cpu();
  ranm::Rng model_rng(kMlpModelSeed);
  st->net = ranm::make_mlp({16, 64, 32, 8}, model_rng);
  std::vector<Tensor> train;
  train.reserve(sizes.mlp_train);
  for (std::size_t i = 0; i < sizes.mlp_train; ++i) {
    train.push_back(Tensor::random_uniform({16}, model_rng));
  }
  const ranm::MonitorBuilder builder(st->net, kMlpLayer);
  const ranm::NeuronStats stats = builder.collect_stats(train, true);
  st->spec = std::make_unique<ranm::ThresholdSpec>(
      ranm::ThresholdSpec::from_percentiles(stats, 2));
  st->reference = std::make_unique<ranm::IntervalMonitor>(*st->spec);
  st->train_chunks = builder_chunks(train);
  (void)timed_build(st->train_chunks, build_mins,
                    [&](const std::vector<Tensor>& chunk) {
                      builder.build_standard(*st->reference, chunk);
                    });

  std::stringstream net_bytes, monitor_bytes;
  ranm::save_network(net_bytes, st->net);
  ranm::save_any_monitor(monitor_bytes, *st->reference);
  st->net_artifact = net_bytes.str();
  st->monitor_artifact = monitor_bytes.str();
  const std::int64_t l0 = now_ns();
  ranm::Network net = ranm::load_network(net_bytes);
  std::unique_ptr<ranm::Monitor> monitor = ranm::load_any_monitor(monitor_bytes);
  st->load_ms = double(now_ns() - l0) * 1e-6;
  st->service = std::make_unique<ranm::serve::MonitorService>(
      std::move(net), std::move(monitor), kMlpLayer, 1);

  unpin();  // the server's threads inherit this thread's CPU mask
  ranm::serve::ServerConfig config;
  config.unix_path =
      opt.workdir + "/perfbench-" + std::to_string(::getpid()) + ".sock";
  config.workers = 2;
  const std::int64_t s0 = now_ns();
  st->server = std::make_unique<ranm::serve::Server>(*st->service, config);
  st->server_ms = double(now_ns() - s0) * 1e-6;
  st->server_thread = std::thread([server = st->server.get()] { server->run(); });

  // In-distribution: a training input re-observed with sensor noise.
  // Shifted: drawn from a range three times wider than training.
  ranm::Rng rng(opt.seed ^ 0x50CCULL);
  for (std::size_t i = 0; i < sizes.mlp_pool; ++i) {
    const bool in_dist = i % 2 == 0;
    st->pool.inputs.push_back(
        in_dist ? ranm::perturb_linf(train[rng.below(train.size())],
                                     kMlpNoise, rng)
                : Tensor::random_uniform({16}, rng, -3.0F, 3.0F));
    st->pool.in_dist.push_back(in_dist ? 1 : 0);
  }
  st->pool.shuffle(rng);
  (void)oracle(builder, *st->reference, st->pool);

  for (std::size_t c = 0; c < kMlpClients; ++c) {
    st->clients.push_back(
        std::make_unique<ranm::serve::ServeClient>(st->server->unix_path()));
  }
  return st;
}

/// What one client thread measured.
struct ClientLog {
  explicit ClientLog(std::uint64_t seed) : ops(seed) {}
  OpLog ops;
  OpMean untraced, traced;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t errors = 0;
  std::uint64_t overloaded = 0;
  Tracer tracer;
  double residual_ns = 0.0;  // round trip minus in-process estimates
  double attributed_ns = 0.0;
  double traced_rt_ns = 0.0;
  std::uint64_t residual_n = 0;
};

/// The benchmark's own in-process copies of the served artifacts: the
/// codec, service, network and monitor calls are timed on these.
struct Replica {
  ranm::Network net;
  std::unique_ptr<ranm::Monitor> monitor;
  std::unique_ptr<ranm::serve::MonitorService> service;

  explicit Replica(const MlpState& st) {
    std::istringstream n1(st.net_artifact), n2(st.net_artifact);
    std::istringstream m1(st.monitor_artifact), m2(st.monitor_artifact);
    net = ranm::load_network(n1);
    monitor = ranm::load_any_monitor(m1);
    service = std::make_unique<ranm::serve::MonitorService>(
        ranm::load_network(n2), ranm::load_any_monitor(m2), kMlpLayer, 1);
  }
};

void mlp_client(const MlpState& st, std::size_t c, Replica* replica,
                const Options& opt, const Sizes& sizes, std::int64_t t0,
                std::int64_t trace_at, std::vector<std::uint8_t>& first_warn,
                ClientLog& log) {
  ranm::serve::ServeClient& client = *st.clients[c];
  const Pool& pool = st.pool;
  std::vector<std::size_t> items;
  for (std::size_t i = c; i < pool.inputs.size(); i += kMlpClients) {
    items.push_back(i);
  }
  std::vector<std::uint8_t> warns, local_warns, decoded;
  std::string query_bytes, verdict_bytes;
  const std::unique_ptr<bool[]> contains_out = bools(1);
  const std::size_t min_ops = sizes.min_latency_samples / kMlpClients + 1;

  for (std::size_t j = 0;
       j < items.size() ||
       keep_going(t0, opt.seconds, log.ops.count() < min_ops);
       ++j) {
    log.tracer.enable(opt.trace && now_ns() >= trace_at);
    const std::size_t idx = items[j % items.size()];
    const std::span<const Tensor> batch(&pool.inputs[idx], 1);
    const bool observe = j % kObserveEvery == kObserveEvery - 1;
    std::uint8_t warn = 2;  // 2: no verdict
    Op op{now_ns(), 0, 1};
    try {
      const Scope root(log.tracer, kRoot);
      if (observe) {
        const ranm::serve::ObserveReply reply = client.observe(batch);
        if (reply.accepted == 1) warn = reply.novel == 1 ? 1 : 0;
      } else {
        client.query_warns_into(batch, warns);
        if (warns.size() == 1) warn = warns[0];
      }
    } catch (const ranm::serve::ServerOverloadedError&) {
      log.overloaded += 1;
    } catch (const std::exception& e) {
      log.errors += 1;
      if (log.errors <= 3) std::fprintf(stderr, "mlp_socket: %s\n", e.what());
    }
    op.end = now_ns();
    log.ops.add(op);
    log.attempted += 1;
    if (warn != pool.ref_warn[idx]) log.failed += 1;
    if (j < items.size()) first_warn[idx] = warn == 1 ? 1 : 0;
    if (!log.tracer.on()) {
      log.untraced.add(op);
      continue;
    }
    log.traced.add(op);

    // In-process estimates of the stages the round trip went through.
    Tracer& t = log.tracer;
    const std::int64_t a0 = now_ns();
    {
      const Scope s(t, "serve.encode_query");
      ranm::serve::encode_query_into(query_bytes, batch);
    }
    {
      const Scope s(t, "serve.decode_query");
      const std::vector<Tensor> decoded_inputs =
          ranm::serve::decode_query(query_bytes);
      if (decoded_inputs.size() != 1) log.failed += 1;
    }
    if (observe) {
      const Scope s(t, "serve.observe");
      (void)replica->service->observe_batch(batch);
    } else {
      {
        const Scope s(t, "serve.query");
        replica->service->query_warns_into(batch, local_warns);
      }
      {
        const Scope s(t, "serve.encode_verdicts");
        ranm::serve::encode_verdicts_into(verdict_bytes, local_warns);
      }
      {
        const Scope s(t, "serve.decode_verdicts");
        ranm::serve::decode_verdicts_into(verdict_bytes, decoded);
      }
    }
    const std::int64_t a1 = now_ns();
    const double rt = double(op.end - op.begin);
    log.attributed_ns += double(a1 - a0);
    log.traced_rt_ns += rt;
    if (!observe) {
      log.residual_ns += rt - double(a1 - a0);
      log.residual_n += 1;
    }
    // The network and monitor inside serve.query, layer by layer.
    FeatureBatch features(replica->monitor->dimension(), 1);
    {
      Tensor v = batch[0];
      for (std::size_t l = 1; l <= kMlpLayer; ++l) {
        const Scope s(t, layer_span_name(l));
        v = replica->net.layer(l).forward(v);
      }
      features.set_sample(0, v.span());
    }
    {
      const Scope s(t, "nn.forward_batch");
      features = replica->net.forward_batch(kMlpLayer, batch);
    }
    {
      const Scope s(t, "core.contains");
      replica->monitor->contains_batch(features, {contains_out.get(), 1});
    }
  }
}

Result run_mlp_socket(const Options& opt, const Sizes& sizes,
                      std::vector<double>& setup_s) {
  std::unique_ptr<MlpState> st;
  ChunkMins build_mins;
  std::vector<double> load_ms, server_ms;
  for (std::size_t i = 0; i < sizes.mlp_setups; ++i) {
    st.reset();
    const std::int64_t t = now_ns();
    st = setup_mlp(opt, sizes, build_mins);
    setup_s.push_back(seconds_since(t));
    load_ms.push_back(st->load_ms);
    server_ms.push_back(st->server_ms);
  }

  Result r;
  init_layer_metrics(r);
  std::vector<std::uint8_t> first_warn(st->pool.inputs.size(), 0);
  std::vector<ClientLog> logs;
  logs.reserve(kMlpClients);
  for (std::size_t c = 0; c < kMlpClients; ++c) {
    logs.emplace_back(opt.seed ^ (0x5A3B1E00ULL + c));  // reservoir draws
  }
  std::vector<std::unique_ptr<Replica>> replicas;
  for (std::size_t c = 0; opt.trace && c < kMlpClients; ++c) {
    replicas.push_back(std::make_unique<Replica>(*st));
  }
  const std::int64_t t0 = now_ns();
  const std::int64_t trace_at =
      t0 + std::int64_t(opt.seconds * (1.0 - kTracedShare) * 1e9);
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kMlpClients; ++c) {
      threads.emplace_back([&, c] {
        try {
          mlp_client(*st, c, opt.trace ? replicas[c].get() : nullptr, opt,
                     sizes, t0, trace_at, first_warn, logs[c]);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "mlp_socket: client %zu stopped: %s\n", c,
                       e.what());
          logs[c].failed += 1;
          logs[c].attempted += 1;
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const ranm::serve::ServiceStats stats = st->clients[0]->stats();

  extra_builds(ranm::MonitorBuilder(st->net, kMlpLayer), *st->spec,
               st->train_chunks, nullptr, kExtraBuildShare * opt.seconds,
               build_mins);

  std::vector<Op> ops;  // the clients' samples of their requests
  OpMean untraced, traced;
  std::uint64_t requests = 0, errors = 0, overloaded = 0;
  double samples = 0;
  std::int64_t t1 = t0;
  std::map<std::string, SpanTotals> totals;
  double residual = 0, residual_n = 0, attributed = 0, traced_rt = 0;
  for (const ClientLog& log : logs) {
    ops.insert(ops.end(), log.ops.sample().begin(), log.ops.sample().end());
    requests += log.ops.count();
    samples += log.ops.samples();
    t1 = std::max(t1, log.ops.last_end());
    untraced.add(log.untraced);
    traced.add(log.traced);
    r.attempted += log.attempted;
    r.failed += log.failed;
    errors += log.errors;
    overloaded += log.overloaded;
    summarise(log.tracer, totals);
    residual += log.residual_ns;
    residual_n += double(log.residual_n);
    attributed += log.attributed_ns;
    traced_rt += log.traced_rt_ns;
  }
  set_rates(r, st->pool, first_warn);
  r.set("build_samples_per_s", double(sizes.mlp_train) / build_mins.total_s(),
        "1/s", "higher");
  set_latency(r, ops, kMlpClients, t1 - t0);
  // The percentiles come from the samples; the plain rate counts every
  // request.
  r.info["plain_samples_per_s"] =
      t1 > t0 ? samples / double(t1 - t0) * 1e9 : 0.0;
  r.info["requests"] = double(requests);
  r.info["errors"] = double(errors);
  r.info["overloaded"] = double(overloaded);
  r.info["server_overloaded"] = double(stats.overloaded);
  r.info["batch"] = 1;

  if (opt.trace) {
    set_span_metrics(r, totals);
    r.metrics["serve.wire_residual.ns"].value =
        residual_n > 0 ? residual / residual_n : 0.0;
    // The socket round trip has no child spans: what the in-process
    // estimates do not cover is the epoll loop, the syscalls and the
    // worker handoff.
    r.metrics["trace.unattributed_share"].value =
        traced_rt > 0 ? 1.0 - attributed / traced_rt : 0.0;
    r.metrics["bdd.nodes"].value = double(st->reference->bdd_node_count());
    r.metrics["io.load_ms"].value = median(load_ms);
    r.metrics["serve.server_start_ms"].value = median(server_ms);
    r.metrics["serve.overloaded"].value = double(stats.overloaded);
    double max_q = 0, sum_q = 0;
    for (const auto& w : stats.workers) {
      max_q = std::max(max_q, double(w.queries));
      sum_q += double(w.queries);
    }
    r.metrics["serve.worker_skew"].value =
        sum_q > 0 ? max_q / (sum_q / double(stats.workers.size())) : 0.0;
    set_overhead(r, untraced, traced);
  }
  return r;
}

// ---- output -----------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t b = colon + 1;
        while (b < line.size() && line[b] == ' ') ++b;
        return line.substr(b);
      }
    }
  }
  return "unknown";
}

/// The last stdout line: everything run.py needs for the result and the
/// report.
void print_detail(const Options& opt, const Result& r) {
  std::string out = "{\"workload\": \"" + json_escape(opt.workload) + "\"";
  out += ", \"seed\": " + std::to_string(opt.seed);
  out += ", \"seconds\": " + num(opt.seconds);
  out += ", \"trace\": " + std::to_string(opt.trace ? 1 : 0);
  out += ", \"tiny\": " + std::string(opt.tiny ? "true" : "false");
  out += ", \"complete\": " + std::string(r.complete ? "true" : "false");
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"build\": {\"compiler\": \"" PERFBENCH_COMPILER
         "\", \"compiler_version\": \"" PERFBENCH_COMPILER_VERSION
         "\", \"flags\": \"" PERFBENCH_FLAGS
         "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"}";
  out += ", \"host\": {\"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu_model\": \"" + json_escape(cpu_model()) + "\"}";
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    out += (first ? "" : ", ");
    first = false;
    out += "\"" + name + "\": {\"value\": " + num(m.value) + ", \"unit\": \"" +
           m.unit + "\", \"better\": \"" + m.better + "\"}";
  }
  out += "}, \"info\": {";
  first = true;
  for (const auto& [name, v] : r.info) {
    out += (first ? "" : ", ");
    first = false;
    out += "\"" + name + "\": " + num(v);
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "track_build|track_serve|mlp_socket --seed N --seconds S "
               "--trace 0|1 [--tiny] [--workdir DIR]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        opt.workload = value();
      } else if (a == "--seed") {
        opt.seed = std::stoull(value());
      } else if (a == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (a == "--trace") {
        opt.trace = value() != "0";
      } else if (a == "--tiny") {
        opt.tiny = true;
      } else if (a == "--workdir") {
        opt.workdir = value();
      } else {
        usage(("unknown argument " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  return opt;
}

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const Sizes sizes = Sizes::make(opt.tiny);
  std::vector<double> setup_s;
  Result r;
  if (opt.workload == "track_build") {
    r = run_track_build(opt, sizes, setup_s);
  } else if (opt.workload == "track_serve") {
    r = run_track_serve(opt, sizes, setup_s);
  } else if (opt.workload == "mlp_socket") {
    r = run_mlp_socket(opt, sizes, setup_s);
  } else {
    usage("unknown workload");
  }
  r.set("setup_s", median(setup_s), "s", "lower");
  r.set("peak_rss_mb", peak_rss_mb(), "MB", "lower");
  r.info["setups"] = double(setup_s.size());
  r.info["failed_fraction"] =
      r.attempted > 0 ? double(r.failed) / double(r.attempted) : 1.0;
  print_detail(opt, r);
  return 0;
}

}  // namespace pb

int main(int argc, char** argv) {
  try {
    return pb::main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
