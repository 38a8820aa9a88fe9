// E5 — bound-engine comparison, two sweeps, and the concrete forward pass
// the bounds start from.
//
// Sweep 1 (domain_compare): box vs zonotope perturbation estimates across
// network depth (paper §III-B cites interval bound propagation [3],
// zonotopes [4], star sets [5]; its implementation uses boxes). Expected
// shape: zonotope bounds are tighter (ratio < 1) and the gap widens with
// depth, at higher runtime cost. Star sets are not implemented (LP solver
// out of scope — see DESIGN.md substitutions).
//
// Sweep 2 (backend_sweep): batched box propagation on both BoundBackends.
// The reference backend (the test oracle, constructed here directly) runs
// per-sample loops; the vectorized backend (the one production engine)
// runs register-tiled kernels over neuron-major rows. Two networks: an
// MLP of width 64 and depth 4 across batch size, and the lab convnet
// (make_small_convnet(32, 32, 6, 32, 2), the Δ-ball propagated through
// g1..g6 as in the robust build) at batch 1, 32 and 256, plus one row per
// layer g1..g6 at batch 256 that times that layer's kernel alone over the
// whole batch in one call. Every run checks the vectorized bounds are bit
// for bit the reference bounds, whole network and per layer; only
// throughput differs. The committed full run is the acceptance baseline
// for the vectorized backend (>= 2x reference at batch 256).
//
// Sweep 3 (forward_sweep): the lab convnet's concrete forward pass up to
// g6, which every robust-monitor verdict pays first, at batch 1, 32 and
// 256. One row times the whole prefix (Network::forward_batch); the rows
// below it split that time into the input pack (inputs scattered into
// neuron-major rows) and each layer g1..g6, timed by a clock read between
// the stages of forward_batch's own block loop, which runs right after
// each timed prefix call; the prefix row records their sum over it (about
// 1 when the split accounts for the whole pass).
// The bench fails if a column of the batched pass differs from the
// one-column pass.
//
// Every timing is the median, with the minimum beside it, of 5 timed
// blocks after one untimed warm-up call; the report stamps that statistic.
//
// Prints tables and writes machine-readable JSON (BENCH_domains.json, or
// the path given as argv[1]) so the perf trajectory is tracked per-PR.
// RANM_SMOKE=1 shrinks the sweeps for CI.
#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "absint/bound_backend.hpp"
#include "bench_util.hpp"
#include "core/perturbation_estimator.hpp"
#include "nn/init.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace ranm {
namespace {

/// Consumes a value of every timed call so that none is optimised away;
/// printed at exit.
double g_sink = 0.0;

/// Timed blocks per measurement; odd, so the median is one block.
constexpr std::size_t kBlocks = 5;

/// Median and minimum over kBlocks timed blocks, in us per input.
struct Timing {
  double median_us = 0.0;
  double min_us = 0.0;
};

/// Runs `fn` once untimed, then kBlocks blocks of `reps` calls; each call
/// covers `inputs` inputs.
template <typename Fn>
Timing time_blocks(std::size_t reps, std::size_t inputs, Fn&& fn) {
  fn();
  std::vector<double> us(kBlocks);
  for (double& block_us : us) {
    Timer timer;
    for (std::size_t r = 0; r < reps; ++r) fn();
    block_us = timer.millis() * 1000.0 / double(reps * inputs);
  }
  std::sort(us.begin(), us.end());
  return {us[kBlocks / 2], us.front()};
}

struct DomainMeasurement {
  std::size_t hidden_layers = 0;
  double box_width = 0.0;
  double zono_width = 0.0;
  double ratio = 0.0;
  Timing box;
  Timing zono;
};

struct BackendMeasurement {
  std::string backend;
  std::string network;
  std::string layers;             // "g1-g6" for a whole slice, or "g3"
  std::size_t hidden_layers = 0;  // MLP rows only
  std::size_t batch_size = 0;
  Timing time;
  double speedup_vs_reference = 0.0;
};

struct ForwardMeasurement {
  std::string layers;  // "g1-g6" for the prefix, "pack", or "g3"
  std::size_t batch_size = 0;
  Timing time;
  // Prefix row: the stage rows' median sum over this row's median. Stage
  // rows: this row's median over the prefix row's.
  double share = 0.0;
};

void write_json(const std::string& path, bool smoke,
                const std::vector<DomainMeasurement>& domains,
                const std::vector<BackendMeasurement>& backends,
                const std::vector<ForwardMeasurement>& forward) {
  std::vector<std::string> rows;
  rows.reserve(domains.size() + backends.size() + forward.size());
  for (const DomainMeasurement& m : domains) {
    std::ostringstream row;
    row << "{\"mode\": \"domain_compare\", \"hidden_layers\": "
        << m.hidden_layers << ", \"box_width\": " << m.box_width
        << ", \"zono_width\": " << m.zono_width
        << ", \"zono_box_ratio\": " << m.ratio
        << ", \"box_us_per_input\": " << m.box.median_us
        << ", \"box_us_per_input_min\": " << m.box.min_us
        << ", \"zono_us_per_input\": " << m.zono.median_us
        << ", \"zono_us_per_input_min\": " << m.zono.min_us << "}";
    rows.push_back(row.str());
  }
  for (const BackendMeasurement& m : backends) {
    std::ostringstream row;
    row << "{\"mode\": \"backend_sweep\", \"backend\": \"" << m.backend
        << "\", \"network\": \"" << m.network << "\", \"layers\": \""
        << m.layers << "\", \"batch_size\": " << m.batch_size;
    if (m.hidden_layers != 0) {
      row << ", \"hidden_layers\": " << m.hidden_layers;
    }
    row << ", \"us_per_input\": " << m.time.median_us
        << ", \"us_per_input_min\": " << m.time.min_us
        << ", \"speedup_vs_reference\": " << m.speedup_vs_reference << "}";
    rows.push_back(row.str());
  }
  for (const ForwardMeasurement& m : forward) {
    const bool prefix = m.layers == "g1-g6";
    std::ostringstream row;
    row << "{\"mode\": \"forward_sweep\", \"network\": \"lab_convnet\", "
        << "\"layers\": \"" << m.layers << "\", \"batch_size\": "
        << m.batch_size << ", \"us_per_input\": " << m.time.median_us
        << ", \"us_per_input_min\": " << m.time.min_us << ", \""
        << (prefix ? "stage_sum_over_prefix" : "share_of_prefix")
        << "\": " << m.share << "}";
    rows.push_back(row.str());
  }
  benchutil::write_json_report(
      path, "bench_domains", smoke, rows,
      "us/input: median (and _min: minimum) over 5 timed blocks of reps "
      "calls after one untimed warm-up call; backend_sweep per-layer rows "
      "time the layer's kernel alone over the whole batch in one call; "
      "forward_sweep: each call runs forward_batch (the prefix row) and "
      "then its block loop with a clock read between stages (the stage "
      "rows)");
}

std::vector<DomainMeasurement> run_domain_compare(bool smoke) {
  const std::vector<std::size_t> depths =
      smoke ? std::vector<std::size_t>{1, 2}
            : std::vector<std::size_t>{1, 2, 3, 4, 6};
  const std::size_t num_inputs = smoke ? 10 : 50;

  Rng rng(77);
  TextTable table("E5a: box vs zonotope perturbation estimates "
                  "(MLP width 32, Δ = 0.05, kp = 0)");
  table.set_header({"hidden layers", "box width", "zono width",
                    "zono/box ratio", "box us/input", "zono us/input"});

  std::vector<DomainMeasurement> results;
  for (const std::size_t depth : depths) {
    std::vector<std::size_t> dims{16};
    for (std::size_t i = 0; i < depth; ++i) dims.push_back(32);
    dims.push_back(8);
    Network net = make_mlp(dims, rng);
    const std::size_t k = net.num_layers();

    std::vector<Tensor> inputs;
    inputs.reserve(num_inputs);
    for (std::size_t i = 0; i < num_inputs; ++i) {
      inputs.push_back(Tensor::random_uniform({16}, rng));
    }

    PerturbationEstimator box_pe(net, k,
                                 PerturbationSpec{0, 0.05F, BoundDomain::kBox});
    PerturbationEstimator zono_pe(
        net, k, PerturbationSpec{0, 0.05F, BoundDomain::kZonotope});

    DomainMeasurement m;
    m.hidden_layers = depth;
    for (const auto& v : inputs) {
      m.box_width += box_pe.estimate(v).total_width();
      m.zono_width += zono_pe.estimate(v).total_width();
    }
    m.box = time_blocks(1, inputs.size(), [&] {
      for (const auto& v : inputs) g_sink += box_pe.estimate(v)[0].hi;
    });
    m.zono = time_blocks(1, inputs.size(), [&] {
      for (const auto& v : inputs) g_sink += zono_pe.estimate(v)[0].hi;
    });
    m.ratio = m.box_width > 0.0 ? m.zono_width / m.box_width : 0.0;
    m.box_width /= double(inputs.size());
    m.zono_width /= double(inputs.size());
    results.push_back(m);

    table.add_row({std::to_string(depth), TextTable::num(m.box_width, 3),
                   TextTable::num(m.zono_width, 3),
                   TextTable::num(m.ratio, 3),
                   TextTable::num(m.box.median_us, 1),
                   TextTable::num(m.zono.median_us, 1)});
  }
  table.print();
  return results;
}

/// Bit-for-bit agreement of two bound batches (the in-run guard behind
/// "bounds are identical").
bool bit_identical(const BoxBatch& a, const BoxBatch& b) {
  if (a.dimension() != b.dimension() || a.size() != b.size()) return false;
  for (std::size_t j = 0; j < a.dimension(); ++j) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (std::bit_cast<std::uint32_t>(a.lo(j, i)) !=
              std::bit_cast<std::uint32_t>(b.lo(j, i)) ||
          std::bit_cast<std::uint32_t>(a.hi(j, i)) !=
              std::bit_cast<std::uint32_t>(b.hi(j, i))) {
        return false;
      }
    }
  }
  return true;
}

/// Whether any bound of `b` is NaN (two backends that share a defect can
/// agree bit for bit on a NaN).
bool has_nan(const BoxBatch& b) {
  const auto nan = [](float v) { return v != v; };
  return std::ranges::any_of(b.lower().storage(), nan) ||
         std::ranges::any_of(b.upper().storage(), nan);
}

/// Times both backends (reference first, the baseline of the speedup
/// column) on one workload, adds their rows, and checks their untimed
/// results are bit-identical and free of NaN. `run(backend, out)` computes the workload's
/// bounds into `out`; `label` fills the rows' identity fields.
template <typename Run>
void measure_backends(const BackendMeasurement& label, std::size_t reps,
                      Run&& run, TextTable& table,
                      std::vector<BackendMeasurement>& results, bool& sound) {
  const ReferenceBoundBackend reference;
  const VectorizedBoundBackend vectorized;
  const BoundBackend* const backends[] = {&reference, &vectorized};
  BoxBatch check[2];
  double reference_us = 0.0;
  for (std::size_t b = 0; b < 2; ++b) {
    const BoundBackend& backend = *backends[b];
    run(backend, check[b]);
    BoxBatch out;
    BackendMeasurement m = label;
    m.backend = std::string(backend.name());
    m.time = time_blocks(reps, label.batch_size, [&] {
      run(backend, out);
      g_sink += double(out.hi(0, 0));
    });
    if (b == 0) reference_us = m.time.median_us;
    m.speedup_vs_reference =
        m.time.median_us > 0.0 ? reference_us / m.time.median_us : 0.0;
    table.add_row({m.backend, m.network, m.layers,
                   std::to_string(m.batch_size),
                   TextTable::num(m.time.median_us, 2),
                   TextTable::num(m.time.min_us, 2),
                   TextTable::num(m.speedup_vs_reference, 2)});
    results.push_back(m);
  }
  if (!bit_identical(check[0], check[1])) {
    std::fprintf(stderr,
                 "bench_domains: backends disagree on %s %s at batch %zu\n",
                 label.network.c_str(), label.layers.c_str(),
                 label.batch_size);
    sound = false;
  }
  for (std::size_t b = 0; b < 2; ++b) {
    if (has_nan(check[b])) {
      std::fprintf(stderr,
                   "bench_domains: NaN bound (backend %s) on %s %s at batch "
                   "%zu\n",
                   std::string(backends[b]->name()).c_str(),
                   label.network.c_str(), label.layers.c_str(),
                   label.batch_size);
      sound = false;
    }
  }
}

/// The Δ-ball (Δ = 0.05) around `batch` random inputs of `net`.
BoxBatch random_ball(const Network& net, std::size_t batch, Rng& rng) {
  std::vector<Tensor> inputs;
  inputs.reserve(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    inputs.push_back(Tensor::random_uniform(net.input_shape(), rng));
  }
  return BoxBatch::linf_ball(net.forward_batch(0, inputs), 0.05F);
}

std::vector<BackendMeasurement> run_backend_sweep(bool smoke, bool& sound) {
  TextTable table("E5b: batched box propagation, backend x network x batch "
                  "(Δ = 0.05, kp = 0; us/input median and min of 5 blocks)");
  table.set_header({"backend", "network", "layers", "batch", "us/input",
                    "min", "speedup vs reference"});
  std::vector<BackendMeasurement> results;
  auto measure = [&](const BackendMeasurement& label, std::size_t reps,
                     auto&& run) {
    measure_backends(label, reps, run, table, results, sound);
  };
  // Enough repetitions that even the fast configurations time a
  // multi-millisecond block.
  auto reps_for = [smoke](std::size_t batch, std::size_t budget) {
    return smoke ? std::size_t{1} : std::max<std::size_t>(1, budget / batch);
  };

  // Wide-ish MLP so the affine kernels dominate.
  constexpr std::size_t kDepth = 4;
  constexpr std::size_t kWidth = 64;
  Rng rng(78);
  std::vector<std::size_t> dims{16};
  for (std::size_t i = 0; i < kDepth; ++i) dims.push_back(kWidth);
  dims.push_back(8);
  const Network mlp = make_mlp(dims, rng);
  for (const std::size_t batch :
       smoke ? std::vector<std::size_t>{1, 8}
             : std::vector<std::size_t>{1, 16, 64, 256}) {
    const BoxBatch ball = random_ball(mlp, batch, rng);
    BackendMeasurement label;
    label.network = "mlp";
    label.layers = "g1-g" + std::to_string(mlp.num_layers());
    label.hidden_layers = kDepth;
    label.batch_size = batch;
    measure(label, reps_for(batch, 1024),
            [&](const BoundBackend& backend, BoxBatch& out) {
              out = mlp.propagate_box_batch(1, mlp.num_layers(), ball,
                                            backend);
            });
  }

  // The lab convnet up to its monitored layer g6 (the post-Dense
  // LeakyReLU), as the robust build propagates it.
  const std::size_t side = smoke ? 12 : 32;
  const Network conv = make_small_convnet(side, side, 6, 32, 2, rng);
  constexpr std::size_t kMonitored = 6;
  for (const std::size_t batch :
       smoke ? std::vector<std::size_t>{1, 33}
             : std::vector<std::size_t>{1, 32, 256}) {
    const BoxBatch ball = random_ball(conv, batch, rng);
    BackendMeasurement label;
    label.network = "lab_convnet";
    label.layers = "g1-g6";
    label.batch_size = batch;
    measure(label, reps_for(batch, 64),
            [&](const BoundBackend& backend, BoxBatch& out) {
              out = conv.propagate_box_batch(1, kMonitored, ball, backend);
            });
  }
  // Per layer: each layer's kernel alone, on the bounds layers 1..k-1
  // produce for the batch.
  const std::size_t layer_batch = smoke ? 33 : 256;
  BoxBatch in = random_ball(conv, layer_batch, rng);
  for (std::size_t k = 1; k <= kMonitored; ++k) {
    BackendMeasurement label;
    label.network = "lab_convnet";
    label.layers = "g" + std::to_string(k);
    label.batch_size = layer_batch;
    const Layer& layer = conv.layer(k);
    measure(label, reps_for(layer_batch, 64),
            [&](const BoundBackend& backend, BoxBatch& out) {
              layer.propagate_batch(backend, in, out);
            });
    BoxBatch next;
    layer.propagate_batch(VectorizedBoundBackend{}, in, next);
    in = std::move(next);
  }
  table.print();
  return results;
}

/// Element j of inputs[c0 + i] at out[j * b + i], i < b: one block of
/// Network::forward_batch's input pack.
void pack_block(const std::vector<Tensor>& inputs, std::size_t c0,
                std::size_t b, float* out) {
  for (std::size_t i = 0; i < b; ++i) {
    const Tensor& x = inputs[c0 + i];
    for (std::size_t j = 0; j < x.numel(); ++j) out[j * b + i] = x[j];
  }
}

std::vector<ForwardMeasurement> run_forward_sweep(bool smoke, bool& sound) {
  TextTable table("E5c: concrete forward pass of the lab convnet to g6, "
                  "whole prefix and per stage (us/input median and min of 5 "
                  "blocks)");
  table.set_header({"layers", "batch", "us/input", "min", "share"});
  std::vector<ForwardMeasurement> results;
  // Network::forward_batch's block; its layers run one block at a time.
  constexpr std::size_t kBlock = 32;
  constexpr std::size_t kMonitored = 6;
  const std::size_t side = smoke ? 12 : 32;
  Rng rng(79);
  const Network net = make_small_convnet(side, side, 6, 32, 2, rng);
  const auto add_row = [&](const ForwardMeasurement& m) {
    table.add_row({m.layers, std::to_string(m.batch_size),
                   TextTable::num(m.time.median_us, 2),
                   TextTable::num(m.time.min_us, 2),
                   TextTable::num(m.share, 3)});
    results.push_back(m);
  };
  for (const std::size_t batch :
       smoke ? std::vector<std::size_t>{1, 33}
             : std::vector<std::size_t>{1, 32, 256}) {
    std::vector<Tensor> inputs;
    for (std::size_t i = 0; i < batch; ++i) {
      inputs.push_back(Tensor::random_uniform(net.input_shape(), rng));
    }
    const std::size_t reps =
        smoke ? 1 : std::max<std::size_t>(1, 8192 / batch);

    // The batched pass, column by column against the one-column pass.
    const FeatureBatch whole = net.forward_batch(kMonitored, inputs);
    for (std::size_t i = 0; i < batch; ++i) {
      const Tensor one = net.forward_to(kMonitored, inputs[i]);
      const std::vector<float> column = whole.sample(i);
      if (column.size() != one.numel() ||
          std::memcmp(column.data(), one.data(),
                      column.size() * sizeof(float)) != 0) {
        std::fprintf(stderr,
                     "bench_domains: forward_batch column %zu of %zu differs "
                     "from the one-column pass\n",
                     i, batch);
        sound = false;
      }
    }

    // Row 0 times the whole prefix; rows 1.. time the stages inside
    // forward_batch's own loop, run right after it, with a clock read
    // between them: each block of 32 samples is packed neuron-major (row
    // 1), then ping-pongs through g1..g6 (rows 2..) in two block-sized
    // buffers, so every stage sees the working set it sees in
    // forward_batch, and a change of the host's speed reaches all rows.
    std::size_t width = net.layer(1).input_size();
    for (std::size_t k = 1; k <= kMonitored; ++k) {
      width = std::max(width, net.layer(k).output_size());
    }
    std::vector<float> ping(width * kBlock), pong(width * kBlock);
    constexpr std::size_t kRows = kMonitored + 2;
    using Clock = std::chrono::steady_clock;
    const auto pass = [&](std::array<Clock::duration, kRows>& spent) {
      Clock::time_point t = Clock::now();
      g_sink += double(net.forward_batch(kMonitored, inputs).at(0, 0));
      Clock::time_point now = Clock::now();
      spent[0] += now - t;
      for (std::size_t c0 = 0; c0 < batch; c0 += kBlock) {
        const std::size_t b = std::min(kBlock, batch - c0);
        float* src = ping.data();
        float* dst = pong.data();
        t = Clock::now();
        pack_block(inputs, c0, b, src);
        for (std::size_t row = 1; row < kRows; ++row) {
          if (row > 1) {
            net.layer(row - 1).forward_batch(src, dst, b);
            std::swap(src, dst);
          }
          now = Clock::now();
          spent[row] += now - t;
          t = now;
        }
        g_sink += double(src[0]);
      }
    };
    std::array<Clock::duration, kRows> warm{};
    pass(warm);
    std::array<std::vector<double>, kRows> block_us;
    for (std::size_t blk = 0; blk < kBlocks; ++blk) {
      std::array<Clock::duration, kRows> spent{};
      for (std::size_t r = 0; r < reps; ++r) pass(spent);
      for (std::size_t row = 0; row < kRows; ++row) {
        block_us[row].push_back(
            std::chrono::duration<double, std::micro>(spent[row]).count() /
            double(reps * batch));
      }
    }
    constexpr std::array<const char*, kRows> kLabels = {
        "g1-g6", "pack", "g1", "g2", "g3", "g4", "g5", "g6"};
    std::array<ForwardMeasurement, kRows> rows;
    for (std::size_t row = 0; row < kRows; ++row) {
      ForwardMeasurement& m = rows[row];
      m.layers = kLabels[row];
      m.batch_size = batch;
      std::sort(block_us[row].begin(), block_us[row].end());
      m.time = {block_us[row][kBlocks / 2], block_us[row].front()};
    }
    double sum = 0.0;
    for (std::size_t row = 1; row < kRows; ++row) {
      sum += rows[row].time.median_us;
      rows[row].share = rows[row].time.median_us / rows[0].time.median_us;
    }
    rows[0].share = sum / rows[0].time.median_us;
    for (const ForwardMeasurement& m : rows) add_row(m);
  }
  table.print();
  return results;
}

int run(int argc, char** argv) {
  const bool smoke = benchutil::smoke_mode();
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_domains.json";

  const std::vector<DomainMeasurement> domains = run_domain_compare(smoke);
  bool sound = true;
  const std::vector<BackendMeasurement> backends =
      run_backend_sweep(smoke, sound);
  const std::vector<ForwardMeasurement> forward =
      run_forward_sweep(smoke, sound);
  if (!sound) {
    std::fprintf(stderr, "bench_domains: bit-identity cross-check FAILED\n");
    return 1;
  }

  write_json(json_path, smoke, domains, backends, forward);
  std::printf(
      "wrote %s (sink %g)\n"
      "\n[E5] expected shape: (a) zono/box ratio < 1 everywhere and "
      "shrinking with depth (zonotopes track affine correlations that "
      "boxes lose); zonotope runtime grows with generator count. "
      "(b) vectorized speedup grows with batch size (contiguous "
      "neuron-major sweeps amortise across the batch lane) and clears "
      "2x at batch 256. (c) the forward stage rows sum to their prefix "
      "row (stage_sum_over_prefix within 5%% of 1); Conv2D g1 and Dense g5 "
      "take most of it.\n",
      json_path.c_str(), g_sink);
  return 0;
}

}  // namespace
}  // namespace ranm

int main(int argc, char** argv) { return ranm::run(argc, argv); }
