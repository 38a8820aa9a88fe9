// E5 — bound-engine comparison, two sweeps.
//
// Sweep 1 (domain_compare): box vs zonotope perturbation estimates across
// network depth (paper §III-B cites interval bound propagation [3],
// zonotopes [4], star sets [5]; its implementation uses boxes). Expected
// shape: zonotope bounds are tighter (ratio < 1) and the gap widens with
// depth, at higher runtime cost. Star sets are not implemented (LP solver
// out of scope — see DESIGN.md substitutions).
//
// Sweep 2 (backend_sweep): batched box propagation on both BoundBackends
// across batch size. The reference backend (the test oracle, constructed
// here directly) runs per-sample loops; the vectorized backend (the one
// production engine) sweeps contiguous neuron-major rows. Bounds are
// identical (cross-checked per run); only throughput differs. The
// committed full run is the acceptance baseline for the vectorized
// backend (>= 2x reference at batch 256).
//
// Prints tables and writes machine-readable JSON (BENCH_domains.json, or
// the path given as argv[1]) so the perf trajectory is tracked per-PR.
// RANM_SMOKE=1 shrinks the sweeps for CI.
#include <algorithm>
#include <cstdio>
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

struct DomainMeasurement {
  std::size_t hidden_layers = 0;
  double box_width = 0.0;
  double zono_width = 0.0;
  double ratio = 0.0;
  double box_us_per_input = 0.0;
  double zono_us_per_input = 0.0;
};

struct BackendMeasurement {
  std::string backend;
  std::size_t batch_size = 0;
  std::size_t hidden_layers = 0;
  double us_per_input = 0.0;
  double speedup_vs_reference = 0.0;
};

void write_json(const std::string& path, bool smoke,
                const std::vector<DomainMeasurement>& domains,
                const std::vector<BackendMeasurement>& backends) {
  std::vector<std::string> rows;
  rows.reserve(domains.size() + backends.size());
  for (const DomainMeasurement& m : domains) {
    std::ostringstream row;
    row << "{\"mode\": \"domain_compare\", \"hidden_layers\": "
        << m.hidden_layers << ", \"box_width\": " << m.box_width
        << ", \"zono_width\": " << m.zono_width
        << ", \"zono_box_ratio\": " << m.ratio
        << ", \"box_us_per_input\": " << m.box_us_per_input
        << ", \"zono_us_per_input\": " << m.zono_us_per_input << "}";
    rows.push_back(row.str());
  }
  for (const BackendMeasurement& m : backends) {
    std::ostringstream row;
    row << "{\"mode\": \"backend_sweep\", \"backend\": \"" << m.backend
        << "\", \"batch_size\": " << m.batch_size
        << ", \"hidden_layers\": " << m.hidden_layers
        << ", \"us_per_input\": " << m.us_per_input
        << ", \"speedup_vs_reference\": " << m.speedup_vs_reference << "}";
    rows.push_back(row.str());
  }
  benchutil::write_json_report(path, "bench_domains", smoke, rows);
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
    Timer box_timer;
    for (const auto& v : inputs) m.box_width += box_pe.estimate(v).total_width();
    m.box_us_per_input = box_timer.millis() * 1000.0 / double(inputs.size());
    Timer zono_timer;
    for (const auto& v : inputs) {
      m.zono_width += zono_pe.estimate(v).total_width();
    }
    m.zono_us_per_input =
        zono_timer.millis() * 1000.0 / double(inputs.size());
    m.ratio = m.box_width > 0.0 ? m.zono_width / m.box_width : 0.0;
    m.box_width /= double(inputs.size());
    m.zono_width /= double(inputs.size());
    results.push_back(m);

    table.add_row({std::to_string(depth), TextTable::num(m.box_width, 3),
                   TextTable::num(m.zono_width, 3),
                   TextTable::num(m.ratio, 3),
                   TextTable::num(m.box_us_per_input, 1),
                   TextTable::num(m.zono_us_per_input, 1)});
  }
  table.print();
  return results;
}

/// Outward-only containment check of `vec` against `ref` (the in-run
/// guard behind the "bounds are cross-checked per run" claim).
bool bounds_contain(const BoxBatch& ref, const BoxBatch& vec) {
  if (ref.dimension() != vec.dimension() || ref.size() != vec.size()) {
    return false;
  }
  for (std::size_t j = 0; j < ref.dimension(); ++j) {
    for (std::size_t i = 0; i < ref.size(); ++i) {
      if (vec.lo(j, i) > ref.lo(j, i) || vec.hi(j, i) < ref.hi(j, i)) {
        return false;
      }
    }
  }
  return true;
}

std::vector<BackendMeasurement> run_backend_sweep(bool smoke, bool& sound) {
  // Wide-ish MLP so the affine kernels dominate, as in deployment.
  constexpr std::size_t kDepth = 4;
  constexpr std::size_t kWidth = 64;
  const std::vector<std::size_t> batch_sizes =
      smoke ? std::vector<std::size_t>{1, 8}
            : std::vector<std::size_t>{1, 16, 64, 256};

  Rng rng(78);
  std::vector<std::size_t> dims{16};
  for (std::size_t i = 0; i < kDepth; ++i) dims.push_back(kWidth);
  dims.push_back(8);
  Network net = make_mlp(dims, rng);
  const std::size_t k = net.num_layers();

  TextTable table("E5b: batched box propagation, backend x batch size "
                  "(MLP width 64, depth 4, Δ = 0.05, kp = 0)");
  table.set_header(
      {"backend", "batch", "us/input", "speedup vs reference"});

  // Reference first: it is the baseline of the speedup column and of the
  // bounds cross-check.
  const ReferenceBoundBackend reference;
  const VectorizedBoundBackend vectorized;
  const BoundBackend* const backends[] = {&reference, &vectorized};

  std::vector<BackendMeasurement> results;
  for (const std::size_t batch : batch_sizes) {
    std::vector<Tensor> inputs;
    inputs.reserve(batch);
    for (std::size_t i = 0; i < batch; ++i) {
      inputs.push_back(Tensor::random_uniform({16}, rng));
    }
    // Enough repetitions that even the fast configurations time a
    // multi-millisecond region.
    const std::size_t reps =
        smoke ? 2 : std::max<std::size_t>(4, 4096 / batch);

    // The box estimate at kp = 0, on an explicit backend: pack the
    // inputs, inflate to the Δ-ball, propagate through every layer.
    auto estimate = [&](const BoundBackend& backend) {
      const BoxBatch ball =
          BoxBatch::linf_ball(net.forward_batch(0, inputs), 0.05F);
      return net.propagate_box_batch(1, k, ball, backend);
    };
    double reference_us = 0.0;
    std::vector<BoxBatch> check;  // one warm-up result per backend
    for (const BoundBackend* backend : backends) {
      check.push_back(estimate(*backend));  // warm-up, untimed
      Timer timer;
      double checksum = 0.0;
      for (std::size_t r = 0; r < reps; ++r) {
        const BoxBatch bounds = estimate(*backend);
        checksum += double(bounds.hi(0, 0));
      }
      const double us_per_input =
          timer.millis() * 1000.0 / double(reps * batch);

      BackendMeasurement m;
      m.backend = std::string(backend->name());
      m.batch_size = batch;
      m.hidden_layers = kDepth;
      m.us_per_input = us_per_input;
      if (backend == backends[0]) {
        reference_us = us_per_input;
        m.speedup_vs_reference = 1.0;
      } else {
        m.speedup_vs_reference =
            us_per_input > 0.0 ? reference_us / us_per_input : 0.0;
      }
      results.push_back(m);
      table.add_row({m.backend, std::to_string(batch),
                     TextTable::num(m.us_per_input, 2),
                     TextTable::num(m.speedup_vs_reference, 2)});
      if (checksum != checksum) {
        std::fprintf(stderr, "bench_domains: NaN checksum (backend %s)\n",
                     m.backend.c_str());
        sound = false;
      }
    }
    // Cross-check: every backend's bounds must contain the reference
    // bounds (check[0]) — identical or outward-only.
    for (std::size_t b = 1; b < check.size(); ++b) {
      if (!bounds_contain(check[0], check[b])) {
        std::fprintf(stderr,
                     "bench_domains: backend %s tightened bounds inward "
                     "vs reference at batch %zu\n",
                     std::string(backends[b]->name()).c_str(),
                     batch);
        sound = false;
      }
    }
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
  if (!sound) {
    std::fprintf(stderr, "bench_domains: backend cross-check FAILED\n");
    return 1;
  }

  write_json(json_path, smoke, domains, backends);
  std::printf(
      "wrote %s\n"
      "\n[E5] expected shape: (a) zono/box ratio < 1 everywhere and "
      "shrinking with depth (zonotopes track affine correlations that "
      "boxes lose); zonotope runtime grows with generator count. "
      "(b) vectorized speedup grows with batch size (contiguous "
      "neuron-major sweeps amortise across the batch lane) and clears "
      "2x at batch 256.\n",
      json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace ranm

int main(int argc, char** argv) { return ranm::run(argc, argv); }
