// E7 — empirical validation of Lemma 1 at scale.
//
// Lemma 1: a robust monitor warning implies no training input is Δ-close
// at layer kp. Equivalently, probes constructed Δ-close to training
// activations must never warn. This bench hammers all three monitor
// families with adversarially-cornered probes and reports the violation
// count, which must be exactly 0, plus the warn rate on random far inputs
// as a control (the monitor is not vacuously accepting everything).
#include <cstdio>

#include "core/interval_monitor.hpp"
#include "core/minmax_monitor.hpp"
#include "core/monitor_builder.hpp"
#include "nn/init.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace ranm;

int main() {
  TextTable table("E7: Lemma-1 violation counts (must all be 0)");
  table.set_header({"net seed", "kp", "delta", "probes", "minmax viol",
                    "onoff viol", "interval viol", "control warn%"});

  std::size_t total_violations = 0;
  for (const auto& [seed, kp, delta] :
       std::vector<std::tuple<int, std::size_t, float>>{
           {1, 0, 0.05F},
           {2, 0, 0.2F},
           {3, 1, 0.1F},
           {4, 2, 0.15F},
           {5, 4, 0.3F}}) {
    Rng rng{std::uint64_t(seed)};
    Network net = make_mlp({6, 16, 12, 8}, rng);
    const std::size_t k = net.num_layers();
    std::vector<Tensor> train;
    for (int i = 0; i < 40; ++i) {
      train.push_back(Tensor::random_uniform({6}, rng));
    }
    MonitorBuilder builder(net, k);
    NeuronStats stats = builder.collect_stats(train, true);
    const PerturbationSpec spec{kp, delta, BoundDomain::kBox};

    MinMaxMonitor mm(builder.feature_dim());
    IntervalMonitor oo(ThresholdSpec::from_means(stats));
    IntervalMonitor iv(ThresholdSpec::from_percentiles(stats, 2));
    builder.build_robust(mm, train, spec);
    builder.build_robust(oo, train, spec);
    builder.build_robust(iv, train, spec);

    std::size_t probes = 0, mm_viol = 0, oo_viol = 0, iv_viol = 0;
    for (const Tensor& v : train) {
      const Tensor at_kp = net.forward_to(kp, v);
      for (int trial = 0; trial < 200; ++trial) {
        Tensor probe = at_kp;
        for (std::size_t j = 0; j < probe.numel(); ++j) {
          // Corner probes are the worst case of the Δ-ball.
          probe[j] += trial % 2 == 0
                          ? (rng.chance(0.5) ? delta : -delta)
                          : rng.uniform_f(-delta, delta);
        }
        const Tensor f = net.forward_range(kp + 1, k, probe);
        const std::vector<float> feat(f.data(), f.data() + f.numel());
        mm_viol += mm.warn(feat);
        oo_viol += oo.warn(feat);
        iv_viol += iv.warn(feat);
        ++probes;
      }
    }
    total_violations += mm_viol + oo_viol + iv_viol;

    // Control: far-away inputs should still warn often (min-max monitor —
    // its envelope cannot saturate the way threshold codes can).
    int control_warn = 0;
    const int control_n = 200;
    for (int i = 0; i < control_n; ++i) {
      const Tensor far = Tensor::random_uniform({6}, rng, 5.0F, 8.0F);
      control_warn += builder.warns(mm, far);
    }

    table.add_row({std::to_string(seed), std::to_string(kp),
                   TextTable::num(delta, 2), std::to_string(probes),
                   std::to_string(mm_viol), std::to_string(oo_viol),
                   std::to_string(iv_viol),
                   TextTable::pct(100.0 * control_warn / control_n, 1)});
  }
  table.print();
  std::printf("\n[E7] total Lemma-1 violations: %zu (paper's claim: provably "
              "0)\n", total_violations);
  return total_violations == 0 ? 0 : 1;
}
