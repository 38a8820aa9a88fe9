// E6 — robust construction vs the false-positive mitigations of prior
// work, on the same race-track workload:
//
//   * validation-set enlargement (the paper's §I argues it is
//     "insufficient to cure aleatory uncertainty"),
//   * Hamming-distance enlargement of the on-off pattern set (ref [1]),
//   * box buffer enlargement / k-means multi-box (ref [2]),
//   * this paper's robust Δ-construction.
//
// Expected shape: every method trades FP against detection, but the
// robust construction reaches low FP while keeping detection, whereas
// validation enlargement still leaves FPs (it only covers sampled
// variation) and aggressive Hamming/buffer enlargement hurts detection.
#include <cstdio>

#include "core/box_cluster_monitor.hpp"
#include "core/interval_monitor.hpp"
#include "core/minmax_monitor.hpp"
#include "core/monitor_builder.hpp"
#include "data/perturb.hpp"
#include "eval/experiment.hpp"
#include "eval/metrics.hpp"
#include "util/table.hpp"

using namespace ranm;

int main() {
  LabConfig cfg;
  cfg.train_samples = 500;
  cfg.test_samples = 1200;
  cfg.ood_samples = 150;
  cfg.epochs = 5;
  std::printf("[E6] preparing race-track setup...\n");
  LabSetup setup = make_lab_setup(cfg);

  // Carve a validation split out of extra nominal data.
  Rng rng(cfg.seed + 1);
  Dataset validation = make_track_dataset(cfg.track, TrackScenario::kNominal,
                                          cfg.train_samples / 2, rng);

  MonitorBuilder builder(setup.net, setup.monitor_layer);
  const std::size_t d = builder.feature_dim();
  NeuronStats stats =
      builder.collect_stats(setup.train.inputs, /*keep_samples=*/true);

  TextTable table("E6: FP-mitigation baselines vs robust construction");
  table.set_header({"method", "FP rate", "mean detection"});
  auto add = [&](const char* name, const Monitor& m) {
    const auto eval =
        evaluate_monitor(builder, m, setup.test.inputs, setup.ood);
    table.add_row({name, TextTable::pct(100 * eval.false_positive_rate, 3),
                   TextTable::pct(100 * eval.mean_detection(), 1)});
  };

  // 1. Plain standard monitor (the FP problem).
  MinMaxMonitor plain(d);
  builder.build_standard(plain, setup.train.inputs);
  add("standard min-max", plain);

  // 2. Validation-set enlargement (§I's insufficient fix).
  MinMaxMonitor val(d);
  builder.build_standard(val, setup.train.inputs);
  builder.build_standard(val, validation.inputs);
  add("  + validation-set enlargement", val);

  // 2b. Noise augmentation: the cheap empirical cousin of robust
  // construction — build the standard monitor on the training set plus
  // noisy copies (same Δ as the robust build samples, but only sampled,
  // not worst-cased).
  {
    MinMaxMonitor aug(d);
    builder.build_standard(aug, setup.train.inputs);
    Rng arng(99);
    for (int copy = 0; copy < 5; ++copy) {
      std::vector<Tensor> noisy;
      noisy.reserve(setup.train.size());
      for (const Tensor& v : setup.train.inputs) {
        noisy.push_back(perturb_linf(v, 0.005F, arng));
      }
      builder.build_standard(aug, noisy);
    }
    add("  + 5x noise augmentation", aug);
  }

  // 3. Buffer enlargement (ref [2] style).
  for (float gamma : {0.05F, 0.2F}) {
    MinMaxMonitor buf(d);
    builder.build_standard(buf, setup.train.inputs);
    buf.enlarge(gamma);
    char name[64];
    std::snprintf(name, sizeof name, "  + buffer gamma=%.2f", gamma);
    add(name, buf);
  }

  // 4. k-means multi-box (ref [2]).
  for (std::size_t clusters : {4UL, 16UL}) {
    BoxClusterMonitor multi(d, clusters);
    builder.build_standard(multi, setup.train.inputs);
    Rng crng(7);
    multi.finalize(crng);
    char name[64];
    std::snprintf(name, sizeof name, "k-means boxes (k=%zu)", clusters);
    add(name, multi);
  }

  // 5. On-off with Hamming enlargement (ref [1]).
  IntervalMonitor onoff_plain(ThresholdSpec::from_means(stats));
  builder.build_standard(onoff_plain, setup.train.inputs);
  add("standard on-off", onoff_plain);
  for (unsigned radius : {1U, 2U}) {
    IntervalMonitor ham(ThresholdSpec::from_means(stats));
    builder.build_standard(ham, setup.train.inputs);
    ham.enlarge_hamming(radius);
    char name[64];
    std::snprintf(name, sizeof name, "  + Hamming radius %u", radius);
    add(name, ham);
  }

  // 6. This paper: robust construction.
  MinMaxMonitor robust(d);
  builder.build_robust(robust, setup.train.inputs,
                       PerturbationSpec{0, 0.005F, BoundDomain::kBox});
  add("robust min-max (this paper)", robust);
  IntervalMonitor onoff_rob(ThresholdSpec::from_means(stats));
  builder.build_robust(onoff_rob, setup.train.inputs,
                       PerturbationSpec{0, 0.005F, BoundDomain::kBox});
  add("robust on-off (this paper)", onoff_rob);

  table.print();
  std::printf("\n[E6] expected shape: robust construction reaches the "
              "lowest FP at comparable detection; validation enlargement "
              "alone keeps residual FPs; enlargement knobs trade detection "
              "away without a formal guarantee.\n");
  return 0;
}
