// E11 — quantitative monitoring (extension; refs [1]/[11] discuss
// quantitative decisions over activation patterns).
//
// Binary monitors give one operating point; the Hamming distance of the
// operation-time pattern to the accepted set gives a score and hence a
// full ROC curve per scenario. This bench reports AUCs for standard vs
// robust on-off monitors on the race-track workload. Expected shape: AUC
// well above 0.5 on scenarios the binary monitor detects; robust
// construction shifts the in-distribution score mass to 0 without
// destroying the ranking.
#include <cstdio>

#include "core/interval_monitor.hpp"
#include "core/monitor_builder.hpp"
#include "eval/experiment.hpp"
#include "eval/roc.hpp"
#include "util/table.hpp"

using namespace ranm;

int main() {
  LabConfig cfg;
  cfg.train_samples = 400;
  cfg.test_samples = 600;
  cfg.ood_samples = 150;
  cfg.epochs = 5;
  std::printf("[E11] preparing race-track setup...\n");
  LabSetup setup = make_lab_setup(cfg);

  MonitorBuilder builder(setup.net, setup.monitor_layer);
  NeuronStats stats =
      builder.collect_stats(setup.train.inputs, /*keep_samples=*/true);
  const unsigned cap = 8;

  IntervalMonitor standard(ThresholdSpec::from_means(stats));
  IntervalMonitor robust(ThresholdSpec::from_means(stats));
  builder.build_standard(standard, setup.train.inputs);
  builder.build_robust(robust, setup.train.inputs,
                       PerturbationSpec{0, 0.005F, BoundDomain::kBox});

  // 2-bit interval monitors score in code-bit space — finer-grained and,
  // per E1, the stronger detector on this workload.
  IntervalMonitor iv_std(ThresholdSpec::from_percentiles(stats, 2));
  IntervalMonitor iv_rob(ThresholdSpec::from_percentiles(stats, 2));
  builder.build_standard(iv_std, setup.train.inputs);
  builder.build_robust(iv_rob, setup.train.inputs,
                       PerturbationSpec{0, 0.005F, BoundDomain::kBox});

  auto interval_scores = [&](const IntervalMonitor& m,
                             const std::vector<Tensor>& inputs) {
    std::vector<double> scores;
    scores.reserve(inputs.size());
    for (const Tensor& v : inputs) {
      const auto d = m.hamming_distance(builder.features(v), cap);
      scores.push_back(d ? double(*d) : double(cap) + 1.0);
    }
    return scores;
  };

  const auto oo_std_in =
      hamming_scores(builder, standard, setup.test.inputs, cap);
  const auto oo_rob_in =
      hamming_scores(builder, robust, setup.test.inputs, cap);
  const auto iv_std_in = interval_scores(iv_std, setup.test.inputs);
  const auto iv_rob_in = interval_scores(iv_rob, setup.test.inputs);

  TextTable table(
      "E11: Hamming-score AUC per scenario (cap 8; oo = on-off mean "
      "thresholds, iv = 2-bit percentile codes)");
  table.set_header({"scenario", "AUC oo std", "AUC oo rob", "AUC iv std",
                    "AUC iv rob"});
  auto mean = [](const std::vector<double>& v) {
    double acc = 0.0;
    for (double s : v) acc += s;
    return acc / double(v.size());
  };
  for (const auto& [name, inputs] : setup.ood) {
    const auto oo_s = hamming_scores(builder, standard, inputs, cap);
    const auto oo_r = hamming_scores(builder, robust, inputs, cap);
    const auto iv_s = interval_scores(iv_std, inputs);
    const auto iv_r = interval_scores(iv_rob, inputs);
    table.add_row({name,
                   TextTable::num(compute_roc(oo_std_in, oo_s).auc, 3),
                   TextTable::num(compute_roc(oo_rob_in, oo_r).auc, 3),
                   TextTable::num(compute_roc(iv_std_in, iv_s).auc, 3),
                   TextTable::num(compute_roc(iv_rob_in, iv_r).auc, 3)});
  }
  table.print();
  std::printf(
      "\n[E11] in-distribution mean scores — on-off: std %.2f / rob %.2f; "
      "interval: std %.2f / rob %.2f. Robust construction pushes in-ODD "
      "scores to 0; the interval codes carry the ranking signal the "
      "coarse on-off abstraction lacks.\n",
      mean(oo_std_in), mean(oo_rob_in), mean(iv_std_in), mean(iv_rob_in));
  return 0;
}
