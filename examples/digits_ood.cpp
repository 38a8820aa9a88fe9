// Out-of-distribution detection on a classification workload: a
// seven-segment digit classifier (the repo's MNIST/GTSRB analogue) with
// on-off and interval monitors watching its hidden layer. Letters,
// inverted video, and heavy noise are flagged while nominal digits pass.
#include <cstdio>
#include <cstdlib>

#include "core/interval_monitor.hpp"
#include "core/monitor_builder.hpp"
#include "eval/experiment.hpp"
#include "eval/metrics.hpp"
#include "util/table.hpp"

using namespace ranm;

int main() {
  DigitLabConfig cfg;
  cfg.train_samples = 800;
  cfg.test_samples = 500;
  cfg.ood_samples = 200;
  cfg.epochs = 10;
  // Under the ctest smoke entry (RANM_SMOKE=1) shrink to a step budget
  // that finishes in seconds while still exercising the full pipeline.
  if (std::getenv("RANM_SMOKE") != nullptr) {
    cfg.train_samples = 200;
    cfg.test_samples = 100;
    cfg.ood_samples = 60;
    cfg.epochs = 2;
  }
  std::printf("Training 7-segment digit classifier (%zu samples)...\n",
              cfg.train_samples);
  DigitLabSetup setup = make_digit_setup(cfg);
  std::printf("held-out accuracy: %.1f%%\n\n", 100.0F * setup.accuracy);

  MonitorBuilder builder(setup.net, setup.monitor_layer);
  NeuronStats stats =
      builder.collect_stats(setup.train.inputs, /*keep_samples=*/true);

  // Three monitors of increasing granularity, all built robustly with a
  // small input perturbation bound.
  const PerturbationSpec spec{0, 0.01F, BoundDomain::kBox};
  IntervalMonitor onoff(ThresholdSpec::from_means(stats));
  IntervalMonitor two_bit(ThresholdSpec::from_percentiles(stats, 2));
  IntervalMonitor three_bit(ThresholdSpec::from_percentiles(stats, 3));
  builder.build_robust(onoff, setup.train.inputs, spec);
  builder.build_robust(two_bit, setup.train.inputs, spec);
  builder.build_robust(three_bit, setup.train.inputs, spec);

  TextTable table("OOD detection on digit classifier (robust monitors)");
  std::vector<std::string> header{"monitor", "FP rate"};
  for (const auto& [name, unused] : setup.ood) header.push_back(name);
  table.set_header(header);

  auto report = [&](const char* name, const Monitor& m) {
    const auto eval =
        evaluate_monitor(builder, m, setup.test.inputs, setup.ood);
    std::vector<std::string> cells{
        name, TextTable::pct(100 * eval.false_positive_rate, 2)};
    for (const auto& s : eval.detection) {
      cells.push_back(TextTable::pct(100 * s.rate, 1));
    }
    table.add_row(cells);
  };
  report("on-off (1 bit)", onoff);
  report("interval 2-bit", two_bit);
  report("interval 3-bit", three_bit);
  table.print();

  // Quantitative score demo (ref [11]-style): how far (in Hamming
  // distance) is each OOD variant from the accepted pattern set?
  std::printf("\nHamming distance of first 5 'letters' inputs to the "
              "accepted on-off pattern set:\n  ");
  for (int i = 0; i < 5; ++i) {
    const auto f = builder.features(setup.ood[0].second[std::size_t(i)]);
    const auto dist = onoff.hamming_distance(f, 10);
    if (dist) {
      std::printf("%u ", *dist);
    } else {
      std::printf(">10 ");
    }
  }
  std::printf("\n(0 = accepted; larger = further outside the ODD)\n");
  return 0;
}
