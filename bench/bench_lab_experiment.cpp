// E1 — the paper's §IV headline experiment.
//
// Paper (physical race track): standard monitor 0.62% FP; robust monitor
// 0.125% FP (80% reduction) with "roughly the same" detection rate of
// out-of-ODD scenarios (dark conditions, construction site, ice).
//
// This bench regenerates the same table on the synthetic race-track
// workload for all three monitor families. The expected *shape*: robust
// construction cuts FP by a large factor while per-scenario detection
// stays in the same band.
#include <cstdio>

#include "core/interval_monitor.hpp"
#include "core/minmax_monitor.hpp"
#include "core/monitor_builder.hpp"
#include "eval/experiment.hpp"
#include "eval/metrics.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace ranm;

int main() {
  Timer timer;
  LabConfig cfg;
  cfg.train_samples = 600;
  cfg.test_samples = 1600;
  cfg.ood_samples = 200;
  cfg.epochs = 6;
  std::printf("[E1] training waypoint network (%zu samples, %zu epochs)\n",
              cfg.train_samples, cfg.epochs);
  LabSetup setup = make_lab_setup(cfg);
  std::printf("[E1] training done in %.1fs, final MSE %.4f\n\n",
              timer.seconds(), setup.final_train_loss);

  MonitorBuilder builder(setup.net, setup.monitor_layer);
  const std::size_t d = builder.feature_dim();
  NeuronStats stats =
      builder.collect_stats(setup.train.inputs, /*keep_samples=*/true);
  const PerturbationSpec spec{0, 0.005F, BoundDomain::kBox};

  TextTable table(
      "E1: FP and per-scenario detection, standard vs robust (paper: "
      "0.62% -> 0.125% FP, detection roughly unchanged)");
  std::vector<std::string> header{"monitor", "mode", "FP rate"};
  for (const auto& [name, unused] : setup.ood) header.push_back(name);
  header.push_back("mean det");
  table.set_header(header);

  auto run = [&](const char* name, Monitor& m, bool robust) {
    if (robust) {
      builder.build_robust(m, setup.train.inputs, spec);
    } else {
      builder.build_standard(m, setup.train.inputs);
    }
    const auto eval =
        evaluate_monitor(builder, m, setup.test.inputs, setup.ood);
    std::vector<std::string> cells{
        name, robust ? "robust" : "standard",
        TextTable::pct(100 * eval.false_positive_rate, 3)};
    for (const auto& s : eval.detection) {
      cells.push_back(TextTable::pct(100 * s.rate, 1));
    }
    cells.push_back(TextTable::pct(100 * eval.mean_detection(), 1));
    table.add_row(cells);
    return eval;
  };

  MinMaxMonitor mm_std(d), mm_rob(d);
  const auto mm_std_eval = run("min-max", mm_std, false);
  const auto mm_rob_eval = run("min-max", mm_rob, true);

  IntervalMonitor oo_std(ThresholdSpec::from_means(stats));
  IntervalMonitor oo_rob(ThresholdSpec::from_means(stats));
  (void)run("on-off", oo_std, false);
  (void)run("on-off", oo_rob, true);

  IntervalMonitor iv_std(ThresholdSpec::from_percentiles(stats, 2));
  IntervalMonitor iv_rob(ThresholdSpec::from_percentiles(stats, 2));
  (void)run("interval-2bit", iv_std, false);
  (void)run("interval-2bit", iv_rob, true);

  table.print();

  if (mm_std_eval.false_positive_rate > 0) {
    std::printf("\n[E1] min-max FP reduction: %.0f%% (paper: ~80%%)\n",
                100.0 * (1.0 - mm_rob_eval.false_positive_rate /
                                   mm_std_eval.false_positive_rate));
  }
  std::printf("[E1] min-max detection ratio robust/standard: %.2f "
              "(paper: ~1.0)\n",
              mm_std_eval.mean_detection() > 0
                  ? mm_rob_eval.mean_detection() / mm_std_eval.mean_detection()
                  : 0.0);
  std::printf("[E1] total wall time %.1fs\n", timer.seconds());
  return 0;
}
