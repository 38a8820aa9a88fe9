#include "eval/experiment.hpp"

#include <stdexcept>
#include <string>

#include "core/interval_monitor.hpp"
#include "core/minmax_monitor.hpp"
#include "core/sharded_monitor.hpp"
#include "core/threshold_spec.hpp"
#include "nn/init.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/trainer.hpp"

namespace ranm {

LabSetup make_lab_setup(const LabConfig& cfg) {
  Rng rng(cfg.seed);

  LabSetup setup;
  setup.config = cfg;
  setup.train = make_track_dataset(cfg.track, TrackScenario::kNominal,
                                   cfg.train_samples, rng);
  setup.test = make_track_dataset(cfg.track, TrackScenario::kNominal,
                                  cfg.test_samples, rng);
  for (TrackScenario scenario : track_departure_scenarios()) {
    Dataset ds =
        make_track_dataset(cfg.track, scenario, cfg.ood_samples, rng);
    setup.ood.emplace_back(std::string(track_scenario_name(scenario)),
                           std::move(ds.inputs));
  }

  setup.net = make_small_convnet(cfg.track.height, cfg.track.width,
                                 cfg.conv_channels, cfg.hidden,
                                 /*out=*/2, rng);
  // Layer layout of make_small_convnet:
  //   1 Conv2D, 2 ReLU, 3 MaxPool2D, 4 Flatten, 5 Dense, 6 ReLU, 7 Dense.
  // Monitor the ReLU after the hidden Dense (layer 6): d_k = hidden.
  setup.monitor_layer = 6;

  Adam::Config adam_cfg;
  adam_cfg.learning_rate = cfg.learning_rate;
  Adam optimizer(setup.net.parameters(), setup.net.gradients(), adam_cfg);
  MSELoss loss;
  TrainConfig train_cfg;
  train_cfg.epochs = cfg.epochs;
  train_cfg.batch_size = 16;
  const auto history = train(setup.net, optimizer, loss, setup.train.inputs,
                             setup.train.targets, train_cfg, rng);
  setup.final_train_loss = history.back().mean_loss;
  return setup;
}

DigitLabSetup make_digit_setup(const DigitLabConfig& cfg) {
  Rng rng(cfg.seed);

  DigitLabSetup setup;
  setup.config = cfg;
  setup.train = make_digit_dataset(cfg.digit, DigitVariant::kNominal,
                                   cfg.train_samples, rng);
  setup.test = make_digit_dataset(cfg.digit, DigitVariant::kNominal,
                                  cfg.test_samples, rng);
  for (DigitVariant variant :
       {DigitVariant::kLetters, DigitVariant::kInverted,
        DigitVariant::kNoisy}) {
    Dataset ds =
        make_digit_dataset(cfg.digit, variant, cfg.ood_samples, rng);
    setup.ood.emplace_back(std::string(digit_variant_name(variant)),
                           std::move(ds.inputs));
  }

  setup.net = make_small_convnet(cfg.digit.size, cfg.digit.size,
                                 cfg.conv_channels, cfg.hidden,
                                 /*out=*/10, rng);
  setup.monitor_layer = 6;

  Adam::Config adam_cfg;
  adam_cfg.learning_rate = cfg.learning_rate;
  Adam optimizer(setup.net.parameters(), setup.net.gradients(), adam_cfg);
  SoftmaxCrossEntropyLoss loss;
  TrainConfig train_cfg;
  train_cfg.epochs = cfg.epochs;
  train_cfg.batch_size = 16;
  (void)train(setup.net, optimizer, loss, setup.train.inputs,
              setup.train.targets, train_cfg, rng);
  setup.accuracy =
      evaluate_accuracy(setup.net, setup.test.inputs, setup.test.targets);
  return setup;
}

FeatureBatch monitor_features(LabSetup& setup,
                              std::span<const Tensor> inputs) {
  return setup.net.forward_batch(setup.monitor_layer, inputs);
}

FeatureBatch monitor_features(DigitLabSetup& setup,
                              std::span<const Tensor> inputs) {
  return setup.net.forward_batch(setup.monitor_layer, inputs);
}

std::string_view monitor_family_name(MonitorFamily family) noexcept {
  switch (family) {
    case MonitorFamily::kMinMax:
      return "minmax";
    case MonitorFamily::kOnOff:
      return "onoff";
    case MonitorFamily::kInterval:
      return "interval";
  }
  return "unknown";
}

MonitorFamily parse_monitor_family(std::string_view name) {
  if (name == "minmax") return MonitorFamily::kMinMax;
  if (name == "onoff") return MonitorFamily::kOnOff;
  if (name == "interval") return MonitorFamily::kInterval;
  throw std::invalid_argument("unknown monitor type " + std::string(name));
}

std::unique_ptr<Monitor> make_monitor(const MonitorOptions& opts,
                                      const NeuronStats& stats) {
  const std::size_t dim = stats.dimension();
  const auto plan = [&] {
    return ShardPlan::make(opts.strategy, dim, opts.shards, opts.shard_seed);
  };
  std::unique_ptr<ShardedMonitor> monitor;
  if (opts.family == MonitorFamily::kMinMax) {
    if (opts.shards <= 1) return std::make_unique<MinMaxMonitor>(dim);
    monitor =
        std::make_unique<ShardedMonitor>(ShardedMonitor::minmax(plan()));
  } else {
    // On-off is the 1-bit interval monitor over mean thresholds. The
    // sharded factory slices the full-dimension spec per shard, so both
    // shapes see identical per-neuron thresholds.
    ThresholdSpec spec =
        opts.family == MonitorFamily::kOnOff
            ? ThresholdSpec::from_means(stats)
            : ThresholdSpec::from_percentiles(stats, opts.bits);
    if (opts.shards <= 1) {
      return std::make_unique<IntervalMonitor>(std::move(spec));
    }
    monitor = std::make_unique<ShardedMonitor>(
        ShardedMonitor::interval(plan(), spec));
  }
  monitor->set_threads(opts.threads);
  return monitor;
}

}  // namespace ranm
