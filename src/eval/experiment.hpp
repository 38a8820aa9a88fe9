// Reusable experiment setups shared by benches, examples, and integration
// tests: the race-track lab setting of §IV (waypoint regression network,
// in-ODD test split, out-of-ODD scenario sets) and a seven-segment digit
// classification analogue.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>

#include "core/monitor.hpp"
#include "core/neuron_stats.hpp"
#include "core/shard_plan.hpp"
#include "data/digits.hpp"
#include "data/racetrack.hpp"
#include "nn/network.hpp"

namespace ranm {

/// Parameters of the lab reproduction. Defaults train in a few seconds and
/// produce FP rates in the sub-percent regime the paper reports.
struct LabConfig {
  std::size_t train_samples = 600;
  std::size_t test_samples = 1600;  // in-ODD held-out split
  std::size_t ood_samples = 200;    // per departure scenario
  std::size_t epochs = 6;
  std::size_t conv_channels = 6;
  std::size_t hidden = 32;
  float learning_rate = 5e-3F;
  std::uint64_t seed = 42;
  RacetrackConfig track;
};

/// Everything a monitoring experiment needs: a trained waypoint network,
/// the training inputs that define the abstraction, an in-ODD test split,
/// and per-scenario out-of-ODD sets.
struct LabSetup {
  LabConfig config;
  Network net;
  /// Monitored layer k: the ReLU after the hidden Dense (the paper's
  /// "close-to-output layer" of high-level features).
  std::size_t monitor_layer = 0;
  float final_train_loss = 0.0F;
  Dataset train;
  Dataset test;
  std::vector<std::pair<std::string, std::vector<Tensor>>> ood;
};

/// Generates data, trains the waypoint regressor, renders the OOD sets.
[[nodiscard]] LabSetup make_lab_setup(const LabConfig& cfg);

/// Parameters of the digit classification setup.
struct DigitLabConfig {
  std::size_t train_samples = 800;
  std::size_t test_samples = 1000;
  std::size_t ood_samples = 250;  // per variant
  std::size_t epochs = 8;
  std::size_t conv_channels = 6;
  std::size_t hidden = 32;
  float learning_rate = 1e-2F;
  std::uint64_t seed = 7;
  DigitConfig digit;
};

/// Digit analogue of LabSetup; `accuracy` is held-out test accuracy.
struct DigitLabSetup {
  DigitLabConfig config;
  Network net;
  std::size_t monitor_layer = 0;
  float accuracy = 0.0F;
  Dataset train;
  Dataset test;
  std::vector<std::pair<std::string, std::vector<Tensor>>> ood;
};

[[nodiscard]] DigitLabSetup make_digit_setup(const DigitLabConfig& cfg);

/// Monitored-layer features of `inputs` under the setup's network as a
/// dim × n FeatureBatch — the batch-first entry point benches and examples
/// feed straight into Monitor::contains_batch.
[[nodiscard]] FeatureBatch monitor_features(LabSetup& setup,
                                            std::span<const Tensor> inputs);
[[nodiscard]] FeatureBatch monitor_features(DigitLabSetup& setup,
                                            std::span<const Tensor> inputs);

// ---- monitor zoo ----------------------------------------------------------

/// Deployable monitor families shared by the CLI, benches, and examples.
/// A family names a threshold policy, not a class: kOnOff is the 1-bit
/// IntervalMonitor over mean thresholds (ThresholdSpec::from_means) and
/// kInterval the B-bit one over percentile thresholds.
enum class MonitorFamily { kMinMax, kOnOff, kInterval };

[[nodiscard]] std::string_view monitor_family_name(
    MonitorFamily family) noexcept;
/// Parses "minmax" | "onoff" | "interval"; throws std::invalid_argument.
[[nodiscard]] MonitorFamily parse_monitor_family(std::string_view name);

/// One knob set for "which monitor should watch this layer": family plus
/// the sharding/threading shape. This is what `ranm build --type ...
/// --shards N --threads T` parses into.
struct MonitorOptions {
  MonitorFamily family = MonitorFamily::kInterval;
  std::size_t bits = 2;      // interval family code width
  std::size_t shards = 1;    // 1 = plain single-manager monitor
  std::size_t threads = 1;   // shard-level parallelism (sharded only)
  ShardStrategy strategy = ShardStrategy::kContiguous;
  std::uint64_t shard_seed = 0;  // kShuffled partition seed
};

/// Builds an empty monitor per `opts`, selecting thresholds from the
/// per-neuron statistics (which must have been collected with
/// keep_samples for the interval family). shards == 1 returns the plain
/// monitor; shards > 1 returns a ShardedMonitor with `threads` lanes.
[[nodiscard]] std::unique_ptr<Monitor> make_monitor(
    const MonitorOptions& opts, const NeuronStats& stats);

}  // namespace ranm
