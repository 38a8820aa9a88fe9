// Mini-batch training loop over (input, target) tensor pairs.
#pragma once

#include <functional>
#include <vector>

#include "nn/loss.hpp"
#include "nn/network.hpp"
#include "nn/optimizer.hpp"
#include "util/rng.hpp"

namespace ranm {

/// Per-epoch training statistics.
struct EpochStats {
  std::size_t epoch = 0;
  float mean_loss = 0.0F;
};

/// Configuration of a training run.
struct TrainConfig {
  std::size_t epochs = 10;
  std::size_t batch_size = 16;
  /// Called after each epoch (e.g. for logging); may be empty.
  std::function<void(const EpochStats&)> on_epoch;
};

/// Trains `net` in place. `inputs` and `targets` must have equal length.
/// Each epoch shuffles the samples and runs one Network::train_step per
/// mini-batch of cfg.batch_size (the last may be shorter), its gradients
/// scaled by 1 / cfg.batch_size, then steps the optimiser. Returns
/// per-epoch statistics.
std::vector<EpochStats> train(Network& net, Optimizer& optimizer,
                              const Loss& loss,
                              const std::vector<Tensor>& inputs,
                              const std::vector<Tensor>& targets,
                              const TrainConfig& cfg, Rng& rng);

/// Mean loss of `net` over a dataset (no parameter updates).
float evaluate_loss(const Network& net, const Loss& loss,
                    const std::vector<Tensor>& inputs,
                    const std::vector<Tensor>& targets);

/// Classification accuracy in [0, 1]: argmax(prediction) vs target[0].
float evaluate_accuracy(const Network& net, const std::vector<Tensor>& inputs,
                        const std::vector<Tensor>& targets);

}  // namespace ranm
