#include "nn/trainer.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <stdexcept>

#include "nn/optimizer.hpp"

namespace ranm {

std::vector<EpochStats> train(Network& net, Optimizer& optimizer,
                              const Loss& loss,
                              const std::vector<Tensor>& inputs,
                              const std::vector<Tensor>& targets,
                              const TrainConfig& cfg, Rng& rng) {
  if (inputs.size() != targets.size()) {
    throw std::invalid_argument("train: inputs/targets size mismatch");
  }
  if (inputs.empty()) throw std::invalid_argument("train: empty dataset");
  if (cfg.batch_size == 0) {
    throw std::invalid_argument("train: zero batch size");
  }

  std::vector<EpochStats> history;
  history.reserve(cfg.epochs);
  const float grad_scale = 1.0F / static_cast<float>(cfg.batch_size);
  for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    const auto order = rng.permutation(inputs.size());
    double epoch_loss = 0.0;
    net.zero_gradients();
    for (std::size_t pos = 0; pos < order.size(); pos += cfg.batch_size) {
      const std::size_t n = std::min(cfg.batch_size, order.size() - pos);
      net.train_step(inputs, targets, std::span(order).subspan(pos, n), loss,
                     grad_scale, epoch_loss);
      optimizer.step();  // also zeroes the gradient accumulators
    }
    EpochStats stats;
    stats.epoch = epoch;
    stats.mean_loss =
        static_cast<float>(epoch_loss / double(inputs.size()));
    if (cfg.on_epoch) cfg.on_epoch(stats);
    history.push_back(stats);
  }
  return history;
}

float evaluate_loss(const Network& net, const Loss& loss,
                    const std::vector<Tensor>& inputs,
                    const std::vector<Tensor>& targets) {
  if (inputs.size() != targets.size() || inputs.empty()) {
    throw std::invalid_argument("evaluate_loss: bad dataset");
  }
  double acc = 0.0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    acc += loss.evaluate(net.forward(inputs[i]), targets[i]).value;
  }
  return static_cast<float>(acc / double(inputs.size()));
}

float evaluate_accuracy(const Network& net, const std::vector<Tensor>& inputs,
                        const std::vector<Tensor>& targets) {
  if (inputs.size() != targets.size() || inputs.empty()) {
    throw std::invalid_argument("evaluate_accuracy: bad dataset");
  }
  // Batched forward pass; argmax runs class-major over the batch rows.
  constexpr std::size_t kChunk = 256;
  std::size_t correct = 0;
  std::vector<float> best;
  std::vector<std::size_t> best_idx;
  for (std::size_t start = 0; start < inputs.size(); start += kChunk) {
    const std::size_t n = std::min(kChunk, inputs.size() - start);
    const FeatureBatch preds =
        net.forward_batch({inputs.data() + start, n});
    best.assign(n, -std::numeric_limits<float>::infinity());
    best_idx.assign(n, 0);
    for (std::size_t c = 0; c < preds.dimension(); ++c) {
      const auto row = preds.neuron(c);
      for (std::size_t i = 0; i < n; ++i) {
        if (row[i] > best[i]) {
          best[i] = row[i];
          best_idx[i] = c;
        }
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (best_idx[i] == static_cast<std::size_t>(targets[start + i][0])) {
        ++correct;
      }
    }
  }
  return static_cast<float>(correct) / static_cast<float>(inputs.size());
}

}  // namespace ranm
