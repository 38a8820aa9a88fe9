#include "core/monitor_builder.hpp"

#include <algorithm>
#include <stdexcept>

namespace ranm {

MonitorBuilder::MonitorBuilder(const Network& net, std::size_t layer_k)
    : net_(net), k_(layer_k) {
  if (k_ == 0 || k_ > net.num_layers()) {
    throw std::invalid_argument("MonitorBuilder: layer k out of range");
  }
}

std::size_t MonitorBuilder::feature_dim() const {
  return net_.layer(k_).output_size();
}

std::vector<float> MonitorBuilder::features(const Tensor& input) const {
  const Tensor f = net_.forward_to(k_, input);
  return {f.data(), f.data() + f.numel()};
}

FeatureBatch MonitorBuilder::features_batch(
    std::span<const Tensor> inputs) const {
  return net_.forward_batch(k_, inputs);
}

ShardPlan MonitorBuilder::shard_plan(std::size_t shards,
                                     ShardStrategy strategy,
                                     std::uint64_t seed) const {
  return ShardPlan::make(strategy, feature_dim(), shards, seed);
}

NeuronStats MonitorBuilder::collect_stats(const std::vector<Tensor>& data,
                                          bool keep_samples) const {
  NeuronStats stats(feature_dim(), keep_samples);
  std::vector<float> scratch(feature_dim());
  for (std::size_t start = 0; start < data.size();
       start += kDefaultBatch) {
    const std::size_t n = std::min(kDefaultBatch, data.size() - start);
    const FeatureBatch batch =
        features_batch({data.data() + start, n});
    for (std::size_t i = 0; i < n; ++i) {
      batch.copy_sample(i, scratch);
      stats.add(scratch);
    }
  }
  return stats;
}

void MonitorBuilder::build_standard(Monitor& monitor,
                                    const std::vector<Tensor>& data,
                                    std::size_t batch_size) const {
  if (monitor.dimension() != feature_dim()) {
    throw std::invalid_argument(
        "MonitorBuilder::build_standard: monitor dimension mismatch");
  }
  if (batch_size == 0) {
    throw std::invalid_argument(
        "MonitorBuilder::build_standard: zero batch size");
  }
  for (std::size_t start = 0; start < data.size(); start += batch_size) {
    const std::size_t n = std::min(batch_size, data.size() - start);
    monitor.observe_batch(features_batch({data.data() + start, n}));
  }
}

void MonitorBuilder::build_robust(Monitor& monitor,
                                  const std::vector<Tensor>& data,
                                  const PerturbationSpec& spec,
                                  std::size_t batch_size) const {
  if (monitor.dimension() != feature_dim()) {
    throw std::invalid_argument(
        "MonitorBuilder::build_robust: monitor dimension mismatch");
  }
  if (batch_size == 0) {
    throw std::invalid_argument(
        "MonitorBuilder::build_robust: zero batch size");
  }
  const PerturbationEstimator pe(net_, k_, spec);
  for (std::size_t start = 0; start < data.size(); start += batch_size) {
    const std::size_t n = std::min(batch_size, data.size() - start);
    // Whole-minibatch bound propagation; the BoxBatch's lo/hi matrices
    // feed the batched observe path with no per-sample staging.
    const BoxBatch bounds = pe.estimate_batch({data.data() + start, n});
    monitor.observe_bounds_batch(bounds.lower(), bounds.upper());
  }
}

bool MonitorBuilder::warns(const Monitor& monitor,
                           const Tensor& input) const {
  return monitor.warn(features(input));
}

void MonitorBuilder::warns_batch(const Monitor& monitor,
                                 std::span<const Tensor> inputs,
                                 std::span<bool> out) const {
  if (out.size() != inputs.size()) {
    throw std::invalid_argument(
        "MonitorBuilder::warns_batch: output size does not match inputs");
  }
  monitor.warn_batch(features_batch(inputs), out);
}

}  // namespace ranm
