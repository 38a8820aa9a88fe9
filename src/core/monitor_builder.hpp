// Monitor construction loops (paper §III-A / §III-B generic algorithms).
//
//   standard:  for v in Dtr:  M <- M ⊎  ab(G^k(v))
//   robust:    for v in Dtr:  M <- M ⊎R abR(pe^G_k(v, kp, Δ))
//
// The builder also owns the feature-extraction and statistics passes that
// threshold selection needs, and the operation-time query helper.
#pragma once

#include <span>
#include <vector>

#include "core/monitor.hpp"
#include "core/neuron_stats.hpp"
#include "core/perturbation_estimator.hpp"
#include "core/shard_plan.hpp"
#include "nn/network.hpp"

namespace ranm {

/// Builds monitors over a fixed (network, monitored layer) pair.
class MonitorBuilder {
 public:
  /// Requires 1 <= layer_k <= net.num_layers(). The network must outlive
  /// the builder.
  MonitorBuilder(const Network& net, std::size_t layer_k);

  [[nodiscard]] std::size_t layer_k() const noexcept { return k_; }
  /// Feature dimension d_k of the monitored layer.
  [[nodiscard]] std::size_t feature_dim() const;

  /// G^k(input) as a flat vector.
  [[nodiscard]] std::vector<float> features(const Tensor& input) const;

  /// G^k over a whole minibatch as a dim × n FeatureBatch — the batched
  /// feature-extraction entry point the query pipeline is built on.
  [[nodiscard]] FeatureBatch features_batch(
      std::span<const Tensor> inputs) const;

  /// Per-neuron statistics over a dataset (for threshold selection).
  [[nodiscard]] NeuronStats collect_stats(const std::vector<Tensor>& data,
                                          bool keep_samples = false) const;

  /// Partition of this layer's d_k neurons for a sharded monitor. The
  /// plan's dimension is feature_dim(); `seed` only matters for
  /// ShardStrategy::kShuffled.
  [[nodiscard]] ShardPlan shard_plan(
      std::size_t shards,
      ShardStrategy strategy = ShardStrategy::kContiguous,
      std::uint64_t seed = 0) const;

  /// Standard construction: folds ab(G^k(v)) for every v in data. Drives
  /// the batched observe path in chunks of `batch_size`: each chunk's
  /// features are extracted once into a FeatureBatch and handed to
  /// observe_batch — for a ShardedMonitor that call fans per-shard row
  /// views of the chunk out across its thread pool, so the shard-parallel
  /// build path is this same loop.
  void build_standard(Monitor& monitor, const std::vector<Tensor>& data,
                      std::size_t batch_size = kDefaultBatch) const;

  /// Robust construction: folds abR(pe(v, kp, Δ)) for every v in data.
  /// Each chunk's perturbation sets are propagated as one BoxBatch on
  /// the vectorized bound backend's batched kernels and handed to
  /// observe_bounds_batch (sharded monitors fan each chunk's bound views
  /// out per shard, as above).
  void build_robust(Monitor& monitor, const std::vector<Tensor>& data,
                    const PerturbationSpec& spec,
                    std::size_t batch_size = kDefaultBatch) const;

  /// Operation-time query: M(v_op) — true iff the monitor warns.
  [[nodiscard]] bool warns(const Monitor& monitor,
                           const Tensor& input) const;

  /// Batched operation-time query: out[i] = M(inputs[i]). One feature
  /// extraction pass plus one batched membership query. out.size() must
  /// equal inputs.size().
  void warns_batch(const Monitor& monitor, std::span<const Tensor> inputs,
                   std::span<bool> out) const;

  /// Chunk size used by the batched construction loops.
  static constexpr std::size_t kDefaultBatch = 256;

 private:
  const Network& net_;
  std::size_t k_;
};

}  // namespace ranm
