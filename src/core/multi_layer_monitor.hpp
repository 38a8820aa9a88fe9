// Multi-layer monitoring — "extensions such as configuring to multi-layer
// monitoring ... are straightforward" (paper §III-A). Several monitors,
// each bound to a (layer, neuron-subset) pair, watch one network; the
// combined warning is a configurable vote. Construction shares a single
// forward pass (standard) or a single abstract propagation (robust) per
// training input across all attached monitors.
#pragma once

#include <memory>
#include <span>

#include "core/monitor.hpp"
#include "core/neuron_selection.hpp"
#include "core/perturbation_estimator.hpp"
#include "nn/network.hpp"

namespace ranm {

/// How per-layer warnings combine into the overall signal.
enum class WarnPolicy {
  kAny,       // warn if any attached monitor warns (most sensitive)
  kAll,       // warn only if every attached monitor warns (fewest FPs)
  kMajority,  // warn if more than half of the monitors warn
};

[[nodiscard]] std::string_view warn_policy_name(WarnPolicy policy) noexcept;

/// A set of monitors attached to different layers / neuron subsets of one
/// network. The network reference must outlive the MultiLayerMonitor.
class MultiLayerMonitor {
 public:
  MultiLayerMonitor(const Network& net, WarnPolicy policy);

  /// Attaches `monitor` to layer `layer_k` (1-indexed) restricted to the
  /// neurons in `selection`. The monitor's dimension must equal
  /// selection.output_dim(), and selection.input_dim() must equal the
  /// layer's output size.
  void attach(std::size_t layer_k, NeuronSelection selection,
              std::unique_ptr<Monitor> monitor);

  [[nodiscard]] std::size_t num_attached() const noexcept {
    return entries_.size();
  }
  [[nodiscard]] const Monitor& monitor(std::size_t i) const;
  [[nodiscard]] Monitor& monitor(std::size_t i);
  [[nodiscard]] std::size_t layer_of(std::size_t i) const;
  [[nodiscard]] WarnPolicy policy() const noexcept { return policy_; }

  /// Standard construction: one layer-by-layer batched pass per chunk of
  /// `batch_size` inputs feeds every attached monitor through its batched
  /// observe path.
  void build_standard(const std::vector<Tensor>& data,
                      std::size_t batch_size = kDefaultBatch);

  /// Robust construction: each chunk's Δ-balls at layer spec.kp
  /// propagated to every attached layer in turn (box: the whole chunk as
  /// one batch; zonotope: one zonotope per input, whose generators are the
  /// batch the affine kernels run), with the bounds folded into each
  /// attached monitor in batched chunks.
  /// Requires spec.kp < the smallest attached layer.
  void build_robust(const std::vector<Tensor>& data,
                    const PerturbationSpec& spec,
                    std::size_t batch_size = kDefaultBatch);

  /// Combined operation-time warning under the vote policy.
  [[nodiscard]] bool warns(const Tensor& input) const;
  /// Per-monitor warnings for diagnosis (index-aligned with attach order).
  [[nodiscard]] std::vector<bool> warns_each(const Tensor& input) const;

  /// Batched combined warning: out[i] = warns(inputs[i]), computed with
  /// one forward pass of the whole batch through the shared layer prefix
  /// and one batched membership query per attached monitor. out.size()
  /// must equal inputs.size().
  void warns_batch(std::span<const Tensor> inputs,
                   std::span<bool> out) const;

  /// Chunk size used by the batched construction loops.
  static constexpr std::size_t kDefaultBatch = 256;

 private:
  struct Entry {
    std::size_t layer_k;
    NeuronSelection selection;
    std::unique_ptr<Monitor> monitor;
  };

  [[nodiscard]] bool combine(const std::vector<bool>& votes) const;
  /// Runs one forward pass, invoking `visit(entry, features)` at each
  /// attached layer.
  template <typename Visit>
  void for_each_layer_features(const Tensor& input, Visit&& visit) const;
  /// Runs one batched forward pass over `inputs` in blocks of 32 samples,
  /// the network's fused steps in segments that end at each attached
  /// layer, then invokes `visit(entry, batch)` with each entry's
  /// selection-projected dim × n FeatureBatch.
  template <typename Visit>
  void for_each_layer_features_batch(std::span<const Tensor> inputs,
                                     Visit&& visit) const;

  const Network& net_;
  WarnPolicy policy_;
  std::vector<Entry> entries_;
  std::size_t max_layer_ = 0;
};

}  // namespace ranm
