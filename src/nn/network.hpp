// Sequential feed-forward network G = g_n ∘ ... ∘ g_1 with the paper's
// layer-slicing operators: G^k (prefix up to layer k) and G^{l↪k}
// (layers l..k), plus abstract-domain propagation over any slice.
#pragma once

#include <memory>
#include <span>

#include "core/feature_batch.hpp"
#include "nn/layer.hpp"

namespace ranm {

/// Owns an ordered list of layers. Layer indices follow the paper:
/// layers are numbered 1..n, G^0 is the identity (the input itself).
/// Every const member is reentrant: one trained network serves any number
/// of concurrent inference threads.
class Network {
 public:
  Network() = default;
  Network(Network&&) noexcept = default;
  Network& operator=(Network&&) noexcept = default;
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Appends a layer; its input shape must match the current output shape.
  void add(std::unique_ptr<Layer> layer);

  /// Constructs a layer in place and appends it.
  template <typename L, typename... Args>
  L& emplace(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    add(std::move(layer));
    return ref;
  }

  [[nodiscard]] std::size_t num_layers() const noexcept {
    return layers_.size();
  }
  /// Layer k, 1-indexed as in the paper.
  [[nodiscard]] Layer& layer(std::size_t k);
  [[nodiscard]] const Layer& layer(std::size_t k) const;

  [[nodiscard]] Shape input_shape() const;
  [[nodiscard]] Shape output_shape() const;

  /// Full forward pass G(x).
  [[nodiscard]] Tensor forward(const Tensor& x) const;
  /// Prefix G^k(x): layers 1..k. k = 0 returns x unchanged.
  [[nodiscard]] Tensor forward_to(std::size_t k, const Tensor& x) const;
  /// Slice G^{l↪k}(x): layers l..k, 1 <= l <= k <= n. The input must have
  /// the shape expected by layer l.
  [[nodiscard]] Tensor forward_range(std::size_t l, std::size_t k,
                                     const Tensor& x) const;

  /// Batched feature extraction G^k over a minibatch: the layer-k
  /// activations of every input as a dim × n FeatureBatch. The inputs are
  /// packed neuron-major once, run through each layer's batch kernel in
  /// reused per-thread scratch, and layer k writes into the result; column
  /// i is bit-identical to forward_to(k, inputs[i]). k = 0 packs the
  /// flattened inputs themselves. Throws std::invalid_argument, before any
  /// kernel runs, if any input has the wrong element count (for k = 0: a
  /// count other than the first input's).
  [[nodiscard]] FeatureBatch forward_batch(
      std::size_t k, std::span<const Tensor> inputs) const;
  /// Full-network minibatch pass: forward_batch(num_layers(), inputs).
  [[nodiscard]] FeatureBatch forward_batch(
      std::span<const Tensor> inputs) const;

  /// Full forward pass keeping every activation for backward():
  /// acts[0] = x and acts[i] = G^i(x), so acts.back() = G(x). The caller
  /// owns `acts` (training keeps one list per step).
  void forward_trace(const Tensor& x, std::vector<Tensor>& acts) const;

  /// Backward pass through all layers over the activations forward_trace
  /// recorded for one sample; accumulates parameter gradients and returns
  /// the gradient w.r.t. the input.
  [[nodiscard]] Tensor backward(std::span<const Tensor> acts,
                                const Tensor& grad_out);

  /// Sound box propagation through layers l..k (1 <= l <= k <= n) on the
  /// given bound backend's batched layer kernels. Column i of the result
  /// contains G^{l↪k}(x) for every x in column i of `in`, and is
  /// bit-identical to propagating that column alone. The batch dimension
  /// must equal layer l's input size. Blocks of samples ping-pong through
  /// reused per-thread scratch, bounded by one block times the widest
  /// layer, as in forward_batch.
  [[nodiscard]] BoxBatch propagate_box_batch(std::size_t l, std::size_t k,
                                             const BoxBatch& in,
                                             const BoundBackend& backend) const;
  /// Sound zonotope propagation through layers l..k.
  [[nodiscard]] Zonotope propagate_zonotope(std::size_t l, std::size_t k,
                                            const Zonotope& in) const;

  /// All trainable parameters / gradients across layers.
  [[nodiscard]] std::vector<Tensor*> parameters();
  [[nodiscard]] std::vector<Tensor*> gradients();
  /// Total trainable scalar count.
  [[nodiscard]] std::size_t num_parameters();
  /// Sets all gradient accumulators to zero.
  void zero_gradients();
  /// He/Xavier-initialises every layer from the given generator.
  void init_params(Rng& rng);

  /// One line per layer.
  [[nodiscard]] std::string summary() const;

 private:
  void check_layer_index(std::size_t k, const char* what) const;

  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace ranm
