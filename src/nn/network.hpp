// Sequential feed-forward network G = g_n ∘ ... ∘ g_1 with the paper's
// layer-slicing operators: G^k (prefix up to layer k) and G^{l↪k}
// (layers l..k), plus abstract-domain propagation over any slice.
#pragma once

#include <memory>
#include <span>

#include "core/feature_batch.hpp"
#include "nn/layer.hpp"
#include "nn/loss.hpp"

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
  /// activations of every input as a dim × n FeatureBatch. Each block of
  /// up to 32 inputs is packed neuron-major (pack_neuron_major) and run
  /// through the steps of layers 1..k (step()) in reused per-thread
  /// scratch, the last writing into the result; column i is bit-identical
  /// to forward_to(k, inputs[i]). k = 0 packs the flattened inputs
  /// themselves. Throws std::invalid_argument, before any kernel runs, if
  /// any input has the wrong element count (for k = 0: a count other than
  /// the first input's).
  [[nodiscard]] FeatureBatch forward_batch(
      std::size_t k, std::span<const Tensor> inputs) const;
  /// Full-network minibatch pass: forward_batch(num_layers(), inputs).
  [[nodiscard]] FeatureBatch forward_batch(
      std::span<const Tensor> inputs) const;

  /// One kernel call of a batched pass (forward_batch,
  /// propagate_box_batch, train_step): layers first..last, 1-indexed. A
  /// Conv2D or Dense layer and the ReLU or LeakyReLU after it are one step
  /// (last = first + 1) whose affine kernel applies the activation before
  /// its outputs leave it. A Flatten layer is a view step: batches are
  /// already flat, so the pass relabels its rows and runs nothing.
  struct Step {
    std::size_t first = 0;
    std::size_t last = 0;
    bool view = false;
  };
  /// The step starting at layer `first` of a pass that ends at layer k
  /// (first <= k <= num_layers(), unchecked). A step never reaches past
  /// k, so the pass's result is layer k's own output: an affine layer k
  /// runs without the activation after it. The fusions are planned once,
  /// by add().
  [[nodiscard]] Step step(std::size_t first, std::size_t k) const noexcept;
  /// Runs a non-view step's kernel over n neuron-major samples: `in`
  /// holds layer first's input rows, `out` receives layer last's output
  /// rows. Bit-identical to running its layers' forward_batch in turn.
  void forward_step(const Step& s, const float* in, float* out,
                    std::size_t n) const noexcept;

  /// Runs the steps of layers l..k (1 <= l <= k <= num_layers(),
  /// unchecked) over n neuron-major samples held in `cur`, ping-ponging
  /// with `spare`; the last step writes `out` instead when it is not null.
  /// Returns the buffer holding layer k's output.
  float* forward_steps(std::size_t l, std::size_t k, float* cur, float* spare,
                       std::size_t n, float* out) const noexcept;

  /// One minibatch training step over inputs[rows[i]] and
  /// targets[rows[i]], i = 0..rows.size()-1. The rows are packed
  /// neuron-major and run through the steps of forward_batch, keeping
  /// every step's output; the loss is evaluated per sample in order, its
  /// value added to `loss_sum` and its gradient scaled by `grad_scale`;
  /// then each layer's backward_batch runs over the minibatch from the
  /// last layer down to the first one with parameters, which computes no
  /// input gradient. A fused step needs no pre-activations, since its
  /// activation's derivative reads the output (Activation). Adds each
  /// sample's parameter gradient to gradients(), sample after sample, so
  /// the result does not depend on how the samples are split into steps.
  /// Throws std::invalid_argument, before any gradient or `loss_sum`
  /// changes, if a row is out of range, an input has the wrong element
  /// count or the loss rejects a target.
  void train_step(std::span<const Tensor> inputs,
                  std::span<const Tensor> targets,
                  std::span<const std::size_t> rows, const Loss& loss,
                  float grad_scale, double& loss_sum);

  /// Sound box propagation through layers l..k (1 <= l <= k <= n) on the
  /// given bound backend's batched layer kernels, in the steps of
  /// forward_batch (step()). Column i of the result contains G^{l↪k}(x)
  /// for every x in column i of `in`, and is bit-identical to propagating
  /// that column alone, layer by layer. The batch dimension must equal
  /// layer l's input size. Blocks of samples ping-pong through reused
  /// per-thread scratch, bounded by one block times the widest layer, as
  /// in forward_batch.
  [[nodiscard]] BoxBatch propagate_box_batch(std::size_t l, std::size_t k,
                                             const BoxBatch& in,
                                             const BoundBackend& backend) const;
  /// The box perturbation estimate of Definition 1 for every input: the
  /// bounds at layer k of the L-infinity ball of radius `delta` around
  /// G^kp(inputs[i]), 0 <= kp < k <= n. Bit-identical to
  /// propagate_box_batch(kp + 1, k, BoxBatch::linf_ball(forward_batch(kp,
  /// inputs), delta), backend), but each block of 32 inputs goes from its
  /// pack (kp = 0) or its concrete prefix straight into its ball in the
  /// scratch, with no batch-wide copy in between. Throws
  /// std::invalid_argument on a bad layer range, a delta that is not
  /// finite and >= 0, or an input of the wrong element count.
  [[nodiscard]] BoxBatch propagate_ball_batch(
      std::size_t kp, std::size_t k, std::span<const Tensor> inputs,
      float delta, const BoundBackend& backend) const;
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
  /// What add() records about each layer for the passes' steps.
  struct LayerPlan {
    const AffineLayer* affine = nullptr;  // Conv2D or Dense
    Epilogue next;  // the ReLU/LeakyReLU after an affine layer, if any
    bool view = false;  // Flatten
  };

  void check_layer_index(std::size_t k, const char* what) const;
  /// The box counterpart of forward_steps: `cur` holds layer l's input
  /// bounds (the caller's batch or one of the two scratch batches), each
  /// step writes the scratch batch `cur` is not, or `out`, and the batch
  /// holding layer k's bounds is returned.
  const BoxBatch* propagate_steps(std::size_t l, std::size_t k,
                                  const BoxBatch* cur, BoxBatch (&scratch)[2],
                                  BoxBatch* out,
                                  const BoundBackend& backend) const;

  std::vector<std::unique_ptr<Layer>> layers_;
  std::vector<LayerPlan> plan_;  // one per layer
};

/// Element j of inputs[i] to out[j * stride + i]: the neuron-major pack
/// that starts every block of forward_batch, a transpose in blocks of 16
/// elements so that the rows a block writes stay in L1 while each input
/// adds its run to them. Every input must have `dim` elements (unchecked).
void pack_neuron_major(std::span<const Tensor> inputs, std::size_t dim,
                       std::size_t stride, float* out) noexcept;

}  // namespace ranm
