// Layer abstraction for the feed-forward DNN substrate.
//
// The paper models a trained DNN as G = g_n ∘ ... ∘ g_1 with fixed
// parameters. Each Layer here is one g_k. Every layer implements one
// concrete forward kernel and one backward kernel (for training) over a
// neuron-major batch, and two *abstract transformers* — a batched one for
// the interval (box) domain, run on a BoundBackend's kernels, and one for
// the zonotope domain, which the affine layers run on those same two
// kernels (a zonotope's generators are a neuron-major batch) — which is
// what lets the monitor construction compute the perturbation estimate of
// Definition 1 with either bound engine.
//
// Layers fix their input shape at construction time so that the kernels
// and abstract transformers can operate on flat vectors (row-major CHW
// order for convolutional layers).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "absint/bound_backend.hpp"
#include "absint/zonotope.hpp"
#include "tensor/tensor.hpp"
#include "util/epilogue.hpp"

namespace ranm {

class Rng;

/// One transformation g_k of the network. Inference is const and
/// reentrant: the forward kernel, the abstract transformers and the shape
/// queries keep no per-call state, so any number of threads may share one
/// layer.
/// Only training mutates it — backward_batch() accumulates parameter
/// gradients and the optimiser updates parameters().
class Layer {
 public:
  virtual ~Layer() = default;

  /// Short human-readable identifier, e.g. "Dense(64->32)".
  [[nodiscard]] virtual std::string name() const = 0;

  /// Shape of the input this layer was constructed for.
  [[nodiscard]] virtual Shape input_shape() const = 0;
  /// Shape this layer produces.
  [[nodiscard]] virtual Shape output_shape() const = 0;
  /// Flattened input dimension.
  [[nodiscard]] std::size_t input_size() const {
    return shape_numel(input_shape());
  }
  /// Flattened output dimension.
  [[nodiscard]] std::size_t output_size() const {
    return shape_numel(output_shape());
  }

  /// Concrete forward kernel over a neuron-major batch of n samples, the
  /// FeatureBatch/BoxBatch layout with the batch index innermost: `in`
  /// holds input_size() rows of n values (row j = input neuron j of every
  /// sample) and every element of `out`'s output_size() rows of n is
  /// written. The buffers must not overlap. Each column gets exactly the
  /// arithmetic of a one-sample pass (a dot product accumulates in double
  /// in a fixed tap order, is cast to float, then the float bias is
  /// added), so a sample's activations do not depend on the batch it
  /// rides in. Unchecked: the caller validates the buffer sizes.
  virtual void forward_batch(const float* in, float* out,
                             std::size_t n) const noexcept = 0;

  /// Concrete forward pass of one sample: the one-column case of
  /// forward_batch. At n = 1 the neuron-major layout is the flat tensor,
  /// so Conv2D and MaxPool2D vectorise across the sample's own outputs
  /// along each row (util/tile.hpp), with the bits of its column in any
  /// batch. Throws std::invalid_argument unless x has input_size()
  /// elements; the result has output_shape().
  [[nodiscard]] Tensor forward(const Tensor& x) const;

  /// Backward kernel over n neuron-major samples, the layout of
  /// forward_batch: `x` holds the input rows of a forward_batch call, `y`
  /// its output rows, and `grad_out` the gradient of the loss w.r.t. those
  /// outputs (output_size() rows of n). Adds every sample's parameter
  /// gradient to gradients(), and unless `grad_in` is null writes the
  /// gradient w.r.t. the inputs to its input_size() rows of n; a null
  /// `grad_in` computes no input gradient at all. The activations read
  /// only `y` (each derivative is a function of the output) and the other
  /// layers only `x`, so the one a layer does not read may be null.
  ///
  /// The bits do not depend on the batch: each parameter-gradient element
  /// adds its per-sample terms in sample order, and each sample's terms in
  /// the layer's own fixed order, so one call over n samples equals n
  /// one-sample calls in sample order. Unchecked: the caller validates the
  /// buffer sizes, and the buffers must not overlap.
  virtual void backward_batch(const float* x, const float* y,
                              const float* grad_out, float* grad_in,
                              std::size_t n) = 0;

  /// Sound zonotope transfer function.
  [[nodiscard]] virtual Zonotope propagate(const Zonotope& in) const = 0;

  /// Sound interval transfer function, the only one: column i of `out`
  /// contains g_k(x) for every x in column i of `in`. `out` is reshaped to
  /// output_size() × in.size() (its allocation kept, see
  /// BoxBatch::reshape) and every bound written; `in` and `out` must be
  /// distinct batches. Each layer maps it onto one of the backend's
  /// batched kernels; a single box is a one-column batch.
  virtual void propagate_batch(const BoundBackend& backend,
                               const BoxBatch& in, BoxBatch& out) const = 0;

  /// Trainable parameter tensors (empty for stateless layers).
  [[nodiscard]] virtual std::vector<Tensor*> parameters() { return {}; }
  /// Gradient accumulators matching parameters() element-wise.
  [[nodiscard]] virtual std::vector<Tensor*> gradients() { return {}; }

  /// Re-randomises parameters with a scheme appropriate for the layer
  /// (He-normal for ReLU-family weight layers). No-op if parameterless.
  virtual void init_params(Rng& /*rng*/) {}
};

/// A layer whose kernels can apply the activation after it to their
/// outputs before those leave the kernel: Conv2D and Dense. Network runs
/// such a layer and the ReLU or LeakyReLU after it as one step; the plain
/// forward_batch and propagate_batch are that step with the identity
/// epilogue, so there is one kernel per layer either way.
class AffineLayer : public Layer {
 public:
  void forward_batch(const float* in, float* out,
                     std::size_t n) const noexcept final {
    forward_fused(in, out, n, {});
  }
  void propagate_batch(const BoundBackend& backend, const BoxBatch& in,
                       BoxBatch& out) const final {
    propagate_fused(backend, in, out, {});
  }

  /// forward_batch followed by `ep` on every output: the bits of this
  /// layer's forward_batch and then the activation layer's.
  virtual void forward_fused(const float* in, float* out, std::size_t n,
                             const Epilogue& ep) const noexcept = 0;
  /// propagate_batch followed by `ep`'s box transfer, with the bits of
  /// the two-layer chain on the same backend.
  virtual void propagate_fused(const BoundBackend& backend, const BoxBatch& in,
                               BoxBatch& out, const Epilogue& ep) const = 0;
};

}  // namespace ranm
