// Elementwise activation layers: ReLU, LeakyReLU, Sigmoid, Tanh.
#pragma once

#include "nn/layer.hpp"
#include "util/epilogue.hpp"

namespace ranm {

/// Common base for shape-preserving elementwise activations. Each final
/// activation's forward kernel and backward kernel are loops of their own
/// over its expression, so no element pays for a virtual call. The
/// backward kernel reads the derivative off the output y alone: ReLU's
/// relu(v) > 0 and LeakyReLU's max(v, αv) > 0 both hold exactly when
/// v > 0 (NaN and ±0 included, util/epilogue.hpp), and Sigmoid's and
/// Tanh's derivatives are functions of y, so a fused affine step, which
/// keeps no pre-activations, can be differentiated.
class Activation : public Layer {
 public:
  explicit Activation(Shape shape);
  [[nodiscard]] Shape input_shape() const override { return shape_; }
  [[nodiscard]] Shape output_shape() const override { return shape_; }

 protected:
  /// out[i] = fn(in[i]) over all n samples of the batch.
  template <typename Fn>
  void map(const float* in, float* out, std::size_t n, Fn fn) const noexcept {
    const std::size_t count = n * numel_;
    for (std::size_t i = 0; i < count; ++i) out[i] = fn(in[i]);
  }

  Shape shape_;
  std::size_t numel_;
};

/// Rectified linear unit: max(0, x).
class ReLU final : public Activation {
 public:
  explicit ReLU(Shape shape) : Activation(std::move(shape)) {}
  [[nodiscard]] std::string name() const override { return "ReLU"; }
  /// This activation as the epilogue of the affine step before it.
  [[nodiscard]] static Epilogue epilogue() noexcept {
    return {Epilogue::Kind::kRelu};
  }
  void forward_batch(const float* in, float* out,
                     std::size_t n) const noexcept override;
  void backward_batch(const float* x, const float* y, const float* grad_out,
                      float* grad_in, std::size_t n) override;
  [[nodiscard]] Zonotope propagate(const Zonotope& in) const override;
  void propagate_batch(const BoundBackend& backend, const BoxBatch& in,
                       BoxBatch& out) const override;
};

/// Leaky rectified linear unit: x > 0 ? x : alpha * x.
class LeakyReLU final : public Activation {
 public:
  LeakyReLU(Shape shape, float alpha = 0.01F);
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] float alpha() const noexcept { return alpha_; }
  /// This activation as the epilogue of the affine step before it.
  [[nodiscard]] Epilogue epilogue() const noexcept {
    return {Epilogue::Kind::kLeakyRelu, alpha_};
  }
  void forward_batch(const float* in, float* out,
                     std::size_t n) const noexcept override;
  void backward_batch(const float* x, const float* y, const float* grad_out,
                      float* grad_in, std::size_t n) override;
  [[nodiscard]] Zonotope propagate(const Zonotope& in) const override;
  void propagate_batch(const BoundBackend& backend, const BoxBatch& in,
                       BoxBatch& out) const override;

 private:
  float alpha_;
};

/// Logistic sigmoid: 1 / (1 + exp(-x)).
class Sigmoid final : public Activation {
 public:
  explicit Sigmoid(Shape shape) : Activation(std::move(shape)) {}
  [[nodiscard]] std::string name() const override { return "Sigmoid"; }
  void forward_batch(const float* in, float* out,
                     std::size_t n) const noexcept override;
  void backward_batch(const float* x, const float* y, const float* grad_out,
                      float* grad_in, std::size_t n) override;
  [[nodiscard]] Zonotope propagate(const Zonotope& in) const override;
  void propagate_batch(const BoundBackend& backend, const BoxBatch& in,
                       BoxBatch& out) const override;
};

/// Hyperbolic tangent.
class Tanh final : public Activation {
 public:
  explicit Tanh(Shape shape) : Activation(std::move(shape)) {}
  [[nodiscard]] std::string name() const override { return "Tanh"; }
  void forward_batch(const float* in, float* out,
                     std::size_t n) const noexcept override;
  void backward_batch(const float* x, const float* y, const float* grad_out,
                      float* grad_in, std::size_t n) override;
  [[nodiscard]] Zonotope propagate(const Zonotope& in) const override;
  void propagate_batch(const BoundBackend& backend, const BoxBatch& in,
                       BoxBatch& out) const override;
};

}  // namespace ranm
