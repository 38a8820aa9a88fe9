// Elementwise activation layers: ReLU, LeakyReLU, Sigmoid, Tanh.
#pragma once

#include "nn/layer.hpp"
#include "util/epilogue.hpp"

namespace ranm {

/// Common base for shape-preserving elementwise activations. Each final
/// activation's forward kernel and backward pass are loops of their own
/// over its expression, so no element pays for a virtual call.
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

  /// The backward pass of an activation whose derivative at input v with
  /// output y = f(v) is d(v, y): grad_out[i] * d(x[i], y[i]) for every
  /// element. Throws std::invalid_argument on a size mismatch.
  template <typename D>
  [[nodiscard]] Tensor scale_gradient(const Tensor& x, const Tensor& y,
                                      const Tensor& grad_out, D d) const {
    check_gradient_sizes(x, y, grad_out);
    Tensor g = grad_out;
    const float* xv = x.data();
    const float* yv = y.data();
    float* gv = g.data();
    for (std::size_t i = 0; i < g.numel(); ++i) gv[i] *= d(xv[i], yv[i]);
    return g;
  }

  Shape shape_;
  std::size_t numel_;

 private:
  void check_gradient_sizes(const Tensor& x, const Tensor& y,
                            const Tensor& grad_out) const;
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
  [[nodiscard]] Tensor backward(const Tensor& x, const Tensor& y,
                                const Tensor& grad_out) override;
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
  [[nodiscard]] Tensor backward(const Tensor& x, const Tensor& y,
                                const Tensor& grad_out) override;
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
  [[nodiscard]] Tensor backward(const Tensor& x, const Tensor& y,
                                const Tensor& grad_out) override;
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
  [[nodiscard]] Tensor backward(const Tensor& x, const Tensor& y,
                                const Tensor& grad_out) override;
  [[nodiscard]] Zonotope propagate(const Zonotope& in) const override;
  void propagate_batch(const BoundBackend& backend, const BoxBatch& in,
                       BoxBatch& out) const override;
};

}  // namespace ranm
