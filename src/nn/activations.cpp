#include "nn/activations.hpp"

#include <cmath>
#include <stdexcept>

namespace ranm {

Activation::Activation(Shape shape) : shape_(std::move(shape)) {
  if (shape_numel(shape_) == 0) {
    throw std::invalid_argument("Activation: empty shape");
  }
}

Tensor Activation::forward(const Tensor& x) const {
  if (x.numel() != shape_numel(shape_)) {
    throw std::invalid_argument(name() + ": input size mismatch");
  }
  Tensor y = x;
  for (std::size_t i = 0; i < y.numel(); ++i) y[i] = f(y[i]);
  return y;
}

Tensor Activation::backward(const Tensor& x, const Tensor& y,
                            const Tensor& grad_out) {
  if (grad_out.numel() != x.numel() || y.numel() != x.numel()) {
    throw std::invalid_argument(name() + ": gradient size mismatch");
  }
  Tensor g = grad_out;
  for (std::size_t i = 0; i < g.numel(); ++i) g[i] *= df(x[i], y[i]);
  return g;
}

// ---- ReLU -----------------------------------------------------------------

float ReLU::f(float v) const noexcept { return v > 0.0F ? v : 0.0F; }
float ReLU::df(float v, float /*y*/) const noexcept {
  return v > 0.0F ? 1.0F : 0.0F;
}

Zonotope ReLU::propagate(const Zonotope& in) const { return in.relu(); }

BoxBatch ReLU::propagate_batch(const BoundBackend& backend,
                               const BoxBatch& in) const {
  return backend.relu(in);
}

// ---- LeakyReLU ------------------------------------------------------------

LeakyReLU::LeakyReLU(Shape shape, float alpha)
    : Activation(std::move(shape)), alpha_(alpha) {
  if (alpha < 0.0F || alpha >= 1.0F) {
    throw std::invalid_argument("LeakyReLU: alpha must be in [0, 1)");
  }
}

std::string LeakyReLU::name() const {
  return "LeakyReLU(" + std::to_string(alpha_) + ")";
}

float LeakyReLU::f(float v) const noexcept {
  return v > 0.0F ? v : alpha_ * v;
}
float LeakyReLU::df(float v, float /*y*/) const noexcept {
  return v > 0.0F ? 1.0F : alpha_;
}

Zonotope LeakyReLU::propagate(const Zonotope& in) const {
  return in.leaky_relu(alpha_);
}

BoxBatch LeakyReLU::propagate_batch(const BoundBackend& backend,
                                    const BoxBatch& in) const {
  return backend.leaky_relu(alpha_, in);
}

// ---- Sigmoid ----------------------------------------------------------------

float Sigmoid::f(float v) const noexcept {
  return 1.0F / (1.0F + std::exp(-v));
}
float Sigmoid::df(float /*v*/, float y) const noexcept {
  return y * (1.0F - y);
}

Zonotope Sigmoid::propagate(const Zonotope& in) const {
  return in.monotone_via_box(
      +[](const Interval& iv) { return iv.sigmoid(); });
}

BoxBatch Sigmoid::propagate_batch(const BoundBackend& backend,
                                  const BoxBatch& in) const {
  // Same scalar expression as Interval::sigmoid's endpoints.
  return backend.monotone(
      +[](float v) { return 1.0F / (1.0F + std::exp(-v)); }, in);
}

// ---- Tanh -----------------------------------------------------------------

float Tanh::f(float v) const noexcept { return std::tanh(v); }
float Tanh::df(float /*v*/, float y) const noexcept { return 1.0F - y * y; }

Zonotope Tanh::propagate(const Zonotope& in) const {
  return in.monotone_via_box(+[](const Interval& iv) { return iv.tanh_(); });
}

BoxBatch Tanh::propagate_batch(const BoundBackend& backend,
                               const BoxBatch& in) const {
  return backend.monotone(+[](float v) { return std::tanh(v); }, in);
}

}  // namespace ranm
