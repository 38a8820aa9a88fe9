#include "nn/activations.hpp"

#include <cmath>
#include <stdexcept>

#include "util/isa.hpp"

#if defined(__clang__)
#pragma clang fp contract(off)
#endif

namespace ranm {

Activation::Activation(Shape shape)
    : shape_(std::move(shape)), numel_(shape_numel(shape_)) {
  if (numel_ == 0) throw std::invalid_argument("Activation: empty shape");
}

void Activation::check_gradient_sizes(const Tensor& x, const Tensor& y,
                                      const Tensor& grad_out) const {
  if (grad_out.numel() != x.numel() || y.numel() != x.numel()) {
    throw std::invalid_argument(name() + ": gradient size mismatch");
  }
}

// ---- ReLU -----------------------------------------------------------------

Tensor ReLU::backward(const Tensor& x, const Tensor& y,
                      const Tensor& grad_out) {
  return scale_gradient(x, y, grad_out, [](float v, float /*y*/) {
    return v > 0.0F ? 1.0F : 0.0F;
  });
}

void ReLU::forward_batch(const float* in, float* out,
                         std::size_t n) const noexcept {
  dispatch_kernel([&] { epilogue().apply(in, out, n * numel_); });
}

Zonotope ReLU::propagate(const Zonotope& in) const { return in.relu(); }

void ReLU::propagate_batch(const BoundBackend& backend,
                           const BoxBatch& in, BoxBatch& out) const {
  backend.relu(in, out);
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

Tensor LeakyReLU::backward(const Tensor& x, const Tensor& y,
                           const Tensor& grad_out) {
  const float a = alpha_;
  return scale_gradient(x, y, grad_out, [a](float v, float /*y*/) {
    return v > 0.0F ? 1.0F : a;
  });
}

void LeakyReLU::forward_batch(const float* in, float* out,
                              std::size_t n) const noexcept {
  dispatch_kernel([&] { epilogue().apply(in, out, n * numel_); });
}

Zonotope LeakyReLU::propagate(const Zonotope& in) const {
  return in.leaky_relu(alpha_);
}

void LeakyReLU::propagate_batch(const BoundBackend& backend,
                                const BoxBatch& in, BoxBatch& out) const {
  backend.leaky_relu(alpha_, in, out);
}

// ---- Sigmoid ----------------------------------------------------------------

Tensor Sigmoid::backward(const Tensor& x, const Tensor& y,
                         const Tensor& grad_out) {
  return scale_gradient(x, y, grad_out, [](float /*v*/, float yv) {
    return yv * (1.0F - yv);
  });
}

void Sigmoid::forward_batch(const float* in, float* out,
                            std::size_t n) const noexcept {
  map(in, out, n, [](float v) { return 1.0F / (1.0F + std::exp(-v)); });
}

Zonotope Sigmoid::propagate(const Zonotope& in) const {
  return in.monotone_via_box(
      +[](const Interval& iv) { return iv.sigmoid(); });
}

void Sigmoid::propagate_batch(const BoundBackend& backend,
                              const BoxBatch& in, BoxBatch& out) const {
  // Same scalar expression as Interval::sigmoid's endpoints.
  backend.monotone(
      +[](float v) { return 1.0F / (1.0F + std::exp(-v)); }, in, out);
}

// ---- Tanh -----------------------------------------------------------------

Tensor Tanh::backward(const Tensor& x, const Tensor& y,
                      const Tensor& grad_out) {
  return scale_gradient(x, y, grad_out,
                        [](float /*v*/, float yv) { return 1.0F - yv * yv; });
}

void Tanh::forward_batch(const float* in, float* out,
                         std::size_t n) const noexcept {
  map(in, out, n, [](float v) { return std::tanh(v); });
}

Zonotope Tanh::propagate(const Zonotope& in) const {
  return in.monotone_via_box(+[](const Interval& iv) { return iv.tanh_(); });
}

void Tanh::propagate_batch(const BoundBackend& backend,
                           const BoxBatch& in, BoxBatch& out) const {
  backend.monotone(+[](float v) { return std::tanh(v); }, in, out);
}

}  // namespace ranm
