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

namespace {

/// The backward kernel of an activation whose derivative at output y is
/// d(y): grad_in[e] = grad_out[e] * d(y[e]) over `count` elements. It
/// has no parameters, so a null grad_in leaves nothing to do.
template <typename D>
void scale_by_derivative(const float* y, const float* grad_out,
                         float* grad_in, std::size_t count, D d) noexcept {
  if (grad_in == nullptr) return;
  dispatch_kernel([&] {
    // A local copy: read through the closure, a constant the derivative
    // captured (LeakyReLU's α) might alias grad_in, and its load would
    // turn the select into a branch.
    const D derivative = d;
    for (std::size_t e = 0; e < count; ++e) {
      grad_in[e] = grad_out[e] * derivative(y[e]);
    }
  });
}

}  // namespace

// ---- ReLU -----------------------------------------------------------------

void ReLU::backward_batch(const float* /*x*/, const float* y,
                          const float* grad_out, float* grad_in,
                          std::size_t n) {
  scale_by_derivative(y, grad_out, grad_in, n * numel_,
                      [](float yv) { return yv > 0.0F ? 1.0F : 0.0F; });
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

void LeakyReLU::backward_batch(const float* /*x*/, const float* y,
                               const float* grad_out, float* grad_in,
                               std::size_t n) {
  const float a = alpha_;
  scale_by_derivative(y, grad_out, grad_in, n * numel_,
                      [a](float yv) { return yv > 0.0F ? 1.0F : a; });
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

void Sigmoid::backward_batch(const float* /*x*/, const float* y,
                             const float* grad_out, float* grad_in,
                             std::size_t n) {
  scale_by_derivative(y, grad_out, grad_in, n * numel_,
                      [](float yv) { return yv * (1.0F - yv); });
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

void Tanh::backward_batch(const float* /*x*/, const float* y,
                          const float* grad_out, float* grad_in,
                          std::size_t n) {
  scale_by_derivative(y, grad_out, grad_in, n * numel_,
                      [](float yv) { return 1.0F - yv * yv; });
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
