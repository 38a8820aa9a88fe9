#include "nn/activations.hpp"

#include <algorithm>
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

void ReLU::forward_batch(const float* in, float* out,
                         std::size_t n) const noexcept {
  dispatch_kernel(
      [&] { map(in, out, n, [this](float v) { return ReLU::f(v); }); });
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

float LeakyReLU::f(float v) const noexcept {
  return v > 0.0F ? v : alpha_ * v;
}
float LeakyReLU::df(float v, float /*y*/) const noexcept {
  return v > 0.0F ? 1.0F : alpha_;
}

void LeakyReLU::forward_batch(const float* in, float* out,
                              std::size_t n) const noexcept {
  dispatch_kernel([&] {
    // max(v, αv) is v > 0 ? v : αv for α in [0, 1), signed zeros
    // included, and computes both operands unconditionally, so the one
    // pass vectorises.
    const float alpha = alpha_;
    const std::size_t count = n * numel_;
    for (std::size_t i = 0; i < count; ++i) {
      out[i] = std::max(in[i], alpha * in[i]);
    }
  });
}

Zonotope LeakyReLU::propagate(const Zonotope& in) const {
  return in.leaky_relu(alpha_);
}

void LeakyReLU::propagate_batch(const BoundBackend& backend,
                                const BoxBatch& in, BoxBatch& out) const {
  backend.leaky_relu(alpha_, in, out);
}

// ---- Sigmoid ----------------------------------------------------------------

float Sigmoid::f(float v) const noexcept {
  return 1.0F / (1.0F + std::exp(-v));
}
float Sigmoid::df(float /*v*/, float y) const noexcept {
  return y * (1.0F - y);
}

void Sigmoid::forward_batch(const float* in, float* out,
                            std::size_t n) const noexcept {
  map(in, out, n, [this](float v) { return Sigmoid::f(v); });
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

float Tanh::f(float v) const noexcept { return std::tanh(v); }
float Tanh::df(float /*v*/, float y) const noexcept { return 1.0F - y * y; }

void Tanh::forward_batch(const float* in, float* out,
                         std::size_t n) const noexcept {
  map(in, out, n, [this](float v) { return Tanh::f(v); });
}

Zonotope Tanh::propagate(const Zonotope& in) const {
  return in.monotone_via_box(+[](const Interval& iv) { return iv.tanh_(); });
}

void Tanh::propagate_batch(const BoundBackend& backend,
                           const BoxBatch& in, BoxBatch& out) const {
  backend.monotone(+[](float v) { return std::tanh(v); }, in, out);
}

}  // namespace ranm
