#include "nn/normalization.hpp"

#include <cmath>
#include <stdexcept>

namespace ranm {

Normalization::Normalization(Shape shape, std::vector<float> mean,
                             std::vector<float> inv_std)
    : shape_(std::move(shape)),
      mean_(std::move(mean)),
      inv_std_(std::move(inv_std)) {
  const std::size_t n = shape_numel(shape_);
  if (n == 0) throw std::invalid_argument("Normalization: empty shape");
  if (mean_.size() != n || inv_std_.size() != n) {
    throw std::invalid_argument("Normalization: statistics size mismatch");
  }
  for (float s : inv_std_) {
    if (!(s > 0.0F) || !std::isfinite(s)) {
      throw std::invalid_argument(
          "Normalization: inv_std must be positive and finite");
    }
  }
}

Normalization::Normalization(Shape shape, float mean, float inv_std)
    : Normalization(shape,
                    std::vector<float>(shape_numel(shape), mean),
                    std::vector<float>(shape_numel(shape), inv_std)) {}

void Normalization::forward_batch(const float* in, float* out,
                                  std::size_t n) const noexcept {
  for (std::size_t j = 0; j < mean_.size(); ++j) {
    const float m = mean_[j];
    const float s = inv_std_[j];
    const float* x = in + j * n;
    float* y = out + j * n;
    for (std::size_t i = 0; i < n; ++i) y[i] = (x[i] - m) * s;
  }
}

void Normalization::backward_batch(const float* /*x*/, const float* /*y*/,
                                   const float* grad_out, float* grad_in,
                                   std::size_t n) {
  if (grad_in == nullptr) return;
  for (std::size_t j = 0; j < inv_std_.size(); ++j) {
    const float s = inv_std_[j];
    const float* g = grad_out + j * n;
    float* gi = grad_in + j * n;
    for (std::size_t i = 0; i < n; ++i) gi[i] = g[i] * s;
  }
}

void Normalization::propagate_batch(const BoundBackend& backend,
                                    const BoxBatch& in, BoxBatch& out) const {
  backend.normalize(mean_, inv_std_, in, out);
}

Zonotope Normalization::propagate(const Zonotope& in) const {
  if (in.dim() != input_size()) {
    throw std::invalid_argument(
        "Normalization: zonotope input size mismatch");
  }
  return in.normalize(mean_, inv_std_);
}

}  // namespace ranm
