#include "nn/flatten.hpp"

#include <algorithm>
#include <stdexcept>

namespace ranm {

Flatten::Flatten(Shape in_shape) : in_shape_(std::move(in_shape)) {
  if (shape_numel(in_shape_) == 0) {
    throw std::invalid_argument("Flatten: empty shape");
  }
}

void Flatten::forward_batch(const float* in, float* out,
                            std::size_t n) const noexcept {
  std::copy_n(in, n * shape_numel(in_shape_), out);
}

Tensor Flatten::backward(const Tensor& /*x*/, const Tensor& /*y*/,
                         const Tensor& grad_out) {
  if (grad_out.numel() != input_size()) {
    throw std::invalid_argument("Flatten: gradient size mismatch");
  }
  return grad_out.reshaped(in_shape_);
}

Zonotope Flatten::propagate(const Zonotope& in) const { return in; }

void Flatten::propagate_batch(const BoundBackend& /*backend*/,
                              const BoxBatch& in, BoxBatch& out) const {
  // Identity on data: a BoxBatch is already flat.
  out.reshape(in.dimension(), in.size());
  std::ranges::copy(in.lower().storage(), out.lower().storage().begin());
  std::ranges::copy(in.upper().storage(), out.upper().storage().begin());
}

}  // namespace ranm
