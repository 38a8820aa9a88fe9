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

BoxBatch Flatten::propagate_batch(const BoundBackend& /*backend*/,
                                  const BoxBatch& in) const {
  return in;  // identity on data; BoxBatch is already flat
}

}  // namespace ranm
