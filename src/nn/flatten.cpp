#include "nn/flatten.hpp"

#include <stdexcept>

namespace ranm {

Flatten::Flatten(Shape in_shape) : in_shape_(std::move(in_shape)) {
  if (shape_numel(in_shape_) == 0) {
    throw std::invalid_argument("Flatten: empty shape");
  }
}

Tensor Flatten::forward(const Tensor& x) const {
  if (x.numel() != input_size()) {
    throw std::invalid_argument("Flatten: input size mismatch");
  }
  return x.reshaped({x.numel()});
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
