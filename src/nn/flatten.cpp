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

void Flatten::backward_batch(const float* /*x*/, const float* /*y*/,
                             const float* grad_out, float* grad_in,
                             std::size_t n) {
  if (grad_in != nullptr) {
    std::copy_n(grad_out, n * shape_numel(in_shape_), grad_in);
  }
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
