// Small dense linear-algebra helpers for the Dense layer's backward pass.
#pragma once

#include "tensor/tensor.hpp"

namespace ranm {

/// Transposed matrix-vector product y = A^T * x; A is (m x k), x length m.
[[nodiscard]] Tensor matvec_t(const Tensor& a, const Tensor& x);

/// Outer product M = x y^T; result is (len(x) x len(y)).
[[nodiscard]] Tensor outer(const Tensor& x, const Tensor& y);

}  // namespace ranm
