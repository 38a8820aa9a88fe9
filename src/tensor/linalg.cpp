#include "tensor/linalg.hpp"

#include <stdexcept>

namespace ranm {
namespace {

void require(bool cond, const char* msg) {
  if (!cond) throw std::invalid_argument(msg);
}

}  // namespace

Tensor matvec_t(const Tensor& a, const Tensor& x) {
  require(a.rank() == 2 && x.rank() == 1, "matvec_t: need matrix and vector");
  require(a.dim(0) == x.dim(0), "matvec_t: dimension mismatch");
  const std::size_t m = a.dim(0), k = a.dim(1);
  Tensor y({k});
  for (std::size_t i = 0; i < m; ++i) {
    const float xi = x[i];
    if (xi == 0.0F) continue;
    const float* row = a.data() + i * k;
    for (std::size_t p = 0; p < k; ++p) y[p] += xi * row[p];
  }
  return y;
}

Tensor outer(const Tensor& x, const Tensor& y) {
  require(x.rank() == 1 && y.rank() == 1, "outer: rank-1 tensors required");
  const std::size_t m = x.dim(0), n = y.dim(0);
  Tensor c({m, n});
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) c(i, j) = x[i] * y[j];
  return c;
}

}  // namespace ranm
