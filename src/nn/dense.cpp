#include "nn/dense.hpp"

#include <cmath>
#include <stdexcept>

#include "tensor/linalg.hpp"
#include "util/rng.hpp"

namespace ranm {

Dense::Dense(std::size_t in, std::size_t out)
    : in_(in),
      out_(out),
      w_({out, in}),
      b_({out}),
      gw_({out, in}),
      gb_({out}) {
  if (in == 0 || out == 0) {
    throw std::invalid_argument("Dense: zero dimension");
  }
}

std::string Dense::name() const {
  return "Dense(" + std::to_string(in_) + "->" + std::to_string(out_) + ")";
}

Tensor Dense::forward(const Tensor& x) const {
  if (x.numel() != in_) {
    throw std::invalid_argument(name() + ": input has " +
                                std::to_string(x.numel()) + " elements");
  }
  Tensor y = x.rank() == 1 ? matvec(w_, x) : matvec(w_, x.reshaped({in_}));
  y += b_;
  return y;
}

Tensor Dense::backward(const Tensor& x, const Tensor& /*y*/,
                       const Tensor& grad_out) {
  if (x.numel() != in_ || grad_out.numel() != out_) {
    throw std::invalid_argument(name() + ": gradient size mismatch");
  }
  const Tensor g = grad_out.rank() == 1 ? grad_out : grad_out.reshaped({out_});
  gw_ += x.rank() == 1 ? outer(g, x) : outer(g, x.reshaped({in_}));
  gb_ += g;
  return matvec_t(w_, g);
}

Zonotope Dense::propagate(const Zonotope& in) const {
  if (in.dim() != in_) {
    throw std::invalid_argument(name() + ": zonotope input size mismatch");
  }
  return in.affine(w_.span(), out_, b_.span());
}

BoxBatch Dense::propagate_batch(const BoundBackend& backend,
                                const BoxBatch& in) const {
  return backend.affine(w_.span(), out_, in_, b_.span(), in);
}

void Dense::init_params(Rng& rng) {
  const float stddev = std::sqrt(2.0F / static_cast<float>(in_));
  for (std::size_t i = 0; i < w_.numel(); ++i) {
    w_[i] = static_cast<float>(rng.normal(0.0, stddev));
  }
  b_.zero();
}

}  // namespace ranm
