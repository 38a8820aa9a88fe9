#include "nn/dense.hpp"

#include <cmath>
#include <stdexcept>

#include "tensor/linalg.hpp"
#include "util/isa.hpp"
#include "util/rng.hpp"
#include "util/tile.hpp"

#if defined(__clang__)
#pragma clang fp contract(off)
#endif

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

void Dense::forward_batch(const float* in, float* out,
                          std::size_t n) const noexcept {
  dispatch_kernel([&] {
    for_each_tile<kDenseTile>(
        n, out_, [&]<std::size_t U, std::size_t T>(std::size_t o0,
                                                   std::size_t s0) {
          double acc[U][T] = {};
          const float* w = w_.data() + o0 * in_;
          const float* x = in + s0;
          for (std::size_t p = 0; p < in_; ++p, x += n) {
            double xd[T];
            for (std::size_t t = 0; t < T; ++t) xd[t] = x[t];
            for (std::size_t u = 0; u < U; ++u) {
              const double wv = w[u * in_ + p];
              for (std::size_t t = 0; t < T; ++t) acc[u][t] += wv * xd[t];
            }
          }
          for (std::size_t u = 0; u < U; ++u) {
            // The bias in a local: a load between the stores would keep the
            // stores, and with them the accumulation, from vectorising.
            const float b = b_[o0 + u];
            float* y = out + (o0 + u) * n + s0;
            for (std::size_t t = 0; t < T; ++t) {
              y[t] = static_cast<float>(acc[u][t]) + b;
            }
          }
        });
  });
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

void Dense::propagate_batch(const BoundBackend& backend,
                            const BoxBatch& in, BoxBatch& out) const {
  backend.affine(w_.span(), out_, in_, b_.span(), in, out);
}

void Dense::init_params(Rng& rng) {
  const float stddev = std::sqrt(2.0F / static_cast<float>(in_));
  for (std::size_t i = 0; i < w_.numel(); ++i) {
    w_[i] = static_cast<float>(rng.normal(0.0, stddev));
  }
  b_.zero();
}

}  // namespace ranm
