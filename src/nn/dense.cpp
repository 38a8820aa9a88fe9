#include "nn/dense.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/aligned.hpp"
#include "util/isa.hpp"
#include "util/rng.hpp"
#include "util/tile.hpp"

#if defined(__clang__)
#pragma clang fp contract(off)
#endif

namespace ranm {

namespace {

/// Column s of a neuron-major batch of n samples (`dim` rows of n) to
/// row s of `out` (n rows of `dim`): out[s * dim + j] = rows[j * n + s],
/// in blocks of 16 rows, so the runs each sample is written stay in L1.
void transpose_columns(const float* rows, std::size_t dim, std::size_t n,
                       float* out) noexcept {
  constexpr std::size_t kBlock = 16;
  for (std::size_t j0 = 0; j0 < dim; j0 += kBlock) {
    const std::size_t j1 = std::min(dim, j0 + kBlock);
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t j = j0; j < j1; ++j) out[s * dim + j] = rows[j * n + s];
    }
  }
}

}  // namespace

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

void dense_forward(const float* w, const float* bias, std::size_t rows,
                   std::size_t cols, const float* in, float* out,
                   std::size_t n) noexcept {
  dispatch_kernel([&] {
    for_each_tile<kDenseTile>(
        n, rows, [&]<std::size_t U, std::size_t T>(std::size_t o0,
                                                   std::size_t s0) {
          double acc[U][T] = {};
          const float* wt = w + o0 * cols;
          const float* x = in + s0;
          for (std::size_t p = 0; p < cols; ++p, x += n) {
            double xd[T];
            for (std::size_t t = 0; t < T; ++t) xd[t] = x[t];
            for (std::size_t u = 0; u < U; ++u) {
              const double wv = wt[u * cols + p];
              for (std::size_t t = 0; t < T; ++t) acc[u][t] += wv * xd[t];
            }
          }
          for (std::size_t u = 0; u < U; ++u) {
            // The bias in a local: a load between the stores would keep the
            // stores, and with them the accumulation, from vectorising.
            const float b = bias[o0 + u];
            float* y = out + (o0 + u) * n + s0;
            for (std::size_t t = 0; t < T; ++t) {
              y[t] = static_cast<float>(acc[u][t]) + b;
            }
          }
        });
  });
}

void Dense::forward_fused(const float* in, float* out, std::size_t n,
                          const Epilogue& ep) const noexcept {
  dense_forward(w_.data(), b_.data(), out_, in_, in, out, n);
  // The activation runs right after the tiles, over the outputs they have
  // just written: the network's passes call this on one block of at most
  // 32 samples, so those are still in cache. It is a loop of its own
  // because inside the tiles' kernel it made the batch-1 tiles slower.
  if (!ep.identity()) dispatch_kernel([&] { ep.apply(out, out, out_ * n); });
}

void Dense::backward_batch(const float* x, const float* /*y*/,
                           const float* grad_out, float* grad_in,
                           std::size_t n) {
  // gb_: each output's terms in sample order.
  float* gb = gb_.data();
  for (std::size_t o = 0; o < out_; ++o) {
    const float* g = grad_out + o * n;
    float b = gb[o];
    for (std::size_t s = 0; s < n; ++s) b += g[s];
    gb[o] = b;
  }
  // Per block of kBlock inputs, W = its width when it is a full block:
  // - gw_ += g xᵀ, with no skip. The inputs go sample-major, so the
  //   block of a weight row adds one sample's products at a time across
  //   its lanes, and every element adds its samples in order.
  // - grad_in = Wᵀ g, per sample: each input adds its terms in output
  //   order from +0, skipping the outputs whose gradient is zero (the
  //   sums of the per-sample matvec).
  // Both keep the block of xt or of W in L1 across the rows or samples.
  thread_local AlignedFloats xt_buffer;
  float* xt = grown(xt_buffer, n * in_);
  transpose_columns(x, in_, n, xt);
  constexpr std::size_t kBlock = 64;
  float* gw = gw_.data();
  const float* w = w_.data();
  dispatch_kernel([&] {
    const auto block = [&]<std::size_t W>(std::size_t p0, std::size_t width) {
      const std::size_t lanes = W == 0 ? width : W;
      float acc[kBlock];
      for (std::size_t o = 0; o < out_; ++o) {
        const float* g = grad_out + o * n;
        float* row = gw + o * in_ + p0;
        for (std::size_t t = 0; t < lanes; ++t) acc[t] = row[t];
        for (std::size_t s = 0; s < n; ++s) {
          const float gv = g[s];
          const float* xs = xt + s * in_ + p0;
          for (std::size_t t = 0; t < lanes; ++t) acc[t] += gv * xs[t];
        }
        for (std::size_t t = 0; t < lanes; ++t) row[t] = acc[t];
      }
      if (grad_in == nullptr) return;
      for (std::size_t s = 0; s < n; ++s) {
        for (std::size_t t = 0; t < lanes; ++t) acc[t] = 0.0F;
        for (std::size_t o = 0; o < out_; ++o) {
          const float gv = grad_out[o * n + s];
          if (gv == 0.0F) continue;
          const float* wr = w + o * in_ + p0;
          for (std::size_t t = 0; t < lanes; ++t) acc[t] += gv * wr[t];
        }
        for (std::size_t t = 0; t < lanes; ++t) {
          grad_in[(p0 + t) * n + s] = acc[t];
        }
      }
    };
    std::size_t p0 = 0;
    for (; p0 + kBlock <= in_; p0 += kBlock) {
      block.template operator()<kBlock>(p0, kBlock);
    }
    if (p0 < in_) block.template operator()<0>(p0, in_ - p0);
  });
}

Zonotope Dense::propagate(const Zonotope& in) const {
  if (in.dim() != in_) {
    throw std::invalid_argument(name() + ": zonotope input size mismatch");
  }
  return in.affine(w_.span(), out_, b_.span());
}

void Dense::propagate_fused(const BoundBackend& backend, const BoxBatch& in,
                            BoxBatch& out, const Epilogue& ep) const {
  backend.affine(w_.span(), out_, in_, b_.span(), in, out, ep);
}

void Dense::init_params(Rng& rng) {
  const float stddev = std::sqrt(2.0F / static_cast<float>(in_));
  for (std::size_t i = 0; i < w_.numel(); ++i) {
    w_[i] = static_cast<float>(rng.normal(0.0, stddev));
  }
  b_.zero();
}

}  // namespace ranm
