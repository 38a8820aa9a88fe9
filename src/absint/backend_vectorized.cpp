// Vectorized bound backend, the production engine: the batch dimension is
// innermost, so every hot loop sweeps contiguous BoxBatch rows with the
// neuron's parameters hoisted into scalars — the shape the compiler
// auto-vectorizes. Per sample the accumulation order and expressions are
// identical to the reference backend (double accumulators of lo + hi and
// hi - lo, ascending term order, bias and roundoff widening added last,
// round_down/round_up at the narrowing cast), so bounds never tighten
// relative to it: on targets without FP contraction they are
// bit-identical.
#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "absint/bound_backend.hpp"

namespace ranm {
namespace {

/// One term of the affine accumulators: Σ w·(lo + hi) and Σ |w|·(hi - lo),
/// twice the centre and radius sums. Both are exact in double, where the
/// float centre 0.5F * (lo + hi) can round so that [cen - rad, cen + rad]
/// misses an endpoint.
void accumulate(double wv, const float* lo, const float* hi, double* acc_c2,
                double* acc_r2, std::size_t n) {
  const double aw = std::fabs(wv);
  for (std::size_t i = 0; i < n; ++i) {
    const double l = lo[i], h = hi[i];
    acc_c2[i] += wv * (l + h);
    acc_r2[i] += aw * (h - l);
  }
}

/// Narrows the bias-free doubled centre/radius accumulators of one output
/// row to float bounds: halve, add the bias, widen by u·(|c| + r) for the
/// forward pass's rounding of Σ w·x to float, round outward.
void emit_bounds(const double* acc_c2, const double* acc_r2, float bias,
                 float* lo, float* hi, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double c = 0.5 * acc_c2[i];
    const double r = 0.5 * acc_r2[i];
    const double rad = r + kFloatUnitRoundoff * (std::fabs(c) + r);
    lo[i] = round_down(c + double(bias) - rad);
    hi[i] = round_up(c + double(bias) + rad);
  }
}

}  // namespace

BoxBatch VectorizedBoundBackend::do_affine(std::span<const float> w,
                                           std::size_t rows, std::size_t cols,
                                           std::span<const float> bias,
                                           const BoxBatch& in) const {
  const std::size_t n = in.size();
  BoxBatch out(rows, n);
  if (n == 0) return out;
  std::vector<double> acc_c(n), acc_r(n);
  for (std::size_t r = 0; r < rows; ++r) {
    std::fill(acc_c.begin(), acc_c.end(), 0.0);
    std::fill(acc_r.begin(), acc_r.end(), 0.0);
    const float* wrow = w.data() + r * cols;
    for (std::size_t j = 0; j < cols; ++j) {
      accumulate(double(wrow[j]), in.lo_row(j).data(), in.hi_row(j).data(),
                 acc_c.data(), acc_r.data(), n);
    }
    emit_bounds(acc_c.data(), acc_r.data(), bias[r], out.lo_row(r).data(),
                out.hi_row(r).data(), n);
  }
  return out;
}

BoxBatch VectorizedBoundBackend::do_conv2d(const Conv2DGeometry& g,
                                           std::span<const float> w,
                                           std::span<const float> bias,
                                           const BoxBatch& in) const {
  const std::size_t n = in.size();
  BoxBatch out(g.output_size(), n);
  if (n == 0) return out;
  std::vector<double> acc_c(n), acc_r(n);
  const std::ptrdiff_t pad = static_cast<std::ptrdiff_t>(g.padding);
  for (std::size_t oc = 0; oc < g.out_channels; ++oc) {
    for (std::size_t oy = 0; oy < g.out_height; ++oy) {
      for (std::size_t ox = 0; ox < g.out_width; ++ox) {
        std::fill(acc_c.begin(), acc_c.end(), 0.0);
        std::fill(acc_r.begin(), acc_r.end(), 0.0);
        for (std::size_t ic = 0; ic < g.in_channels; ++ic) {
          for (std::size_t ky = 0; ky < g.kernel_h; ++ky) {
            const std::ptrdiff_t iy =
                static_cast<std::ptrdiff_t>(oy * g.stride + ky) - pad;
            if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(g.in_height)) {
              continue;
            }
            for (std::size_t kx = 0; kx < g.kernel_w; ++kx) {
              const std::ptrdiff_t ix =
                  static_cast<std::ptrdiff_t>(ox * g.stride + kx) - pad;
              if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(g.in_width)) {
                continue;
              }
              const double wv =
                  double(w[((oc * g.in_channels + ic) * g.kernel_h + ky) *
                               g.kernel_w +
                           kx]);
              const std::size_t iidx =
                  (ic * g.in_height + std::size_t(iy)) * g.in_width +
                  std::size_t(ix);
              accumulate(wv, in.lo_row(iidx).data(), in.hi_row(iidx).data(),
                         acc_c.data(), acc_r.data(), n);
            }
          }
        }
        const std::size_t oidx = (oc * g.out_height + oy) * g.out_width + ox;
        emit_bounds(acc_c.data(), acc_r.data(), bias[oc],
                    out.lo_row(oidx).data(), out.hi_row(oidx).data(), n);
      }
    }
  }
  return out;
}

BoxBatch VectorizedBoundBackend::do_max_pool(const Pool2DGeometry& g,
                                             const BoxBatch& in) const {
  const std::size_t n = in.size();
  BoxBatch out(g.output_size(), n);
  for (std::size_t ch = 0; ch < g.channels; ++ch) {
    for (std::size_t oy = 0; oy < g.out_height; ++oy) {
      for (std::size_t ox = 0; ox < g.out_width; ++ox) {
        const std::size_t oidx = (ch * g.out_height + oy) * g.out_width + ox;
        float* lo = out.lo_row(oidx).data();
        float* hi = out.hi_row(oidx).data();
        std::fill(lo, lo + n, -std::numeric_limits<float>::infinity());
        std::fill(hi, hi + n, -std::numeric_limits<float>::infinity());
        for (std::size_t ky = 0; ky < g.window; ++ky) {
          for (std::size_t kx = 0; kx < g.window; ++kx) {
            const std::size_t iy = oy * g.stride + ky;
            const std::size_t ix = ox * g.stride + kx;
            const std::size_t idx = (ch * g.in_height + iy) * g.in_width + ix;
            const float* ilo = in.lo_row(idx).data();
            const float* ihi = in.hi_row(idx).data();
            for (std::size_t i = 0; i < n; ++i) {
              lo[i] = std::max(lo[i], ilo[i]);
              hi[i] = std::max(hi[i], ihi[i]);
            }
          }
        }
      }
    }
  }
  return out;
}

BoxBatch VectorizedBoundBackend::do_avg_pool(const Pool2DGeometry& g,
                                             const BoxBatch& in) const {
  const std::size_t n = in.size();
  const double inv = 1.0 / double(g.window * g.window);
  BoxBatch out(g.output_size(), n);
  if (n == 0) return out;
  std::vector<double> acc_lo(n), acc_hi(n);
  for (std::size_t ch = 0; ch < g.channels; ++ch) {
    for (std::size_t oy = 0; oy < g.out_height; ++oy) {
      for (std::size_t ox = 0; ox < g.out_width; ++ox) {
        std::fill(acc_lo.begin(), acc_lo.end(), 0.0);
        std::fill(acc_hi.begin(), acc_hi.end(), 0.0);
        for (std::size_t ky = 0; ky < g.window; ++ky) {
          for (std::size_t kx = 0; kx < g.window; ++kx) {
            const std::size_t iy = oy * g.stride + ky;
            const std::size_t ix = ox * g.stride + kx;
            const std::size_t idx = (ch * g.in_height + iy) * g.in_width + ix;
            const float* ilo = in.lo_row(idx).data();
            const float* ihi = in.hi_row(idx).data();
            for (std::size_t i = 0; i < n; ++i) {
              acc_lo[i] += ilo[i];
              acc_hi[i] += ihi[i];
            }
          }
        }
        const std::size_t oidx = (ch * g.out_height + oy) * g.out_width + ox;
        float* lo = out.lo_row(oidx).data();
        float* hi = out.hi_row(oidx).data();
        for (std::size_t i = 0; i < n; ++i) {
          lo[i] = round_down(acc_lo[i] * inv);
          hi[i] = round_up(acc_hi[i] * inv);
        }
      }
    }
  }
  return out;
}

BoxBatch VectorizedBoundBackend::do_relu(const BoxBatch& in) const {
  BoxBatch out(in.dimension(), in.size());
  const std::span<const float> ilo = in.lower().storage();
  const std::span<const float> ihi = in.upper().storage();
  const std::span<float> olo = out.lower().storage();
  const std::span<float> ohi = out.upper().storage();
  for (std::size_t e = 0; e < ilo.size(); ++e) {
    olo[e] = std::max(0.0F, ilo[e]);
    ohi[e] = std::max(0.0F, ihi[e]);
  }
  return out;
}

BoxBatch VectorizedBoundBackend::do_leaky_relu(float alpha,
                                               const BoxBatch& in) const {
  BoxBatch out(in.dimension(), in.size());
  const std::span<const float> ilo = in.lower().storage();
  const std::span<const float> ihi = in.upper().storage();
  const std::span<float> olo = out.lower().storage();
  const std::span<float> ohi = out.upper().storage();
  for (std::size_t e = 0; e < ilo.size(); ++e) {
    const float a = ilo[e] > 0.0F ? ilo[e] : alpha * ilo[e];
    const float b = ihi[e] > 0.0F ? ihi[e] : alpha * ihi[e];
    olo[e] = std::min(a, b);
    ohi[e] = std::max(a, b);
  }
  return out;
}

BoxBatch VectorizedBoundBackend::do_normalize(std::span<const float> mean,
                                              std::span<const float> inv_std,
                                              const BoxBatch& in) const {
  const std::size_t n = in.size();
  BoxBatch out(in.dimension(), in.size());
  for (std::size_t j = 0; j < in.dimension(); ++j) {
    const float m = mean[j];
    const float s = inv_std[j];
    const float* ilo = in.lo_row(j).data();
    const float* ihi = in.hi_row(j).data();
    float* olo = out.lo_row(j).data();
    float* ohi = out.hi_row(j).data();
    for (std::size_t i = 0; i < n; ++i) {
      olo[i] = (ilo[i] - m) * s;
      ohi[i] = (ihi[i] - m) * s;
    }
  }
  return out;
}

BoxBatch VectorizedBoundBackend::do_monotone(float (*f)(float),
                                             const BoxBatch& in) const {
  BoxBatch out(in.dimension(), in.size());
  const std::span<const float> ilo = in.lower().storage();
  const std::span<const float> ihi = in.upper().storage();
  const std::span<float> olo = out.lower().storage();
  const std::span<float> ohi = out.upper().storage();
  for (std::size_t e = 0; e < ilo.size(); ++e) {
    olo[e] = f(ilo[e]);
    ohi[e] = f(ihi[e]);
  }
  return out;
}

}  // namespace ranm
