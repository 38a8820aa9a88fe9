// Vectorized bound backend, the production engine: the batch dimension is
// innermost, and every hot loop is branch-free with the neuron's
// parameters hoisted into registers. The affine, conv and average-pool
// kernels compute register tiles (util/tile.hpp) of several output
// neurons by several samples, so each input bound is loaded, and its
// centre and radius formed, once per tile instead of once per output
// neuron. Per sample the accumulation order and expressions are identical
// to the reference backend (double accumulators of lo + hi and hi - lo,
// ascending term order, bias and roundoff widening added last,
// round_down/round_up at the narrowing cast), so bounds never tighten
// relative to it: with FP contraction off they are bit-identical.
//
// Every kernel but monotone (a libm call per element) runs through
// dispatch_kernel (util/isa.hpp): its body is compiled for the baseline,
// AVX2 and AVX-512 targets and the CPU's level is picked at run time. A
// wider vector only covers more samples of a tile at once, and the entry
// points turn contraction off, so every level gives the reference bits.
#include <algorithm>
#include <cmath>
#include <limits>

#include "absint/bound_backend.hpp"
#include "util/isa.hpp"
#include "util/tile.hpp"

#if defined(__clang__)
#pragma clang fp contract(off)
#endif

namespace ranm {
namespace {

/// The affine accumulators of a U-neuron × T-sample tile: Σ w·(lo + hi)
/// and Σ |w|·(hi - lo), twice the centre and radius sums. Both are exact
/// in double, where the float centre 0.5F * (lo + hi) can round so that
/// [cen - rad, cen + rad] misses an endpoint.
template <std::size_t U, std::size_t T>
struct AffineTile {
  double c2[U][T] = {};
  double r2[U][T] = {};

  /// Adds one input term of T samples (bounds lo[0..T), hi[0..T)) with
  /// weight w[u * w_stride] for neuron u of the tile.
  void add(const float* w, std::size_t w_stride, const float* lo,
           const float* hi) noexcept {
    double sum[T], diff[T];
    for (std::size_t t = 0; t < T; ++t) {
      const double l = lo[t], h = hi[t];
      sum[t] = l + h;
      diff[t] = h - l;
    }
    for (std::size_t u = 0; u < U; ++u) {
      const double wv = w[u * w_stride];
      const double aw = std::fabs(wv);
      for (std::size_t t = 0; t < T; ++t) {
        c2[u][t] += wv * sum[t];
        r2[u][t] += aw * diff[t];
      }
    }
  }

  /// Narrows neuron u's accumulators to float bounds: halve, add the bias,
  /// widen by u·(|c| + r) for the forward pass's rounding of Σ w·x to
  /// float, round outward.
  void emit(std::size_t u, float bias, float* lo, float* hi) const noexcept {
    for (std::size_t t = 0; t < T; ++t) {
      const double c = 0.5 * c2[u][t];
      const double r = 0.5 * r2[u][t];
      const double rad = r + kFloatUnitRoundoff * (std::fabs(c) + r);
      lo[t] = round_down(c + double(bias) - rad);
      hi[t] = round_up(c + double(bias) + rad);
    }
  }
};

}  // namespace

void VectorizedBoundBackend::do_affine(std::span<const float> w,
                                       std::size_t rows, std::size_t cols,
                                       std::span<const float> bias,
                                       const BoxBatch& in,
                                       BoxBatch& out) const {
  dispatch_kernel([&] {
    const std::size_t n = in.size();
    const float* lo = in.lower().storage().data();
    const float* hi = in.upper().storage().data();
    float* out_lo = out.lower().storage().data();
    float* out_hi = out.upper().storage().data();
    for_each_tile<kBoxAffineTile>(
        n, rows, [&]<std::size_t U, std::size_t T>(std::size_t o0,
                                                   std::size_t s0) {
          AffineTile<U, T> acc;
          const float* wrow = w.data() + o0 * cols;
          for (std::size_t j = 0; j < cols; ++j) {
            acc.add(wrow + j, cols, lo + j * n + s0, hi + j * n + s0);
          }
          for (std::size_t u = 0; u < U; ++u) {
            const std::size_t at = (o0 + u) * n + s0;
            acc.emit(u, bias[o0 + u], out_lo + at, out_hi + at);
          }
        });
  });
}

void VectorizedBoundBackend::do_conv2d(const Conv2DGeometry& g,
                                       std::span<const float> w,
                                       std::span<const float> bias,
                                       const BoxBatch& in,
                                       BoxBatch& out) const {
  dispatch_kernel([&] {
    const std::size_t n = in.size();
    const float* lo = in.lower().storage().data();
    const float* hi = in.upper().storage().data();
    float* out_lo = out.lower().storage().data();
    float* out_hi = out.upper().storage().data();
    const std::ptrdiff_t pad = static_cast<std::ptrdiff_t>(g.padding);
    const std::size_t kernel_size = g.in_channels * g.kernel_h * g.kernel_w;
    for (std::size_t oy = 0; oy < g.out_height; ++oy) {
      const std::ptrdiff_t y0 = std::ptrdiff_t(oy * g.stride) - pad;
      const TapRange ky = taps_inside(y0, g.in_height, g.kernel_h);
      for (std::size_t ox = 0; ox < g.out_width; ++ox) {
        const std::ptrdiff_t x0 = std::ptrdiff_t(ox * g.stride) - pad;
        const TapRange kx = taps_inside(x0, g.in_width, g.kernel_w);
        // Neurons of a tile are output channels at this (oy, ox): they share
        // every tap and differ only in their weights.
        for_each_tile<kBoxAffineTile>(
            n, g.out_channels, [&]<std::size_t U, std::size_t T>(
                                   std::size_t oc0, std::size_t s0) {
              AffineTile<U, T> acc;
              const float* w0 = w.data() + oc0 * kernel_size;
              for (std::size_t ic = 0; ic < g.in_channels; ++ic) {
                for (std::size_t r = ky.lo; r < ky.hi; ++r) {
                  const std::size_t iy = std::size_t(y0 + std::ptrdiff_t(r));
                  const std::size_t tap_row =
                      (ic * g.kernel_h + r) * g.kernel_w;
                  for (std::size_t q = kx.lo; q < kx.hi; ++q) {
                    const std::size_t ix = std::size_t(x0 + std::ptrdiff_t(q));
                    const std::size_t at =
                        ((ic * g.in_height + iy) * g.in_width + ix) * n + s0;
                    acc.add(w0 + tap_row + q, kernel_size, lo + at, hi + at);
                  }
                }
              }
              for (std::size_t u = 0; u < U; ++u) {
                const std::size_t at =
                    (((oc0 + u) * g.out_height + oy) * g.out_width + ox) * n +
                    s0;
                acc.emit(u, bias[oc0 + u], out_lo + at, out_hi + at);
              }
            });
      }
    }
  });
}

void VectorizedBoundBackend::do_max_pool(const Pool2DGeometry& g,
                                         const BoxBatch& in,
                                         BoxBatch& out) const {
  dispatch_kernel([&] {
    const std::size_t n = in.size();
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
  });
}

void VectorizedBoundBackend::do_avg_pool(const Pool2DGeometry& g,
                                         const BoxBatch& in,
                                         BoxBatch& out) const {
  dispatch_kernel([&] {
    const std::size_t n = in.size();
    const double inv = 1.0 / double(g.window * g.window);
    const float* lo = in.lower().storage().data();
    const float* hi = in.upper().storage().data();
    float* out_lo = out.lower().storage().data();
    float* out_hi = out.upper().storage().data();
    const std::size_t plane = g.in_height * g.in_width;
    for (std::size_t oy = 0; oy < g.out_height; ++oy) {
      for (std::size_t ox = 0; ox < g.out_width; ++ox) {
        // Neurons of a tile are channels at this (oy, ox).
        for_each_tile<kBoxAvgPoolTile>(
            n, g.channels,
            [&]<std::size_t U, std::size_t T>(std::size_t ch0,
                                              std::size_t s0) {
              double acc_lo[U][T] = {};
              double acc_hi[U][T] = {};
              for (std::size_t ky = 0; ky < g.window; ++ky) {
                for (std::size_t kx = 0; kx < g.window; ++kx) {
                  const std::size_t tap =
                      (oy * g.stride + ky) * g.in_width + ox * g.stride + kx;
                  for (std::size_t u = 0; u < U; ++u) {
                    const std::size_t at = ((ch0 + u) * plane + tap) * n + s0;
                    for (std::size_t t = 0; t < T; ++t) {
                      acc_lo[u][t] += lo[at + t];
                      acc_hi[u][t] += hi[at + t];
                    }
                  }
                }
              }
              for (std::size_t u = 0; u < U; ++u) {
                const std::size_t at =
                    (((ch0 + u) * g.out_height + oy) * g.out_width + ox) * n +
                    s0;
                for (std::size_t t = 0; t < T; ++t) {
                  out_lo[at + t] = round_down(acc_lo[u][t] * inv);
                  out_hi[at + t] = round_up(acc_hi[u][t] * inv);
                }
              }
            });
      }
    }
  });
}

void VectorizedBoundBackend::do_relu(const BoxBatch& in, BoxBatch& out) const {
  dispatch_kernel([&] {
    const std::span<const float> ilo = in.lower().storage();
    const std::span<const float> ihi = in.upper().storage();
    const std::span<float> olo = out.lower().storage();
    const std::span<float> ohi = out.upper().storage();
    for (std::size_t e = 0; e < ilo.size(); ++e) {
      olo[e] = std::max(0.0F, ilo[e]);
      ohi[e] = std::max(0.0F, ihi[e]);
    }
  });
}

void VectorizedBoundBackend::do_leaky_relu(float alpha, const BoxBatch& in,
                                           BoxBatch& out) const {
  dispatch_kernel([&] {
    const std::span<const float> ilo = in.lower().storage();
    const std::span<const float> ihi = in.upper().storage();
    const std::span<float> olo = out.lower().storage();
    const std::span<float> ohi = out.upper().storage();
    for (std::size_t e = 0; e < ilo.size(); ++e) {
      // max(v, αv) is v > 0 ? v : αv for α in [0, 1), signed zeros
      // included, and unlike the select it computes both operands
      // unconditionally, so the loop vectorizes under -ftrapping-math.
      const float a = std::max(ilo[e], alpha * ilo[e]);
      const float b = std::max(ihi[e], alpha * ihi[e]);
      olo[e] = std::min(a, b);
      ohi[e] = std::max(a, b);
    }
  });
}

void VectorizedBoundBackend::do_normalize(std::span<const float> mean,
                                          std::span<const float> inv_std,
                                          const BoxBatch& in,
                                          BoxBatch& out) const {
  dispatch_kernel([&] {
    const std::size_t n = in.size();
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
  });
}

void VectorizedBoundBackend::do_monotone(float (*f)(float),
                                         const BoxBatch& in,
                                         BoxBatch& out) const {
  const std::span<const float> ilo = in.lower().storage();
  const std::span<const float> ihi = in.upper().storage();
  const std::span<float> olo = out.lower().storage();
  const std::span<float> ohi = out.upper().storage();
  for (std::size_t e = 0; e < ilo.size(); ++e) {
    olo[e] = f(ilo[e]);
    ohi[e] = f(ihi[e]);
  }
}

}  // namespace ranm
