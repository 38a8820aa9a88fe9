// Reference bound backend: one sample at a time, with the same per-sample
// expressions (and evaluation order) as the vectorized backend — the
// bit-for-bit oracle the differential suite compares the vectorized
// kernels against. Only tests and bench_domains construct it.
#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "absint/bound_backend.hpp"

namespace ranm {
namespace {

/// Twice the centre and radius of bound (j, i), exact in double: in float,
/// 0.5F * (lo + hi) can round so that [cen - rad, cen + rad] misses an
/// endpoint.
double center2(const BoxBatch& in, std::size_t j, std::size_t i) {
  return double(in.lo(j, i)) + double(in.hi(j, i));
}
double radius2(const BoxBatch& in, std::size_t j, std::size_t i) {
  return double(in.hi(j, i)) - double(in.lo(j, i));
}

/// Writes bound (j, i) of an affine output from its bias-free doubled
/// centre/radius accumulators: halve, add the bias, widen by u·(|c| + r)
/// for the forward pass's rounding of Σ w·x to float, round outward.
void emit_bounds(double acc_c2, double acc_r2, float bias, BoxBatch& out,
                 std::size_t j, std::size_t i) {
  const double c = 0.5 * acc_c2;
  const double r = 0.5 * acc_r2;
  const double rad = r + kFloatUnitRoundoff * (std::fabs(c) + r);
  out.lo(j, i) = round_down(c + double(bias) - rad);
  out.hi(j, i) = round_up(c + double(bias) + rad);
}

/// The reference form of each activation's box transfer over every bound
/// of `in`, written to `out` (which may be `in`): ReLU as max(0, v),
/// LeakyReLU as the select v > 0 ? v : αv with the endpoints ordered, both
/// independent of the vectorized backend's expressions (util/epilogue.hpp).
void activate(const Epilogue& ep, const BoxBatch& in, BoxBatch& out) {
  if (ep.identity()) return;
  for (std::size_t i = 0; i < in.size(); ++i) {
    for (std::size_t j = 0; j < in.dimension(); ++j) {
      const float lo = in.lo(j, i), hi = in.hi(j, i);
      if (ep.kind == Epilogue::Kind::kRelu) {
        out.lo(j, i) = std::max(0.0F, lo);
        out.hi(j, i) = std::max(0.0F, hi);
      } else {
        const float a = lo > 0.0F ? lo : ep.alpha * lo;
        const float b = hi > 0.0F ? hi : ep.alpha * hi;
        out.lo(j, i) = std::min(a, b);
        out.hi(j, i) = std::max(a, b);
      }
    }
  }
}

}  // namespace

void ReferenceBoundBackend::do_affine(std::span<const float> w,
                                      std::size_t rows, std::size_t cols,
                                      std::span<const float> bias,
                                      const BoxBatch& in, BoxBatch& out,
                                      const Epilogue& ep) const {
  const std::size_t n = in.size();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t r = 0; r < rows; ++r) {
      // Doubled centre/radius form, double accumulation in ascending j.
      double c = 0.0, rad = 0.0;
      const float* row = w.data() + r * cols;
      for (std::size_t j = 0; j < cols; ++j) {
        c += double(row[j]) * center2(in, j, i);
        rad += std::fabs(double(row[j])) * radius2(in, j, i);
      }
      emit_bounds(c, rad, bias[r], out, r, i);
    }
  }
  activate(ep, out, out);
}

void ReferenceBoundBackend::do_conv2d(const Conv2DGeometry& g,
                                      std::span<const float> w,
                                      std::span<const float> bias,
                                      const BoxBatch& in, BoxBatch& out,
                                      const Epilogue& ep) const {
  const std::size_t n = in.size();
  // Per-sample staging of the doubled centre/radius.
  std::vector<double> cen(g.input_size()), rad(g.input_size());
  const std::ptrdiff_t pad = static_cast<std::ptrdiff_t>(g.padding);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < g.input_size(); ++j) {
      cen[j] = center2(in, j, i);
      rad[j] = radius2(in, j, i);
    }
    for (std::size_t oc = 0; oc < g.out_channels; ++oc) {
      for (std::size_t oy = 0; oy < g.out_height; ++oy) {
        for (std::size_t ox = 0; ox < g.out_width; ++ox) {
          double acc_c = 0.0;
          double acc_r = 0.0;
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
                if (ix < 0 ||
                    ix >= static_cast<std::ptrdiff_t>(g.in_width)) {
                  continue;
                }
                const float wv =
                    w[((oc * g.in_channels + ic) * g.kernel_h + ky) *
                          g.kernel_w +
                      kx];
                const std::size_t iidx =
                    (ic * g.in_height + std::size_t(iy)) * g.in_width +
                    std::size_t(ix);
                acc_c += double(wv) * cen[iidx];
                acc_r += std::fabs(double(wv)) * rad[iidx];
              }
            }
          }
          emit_bounds(acc_c, acc_r, bias[oc], out,
                      (oc * g.out_height + oy) * g.out_width + ox, i);
        }
      }
    }
  }
  activate(ep, out, out);
}

void ReferenceBoundBackend::do_max_pool(const Pool2DGeometry& g,
                                        const BoxBatch& in,
                                        BoxBatch& out) const {
  const std::size_t n = in.size();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t ch = 0; ch < g.channels; ++ch) {
      for (std::size_t oy = 0; oy < g.out_height; ++oy) {
        for (std::size_t ox = 0; ox < g.out_width; ++ox) {
          float lo = -std::numeric_limits<float>::infinity();
          float hi = -std::numeric_limits<float>::infinity();
          for (std::size_t ky = 0; ky < g.window; ++ky) {
            for (std::size_t kx = 0; kx < g.window; ++kx) {
              const std::size_t iy = oy * g.stride + ky;
              const std::size_t ix = ox * g.stride + kx;
              const std::size_t idx =
                  (ch * g.in_height + iy) * g.in_width + ix;
              lo = std::max(lo, in.lo(idx, i));
              hi = std::max(hi, in.hi(idx, i));
            }
          }
          const std::size_t oidx = (ch * g.out_height + oy) * g.out_width + ox;
          out.lo(oidx, i) = lo;
          out.hi(oidx, i) = hi;
        }
      }
    }
  }
}

void ReferenceBoundBackend::do_avg_pool(const Pool2DGeometry& g,
                                        const BoxBatch& in,
                                        BoxBatch& out) const {
  const std::size_t n = in.size();
  const double inv = 1.0 / double(g.window * g.window);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t ch = 0; ch < g.channels; ++ch) {
      for (std::size_t oy = 0; oy < g.out_height; ++oy) {
        for (std::size_t ox = 0; ox < g.out_width; ++ox) {
          double lo = 0.0, hi = 0.0;
          for (std::size_t ky = 0; ky < g.window; ++ky) {
            for (std::size_t kx = 0; kx < g.window; ++kx) {
              const std::size_t iy = oy * g.stride + ky;
              const std::size_t ix = ox * g.stride + kx;
              const std::size_t idx =
                  (ch * g.in_height + iy) * g.in_width + ix;
              lo += in.lo(idx, i);
              hi += in.hi(idx, i);
            }
          }
          const std::size_t oidx = (ch * g.out_height + oy) * g.out_width + ox;
          out.lo(oidx, i) = round_down(lo * inv);
          out.hi(oidx, i) = round_up(hi * inv);
        }
      }
    }
  }
}

void ReferenceBoundBackend::do_relu(const BoxBatch& in, BoxBatch& out) const {
  activate({Epilogue::Kind::kRelu}, in, out);
}

void ReferenceBoundBackend::do_leaky_relu(float alpha, const BoxBatch& in,
                                          BoxBatch& out) const {
  activate({Epilogue::Kind::kLeakyRelu, alpha}, in, out);
}

void ReferenceBoundBackend::do_normalize(std::span<const float> mean,
                                         std::span<const float> inv_std,
                                         const BoxBatch& in,
                                         BoxBatch& out) const {
  for (std::size_t i = 0; i < in.size(); ++i) {
    for (std::size_t j = 0; j < in.dimension(); ++j) {
      out.lo(j, i) = (in.lo(j, i) - mean[j]) * inv_std[j];
      out.hi(j, i) = (in.hi(j, i) - mean[j]) * inv_std[j];
    }
  }
}

void ReferenceBoundBackend::do_monotone(float (*f)(float),
                                        const BoxBatch& in,
                                        BoxBatch& out) const {
  for (std::size_t i = 0; i < in.size(); ++i) {
    for (std::size_t j = 0; j < in.dimension(); ++j) {
      out.lo(j, i) = f(in.lo(j, i));
      out.hi(j, i) = f(in.hi(j, i));
    }
  }
}

}  // namespace ranm
