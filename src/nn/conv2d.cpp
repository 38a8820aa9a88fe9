#include "nn/conv2d.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/isa.hpp"
#include "util/rng.hpp"
#include "util/tile.hpp"

#if defined(__clang__)
#pragma clang fp contract(off)
#endif

namespace ranm {

Conv2D::Conv2D(const Config& cfg)
    : cfg_(cfg),
      oh_(0),
      ow_(0),
      w_({cfg.out_channels, cfg.in_channels, cfg.kernel_h, cfg.kernel_w}),
      b_({cfg.out_channels}),
      gw_({cfg.out_channels, cfg.in_channels, cfg.kernel_h, cfg.kernel_w}),
      gb_({cfg.out_channels}) {
  if (cfg.in_channels == 0 || cfg.out_channels == 0 || cfg.kernel_h == 0 ||
      cfg.kernel_w == 0 || cfg.stride == 0) {
    throw std::invalid_argument("Conv2D: zero-sized configuration");
  }
  const std::size_t padded_h = cfg.in_height + 2 * cfg.padding;
  const std::size_t padded_w = cfg.in_width + 2 * cfg.padding;
  if (padded_h < cfg.kernel_h || padded_w < cfg.kernel_w) {
    throw std::invalid_argument("Conv2D: kernel larger than padded input");
  }
  oh_ = (padded_h - cfg.kernel_h) / cfg.stride + 1;
  ow_ = (padded_w - cfg.kernel_w) / cfg.stride + 1;
}

std::string Conv2D::name() const {
  return "Conv2D(" + std::to_string(cfg_.in_channels) + "x" +
         std::to_string(cfg_.in_height) + "x" + std::to_string(cfg_.in_width) +
         "->" + std::to_string(cfg_.out_channels) + "x" + std::to_string(oh_) +
         "x" + std::to_string(ow_) + ", k=" + std::to_string(cfg_.kernel_h) +
         "x" + std::to_string(cfg_.kernel_w) +
         ", s=" + std::to_string(cfg_.stride) +
         ", p=" + std::to_string(cfg_.padding) + ")";
}

Shape Conv2D::input_shape() const {
  return {cfg_.in_channels, cfg_.in_height, cfg_.in_width};
}

Shape Conv2D::output_shape() const { return {cfg_.out_channels, oh_, ow_}; }

void Conv2D::forward_batch(const float* in, float* out,
                           std::size_t n) const noexcept {
  dispatch_kernel([&] {
    const auto& c = cfg_;
    const std::ptrdiff_t pad = static_cast<std::ptrdiff_t>(c.padding);
    const std::size_t kernel_size = c.in_channels * c.kernel_h * c.kernel_w;
    for (std::size_t oy = 0; oy < oh_; ++oy) {
      const std::ptrdiff_t y0 = std::ptrdiff_t(oy * c.stride) - pad;
      const TapRange ky = taps_inside(y0, c.in_height, c.kernel_h);
      for (std::size_t ox = 0; ox < ow_; ++ox) {
        const std::ptrdiff_t x0 = std::ptrdiff_t(ox * c.stride) - pad;
        const TapRange kx = taps_inside(x0, c.in_width, c.kernel_w);
        // Neurons of a tile are output channels at this (oy, ox): they share
        // every tap position and differ only in their weights.
        for_each_tile<kConvTile>(
            n, c.out_channels, [&]<std::size_t U, std::size_t T>(
                                   std::size_t oc0, std::size_t s0) {
              double acc[U][T] = {};
              const float* w = w_.data() + oc0 * kernel_size;
              for (std::size_t ic = 0; ic < c.in_channels; ++ic) {
                for (std::size_t r = ky.lo; r < ky.hi; ++r) {
                  const std::size_t iy = std::size_t(y0 + std::ptrdiff_t(r));
                  const std::size_t tap_row =
                      (ic * c.kernel_h + r) * c.kernel_w;
                  for (std::size_t q = kx.lo; q < kx.hi; ++q) {
                    const std::size_t ix = std::size_t(x0 + std::ptrdiff_t(q));
                    const float* x =
                        in + ((ic * c.in_height + iy) * c.in_width + ix) * n +
                        s0;
                    // The tile is past GCC's unroll budget, and forcing
                    // its unroll measured faster (util/tile.hpp).
                    double xd[T];
#pragma GCC unroll 64
                    for (std::size_t t = 0; t < T; ++t) xd[t] = x[t];
#pragma GCC unroll 64
                    for (std::size_t u = 0; u < U; ++u) {
                      const double wv = w[u * kernel_size + tap_row + q];
#pragma GCC unroll 64
                      for (std::size_t t = 0; t < T; ++t) {
                        acc[u][t] += wv * xd[t];
                      }
                    }
                  }
                }
              }
#pragma GCC unroll 64
              for (std::size_t u = 0; u < U; ++u) {
                float* y = out + (((oc0 + u) * oh_ + oy) * ow_ + ox) * n + s0;
                // The bias in a local: a load between the stores would keep
                // the stores, and with them the accumulation, from
                // vectorising.
                const float b = b_[oc0 + u];
#pragma GCC unroll 64
                for (std::size_t t = 0; t < T; ++t) {
                  y[t] = static_cast<float>(acc[u][t]) + b;
                }
              }
            });
      }
    }
  });
}

Tensor Conv2D::backward(const Tensor& x, const Tensor& /*y*/,
                        const Tensor& grad_out) {
  if (x.numel() != input_size() || grad_out.numel() != output_size()) {
    throw std::invalid_argument(name() + ": gradient size mismatch");
  }
  const auto& c = cfg_;
  const std::ptrdiff_t pad = static_cast<std::ptrdiff_t>(c.padding);
  Tensor grad_in(input_shape());
  const float* g = grad_out.data();
  const float* in = x.data();
  for (std::size_t oc = 0; oc < c.out_channels; ++oc) {
    for (std::size_t oy = 0; oy < oh_; ++oy) {
      for (std::size_t ox = 0; ox < ow_; ++ox) {
        const float gv = g[(oc * oh_ + oy) * ow_ + ox];
        if (gv == 0.0F) continue;
        gb_[oc] += gv;
        for (std::size_t ic = 0; ic < c.in_channels; ++ic) {
          for (std::size_t ky = 0; ky < c.kernel_h; ++ky) {
            const std::ptrdiff_t iy =
                static_cast<std::ptrdiff_t>(oy * c.stride + ky) - pad;
            if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(c.in_height)) {
              continue;
            }
            for (std::size_t kx = 0; kx < c.kernel_w; ++kx) {
              const std::ptrdiff_t ix =
                  static_cast<std::ptrdiff_t>(ox * c.stride + kx) - pad;
              if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(c.in_width)) {
                continue;
              }
              const std::size_t widx =
                  ((oc * c.in_channels + ic) * c.kernel_h + ky) * c.kernel_w +
                  kx;
              const std::size_t iidx =
                  (ic * c.in_height + std::size_t(iy)) * c.in_width +
                  std::size_t(ix);
              gw_[widx] += gv * in[iidx];
              grad_in[iidx] += gv * w_[widx];
            }
          }
        }
      }
    }
  }
  return grad_in;
}

Zonotope Conv2D::propagate(const Zonotope& in) const {
  if (in.dim() != input_size()) {
    throw std::invalid_argument(name() + ": zonotope input size mismatch");
  }
  const auto& c = cfg_;
  const std::ptrdiff_t pad = static_cast<std::ptrdiff_t>(c.padding);
  const LinearMap convolve = [&](const float* x, double* y, bool absolute) {
    for (std::size_t oc = 0; oc < c.out_channels; ++oc) {
      for (std::size_t oy = 0; oy < oh_; ++oy) {
        const std::ptrdiff_t y0 = std::ptrdiff_t(oy * c.stride) - pad;
        const TapRange ky = taps_inside(y0, c.in_height, c.kernel_h);
        for (std::size_t ox = 0; ox < ow_; ++ox) {
          const std::ptrdiff_t x0 = std::ptrdiff_t(ox * c.stride) - pad;
          const TapRange kx = taps_inside(x0, c.in_width, c.kernel_w);
          double acc = 0.0;
          for (std::size_t ic = 0; ic < c.in_channels; ++ic) {
            for (std::size_t r = ky.lo; r < ky.hi; ++r) {
              const std::size_t iy = std::size_t(y0 + std::ptrdiff_t(r));
              const float* w =
                  w_.data() + ((oc * c.in_channels + ic) * c.kernel_h + r) *
                                  c.kernel_w;
              for (std::size_t q = kx.lo; q < kx.hi; ++q) {
                const std::size_t ix = std::size_t(x0 + std::ptrdiff_t(q));
                const double wv = absolute ? std::fabs(w[q]) : w[q];
                acc += wv * x[(ic * c.in_height + iy) * c.in_width + ix];
              }
            }
          }
          y[(oc * oh_ + oy) * ow_ + ox] = acc;
        }
      }
    }
  };
  std::vector<float> bias(output_size());
  for (std::size_t oc = 0; oc < c.out_channels; ++oc) {
    std::fill_n(bias.begin() + std::ptrdiff_t(oc * oh_ * ow_), oh_ * ow_,
                b_[oc]);
  }
  return in.linear(output_size(), bias, convolve);
}

void Conv2D::propagate_batch(const BoundBackend& backend,
                             const BoxBatch& in, BoxBatch& out) const {
  Conv2DGeometry g;
  g.in_channels = cfg_.in_channels;
  g.in_height = cfg_.in_height;
  g.in_width = cfg_.in_width;
  g.out_channels = cfg_.out_channels;
  g.out_height = oh_;
  g.out_width = ow_;
  g.kernel_h = cfg_.kernel_h;
  g.kernel_w = cfg_.kernel_w;
  g.stride = cfg_.stride;
  g.padding = cfg_.padding;
  backend.conv2d(g, w_.span(), b_.span(), in, out);
}

void Conv2D::init_params(Rng& rng) {
  const float fan_in = static_cast<float>(cfg_.in_channels * cfg_.kernel_h *
                                          cfg_.kernel_w);
  const float stddev = std::sqrt(2.0F / fan_in);
  for (std::size_t i = 0; i < w_.numel(); ++i) {
    w_[i] = static_cast<float>(rng.normal(0.0, stddev));
  }
  b_.zero();
}

}  // namespace ranm
