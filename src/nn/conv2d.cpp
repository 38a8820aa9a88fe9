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

void Conv2D::forward_fused(const float* in, float* out, std::size_t n,
                           const Epilogue& ep) const noexcept {
  forward_biased(in, out, n, b_.data(), ep);
}

void Conv2D::forward_biased(const float* in, float* out, std::size_t n,
                            const float* bias,
                            const Epilogue& ep) const noexcept {
  const auto& c = cfg_;
  // A single sample runs across its own outputs, and so does an odd
  // batch's last sample, copied out; the tiles below cover the samples
  // before it in tiles of two or more.
  if (n == 1) {
    forward_one(in, out, bias, ep);
    return;
  }
  const std::size_t paired = n - n % 2;
  if (paired < n) {
    run_one_column(in, out, n, paired, c.in_channels * c.in_height * c.in_width,
                   c.out_channels * oh_ * ow_,
                   [&](const float* x, float* y) {
                     forward_one(x, y, bias, ep);
                   });
  }
  dispatch_kernel([&] {
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
        for_each_pair_tile<kConvTile>(
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
                const float b = bias[oc0 + u];
#pragma GCC unroll 64
                for (std::size_t t = 0; t < T; ++t) {
                  y[t] = static_cast<float>(acc[u][t]) + b;
                }
              }
            });
        // The activation runs over this position's rows, every channel of
        // every paired sample, while they are in L1: outside the tiles,
        // whose forced unroll a branch on the epilogue would break.
        if (ep.identity()) continue;
        for (std::size_t oc = 0; oc < c.out_channels; ++oc) {
          float* y = out + ((oc * oh_ + oy) * ow_ + ox) * n;
          ep.apply(y, y, paired);
        }
      }
    }
  });
}

void Conv2D::forward_one(const float* in, float* out, const float* bias,
                         const Epilogue& ep) const noexcept {
  const auto& c = cfg_;
  const std::ptrdiff_t pad = static_cast<std::ptrdiff_t>(c.padding);
  const std::size_t kernel_size = c.in_channels * c.kernel_h * c.kernel_w;
  // The outputs [lo, hi) along an axis whose windows lie inside the input:
  // the taps of the outputs before and after them cross the padded border.
  const auto inside = [&](std::size_t extent, std::size_t kernel,
                          std::size_t outputs) {
    const std::size_t lo =
        std::min(outputs, (c.padding + c.stride - 1) / c.stride);
    const std::size_t hi =
        extent + c.padding < kernel
            ? lo
            : std::clamp((extent + c.padding - kernel) / c.stride + 1, lo,
                         outputs);
    return TapRange{lo, hi};
  };
  const TapRange xs = inside(c.in_width, c.kernel_w, ow_);
  const TapRange ys = inside(c.in_height, c.kernel_h, oh_);
  const auto for_each_border = [&](const TapRange& range, std::size_t outputs,
                                   auto&& fn) {
    for (std::size_t o = 0; o < range.lo; ++o) fn(o);
    for (std::size_t o = range.hi; o < outputs; ++o) fn(o);
  };
  with_step(c.stride, [&]<std::size_t Step>() {
    dispatch_kernel([&] {
      const std::size_t stride = Step == 0 ? c.stride : Step;
      // The taps of the positions the next tiles cover.
      TapRange ky{0, c.kernel_h};
      TapRange kx{0, c.kernel_w};
      // U output channels from oc0 at T positions from (oy0, ox0), along
      // the row or, when Column, down the column: the same taps at inputs
      // `stride` floats or `stride` rows apart.
      const auto tile = [&]<std::size_t U, std::size_t T, bool Column>(
                            std::size_t oc0, std::size_t oy0,
                            std::size_t ox0) {
        const std::size_t in_step = Column ? stride * c.in_width : stride;
        const std::size_t out_step = Column ? ow_ : 1;
        double acc[U][T] = {};
        const float* w = w_.data() + oc0 * kernel_size;
        const std::ptrdiff_t y0 = std::ptrdiff_t(oy0 * stride) - pad;
        const std::ptrdiff_t x0 = std::ptrdiff_t(ox0 * stride) - pad;
        for (std::size_t ic = 0; ic < c.in_channels; ++ic) {
          for (std::size_t r = ky.lo; r < ky.hi; ++r) {
            const std::size_t iy = std::size_t(y0 + std::ptrdiff_t(r));
            const std::size_t tap_row = (ic * c.kernel_h + r) * c.kernel_w;
            const float* row = in + (ic * c.in_height + iy) * c.in_width;
            for (std::size_t q = kx.lo; q < kx.hi; ++q) {
              const float* x = row + (x0 + std::ptrdiff_t(q));
              double xd[T];
#pragma GCC unroll 64
              for (std::size_t t = 0; t < T; ++t) xd[t] = x[t * in_step];
#pragma GCC unroll 64
              for (std::size_t u = 0; u < U; ++u) {
                const double wv = w[u * kernel_size + tap_row + q];
#pragma GCC unroll 64
                for (std::size_t t = 0; t < T; ++t) acc[u][t] += wv * xd[t];
              }
            }
          }
        }
#pragma GCC unroll 64
        for (std::size_t u = 0; u < U; ++u) {
          float* y = out + ((oc0 + u) * oh_ + oy0) * ow_ + ox0;
          const float b = bias[oc0 + u];
#pragma GCC unroll 64
          for (std::size_t t = 0; t < T; ++t) {
            y[t * out_step] = static_cast<float>(acc[u][t]) + b;
          }
        }
      };
      // Each row: its inside positions in row tiles, and, in the rows
      // whose windows cross the top or bottom border, its border positions
      // one at a time.
      for (std::size_t oy = 0; oy < oh_; ++oy) {
        const auto along_row = [&]<std::size_t U, std::size_t T>(
                                   std::size_t oc0, std::size_t ox0) {
          tile.template operator()<U, T, false>(oc0, oy, ox0);
        };
        ky = taps_inside(std::ptrdiff_t(oy * c.stride) - pad, c.in_height,
                         c.kernel_h);
        kx = {0, c.kernel_w};
        for_each_row_tile<kConvRowTile>(xs.lo, xs.hi, c.out_channels,
                                        along_row);
        if (oy >= ys.lo && oy < ys.hi) continue;
        for_each_border(xs, ow_, [&](std::size_t ox) {
          kx = taps_inside(std::ptrdiff_t(ox * c.stride) - pad, c.in_width,
                           c.kernel_w);
          for_each_row_tile<kConvRowTile>(ox, ox + 1, c.out_channels,
                                          along_row);
        });
      }
      // The other border positions down their columns, in tiles like the
      // rows'.
      ky = {0, c.kernel_h};
      for_each_border(xs, ow_, [&](std::size_t ox) {
        kx = taps_inside(std::ptrdiff_t(ox * c.stride) - pad, c.in_width,
                         c.kernel_w);
        for_each_row_tile<kConvRowTile>(
            ys.lo, ys.hi, c.out_channels,
            [&]<std::size_t U, std::size_t T>(std::size_t oc0,
                                              std::size_t oy0) {
              tile.template operator()<U, T, true>(oc0, oy0, ox);
            });
      });
      // The activation, over the whole output once every position is
      // written: outside the tiles, as in the batch path.
      ep.apply(out, out, c.out_channels * oh_ * ow_);
    });
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

Conv2DGeometry Conv2D::geometry() const noexcept {
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
  return g;
}

Zonotope Conv2D::propagate(const Zonotope& in) const {
  if (in.dim() != input_size()) {
    throw std::invalid_argument(name() + ": zonotope input size mismatch");
  }
  // The centre with the bias, as the forward pass computes it; the
  // generators and |W|·e with a zero bias (Zonotope::affine_image).
  const std::vector<float> zero(cfg_.out_channels, 0.0F);
  std::vector<float> centre(output_size()),
      gens(output_size() * in.num_generators());
  forward_biased(in.center().data(), centre.data(), 1, b_.data(), {});
  forward_biased(in.generators().data(), gens.data(), in.num_generators(),
                 zero.data(), {});
  BoxBatch err;
  VectorizedBoundBackend{}.conv2d(geometry(), w_.span(), zero,
                                  in.radius_box(), err);
  return Zonotope::affine_image(std::move(centre), std::move(gens),
                                err.upper().storage(), b_.span());
}

void Conv2D::propagate_fused(const BoundBackend& backend, const BoxBatch& in,
                             BoxBatch& out, const Epilogue& ep) const {
  backend.conv2d(geometry(), w_.span(), b_.span(), in, out, ep);
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
