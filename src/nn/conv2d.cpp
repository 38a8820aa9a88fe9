#include "nn/conv2d.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "util/aligned.hpp"
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

void Conv2D::backward_batch(const float* x, const float* /*y*/,
                            const float* grad_out, float* grad_in,
                            std::size_t n) {
  const auto& c = cfg_;
  const std::ptrdiff_t pad = static_cast<std::ptrdiff_t>(c.padding);
  const std::size_t positions = oh_ * ow_;
  const std::size_t taps = c.in_channels * c.kernel_h * c.kernel_w;
  // The parameter gradients as rows of kLanes output channels: one row per
  // tap, then one for the bias, a tap whose input is 1 (gv * 1 is gv, so
  // its row adds the bias's terms exactly). Each sample's gradient goes
  // position-major, [position][channel], and its input into a zero-padded
  // plane with one more channel of ones for the bias tap, so a position's
  // taps are loads at fixed offsets from its window.
  constexpr std::size_t kLanes = kConvGradTile.samples;
  const std::size_t lanes = (c.out_channels + kLanes - 1) / kLanes * kLanes;
  const std::size_t ph = c.in_height + 2 * c.padding;
  const std::size_t pw = c.in_width + 2 * c.padding;
  const std::size_t padded = ph * pw;
  thread_local AlignedFloats sums_buffer, gpos_buffer, plane_buffer;
  thread_local std::vector<std::size_t> offsets;
  float* sums = grown(sums_buffer, (taps + 1) * lanes);
  float* gpos = grown(gpos_buffer, positions * lanes);
  float* plane = grown(plane_buffer, (c.in_channels + 1) * padded);
  std::fill_n(sums, (taps + 1) * lanes, 0.0F);
  std::fill_n(gpos, positions * lanes, 0.0F);
  std::fill_n(plane, c.in_channels * padded, 0.0F);
  std::fill_n(plane + c.in_channels * padded, padded, 1.0F);
  for (std::size_t oc = 0; oc < c.out_channels; ++oc) {
    for (std::size_t t = 0; t < taps; ++t) {
      sums[t * lanes + oc] = gw_[oc * taps + t];
    }
    sums[taps * lanes + oc] = gb_[oc];
  }
  offsets.resize(taps + 1);
  for (std::size_t t = 0; t < taps; ++t) {
    const std::size_t ic = t / (c.kernel_h * c.kernel_w);
    const std::size_t r = t / c.kernel_w % c.kernel_h;
    offsets[t] = ic * padded + r * pw + t % c.kernel_w;
  }
  offsets[taps] = c.in_channels * padded;
  dispatch_kernel([&] {
    // kLanes channels as one vector. Given an array of accumulators
    // instead, GCC's vectoriser transposed them at every position.
    using Lanes = float __attribute__((vector_size(kLanes * sizeof(float))));
    // U taps (rows of sums) × the channels from oc0, over every position
    // of one sample in order: each lane adds gv * tap, skipped by a blend
    // where gv is zero and, at a border position, for a tap outside the
    // image.
    const auto tile = [&]<std::size_t U, std::size_t>(std::size_t t0,
                                                      std::size_t oc0) {
      Lanes acc[U];
      std::size_t off[U], row[U], col[U];
      for (std::size_t k = 0; k < U; ++k) {
        std::memcpy(&acc[k], sums + (t0 + k) * lanes + oc0, sizeof(Lanes));
        off[k] = offsets[t0 + k];
        row[k] = (t0 + k) / c.kernel_w % c.kernel_h;
        col[k] = (t0 + k) % c.kernel_w;
      }
      for (std::size_t oy = 0; oy < oh_; ++oy) {
        const TapRange ky = taps_inside(std::ptrdiff_t(oy * c.stride) - pad,
                                        c.in_height, c.kernel_h);
        for (std::size_t ox = 0; ox < ow_; ++ox) {
          const TapRange kx = taps_inside(std::ptrdiff_t(ox * c.stride) - pad,
                                          c.in_width, c.kernel_w);
          Lanes gv;
          std::memcpy(&gv, gpos + (oy * ow_ + ox) * lanes + oc0, sizeof(Lanes));
          const auto live = gv != 0.0F;
          const float* window = plane + oy * c.stride * pw + ox * c.stride;
          const bool border = ky.lo != 0 || ky.hi != c.kernel_h ||
                              kx.lo != 0 || kx.hi != c.kernel_w;
          if (!border) {
            for (std::size_t k = 0; k < U; ++k) {
              const Lanes sum = acc[k] + gv * window[off[k]];
              acc[k] = live ? sum : acc[k];
            }
            continue;
          }
          for (std::size_t k = 0; k < U; ++k) {
            if (t0 + k < taps && (row[k] < ky.lo || row[k] >= ky.hi ||
                                  col[k] < kx.lo || col[k] >= kx.hi)) {
              continue;  // a tap outside the image
            }
            const Lanes sum = acc[k] + gv * window[off[k]];
            acc[k] = live ? sum : acc[k];
          }
        }
      }
      for (std::size_t k = 0; k < U; ++k) {
        std::memcpy(sums + (t0 + k) * lanes + oc0, &acc[k], sizeof(Lanes));
      }
    };
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t ic = 0; ic < c.in_channels; ++ic) {
        for (std::size_t iy = 0; iy < c.in_height; ++iy) {
          float* row = plane + ic * padded + (iy + c.padding) * pw + c.padding;
          const float* from = x + (ic * c.in_height + iy) * c.in_width * n + s;
          for (std::size_t ix = 0; ix < c.in_width; ++ix) {
            row[ix] = from[ix * n];
          }
        }
      }
      for (std::size_t oc = 0; oc < c.out_channels; ++oc) {
        const float* from = grad_out + oc * positions * n + s;
        for (std::size_t p = 0; p < positions; ++p) {
          gpos[p * lanes + oc] = from[p * n];
        }
      }
      for (std::size_t oc0 = 0; oc0 < lanes; oc0 += kLanes) {
        detail::tile_neurons<kConvGradTile.neurons, kLanes>(0, taps + 1, oc0,
                                                            tile);
      }
    }
  });
  for (std::size_t oc = 0; oc < c.out_channels; ++oc) {
    for (std::size_t t = 0; t < taps; ++t) {
      gw_[oc * taps + t] = sums[t * lanes + oc];
    }
    gb_[oc] = sums[taps * lanes + oc];
  }
  if (grad_in == nullptr) return;
  // grad_in: each input adds its terms from +0 in the order of the output
  // positions and taps that reach it, across the samples' lanes, skipping
  // a zero gv.
  std::fill_n(grad_in, input_size() * n, 0.0F);
  dispatch_kernel([&] {
    for (std::size_t oc = 0; oc < c.out_channels; ++oc) {
      for (std::size_t oy = 0; oy < oh_; ++oy) {
        const std::ptrdiff_t y0 = std::ptrdiff_t(oy * c.stride) - pad;
        const TapRange ky = taps_inside(y0, c.in_height, c.kernel_h);
        for (std::size_t ox = 0; ox < ow_; ++ox) {
          const std::ptrdiff_t x0 = std::ptrdiff_t(ox * c.stride) - pad;
          const TapRange kx = taps_inside(x0, c.in_width, c.kernel_w);
          const float* g = grad_out + ((oc * oh_ + oy) * ow_ + ox) * n;
          for (std::size_t ic = 0; ic < c.in_channels; ++ic) {
            for (std::size_t r = ky.lo; r < ky.hi; ++r) {
              const std::size_t iy = std::size_t(y0 + std::ptrdiff_t(r));
              for (std::size_t q = kx.lo; q < kx.hi; ++q) {
                const std::size_t ix = std::size_t(x0 + std::ptrdiff_t(q));
                const float wv = w_[oc * taps +
                                    (ic * c.kernel_h + r) * c.kernel_w + q];
                float* gi =
                    grad_in + ((ic * c.in_height + iy) * c.in_width + ix) * n;
                for (std::size_t s = 0; s < n; ++s) {
                  const float a = gi[s] + g[s] * wv;
                  gi[s] = g[s] != 0.0F ? a : gi[s];
                }
              }
            }
          }
        }
      }
    }
  });
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
