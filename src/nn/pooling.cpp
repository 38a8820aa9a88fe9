#include "nn/pooling.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "util/isa.hpp"
#include "util/tile.hpp"

#if defined(__clang__)
#pragma clang fp contract(off)
#endif

namespace ranm {

Pooling::Pooling(const Config& cfg) : cfg_(cfg), oh_(0), ow_(0) {
  if (cfg.channels == 0 || cfg.window == 0 || cfg.stride == 0) {
    throw std::invalid_argument("Pooling: zero-sized configuration");
  }
  if (cfg.in_height < cfg.window || cfg.in_width < cfg.window) {
    throw std::invalid_argument("Pooling: window larger than input");
  }
  oh_ = (cfg.in_height - cfg.window) / cfg.stride + 1;
  ow_ = (cfg.in_width - cfg.window) / cfg.stride + 1;
}

Shape Pooling::input_shape() const {
  return {cfg_.channels, cfg_.in_height, cfg_.in_width};
}

Shape Pooling::output_shape() const { return {cfg_.channels, oh_, ow_}; }

Pool2DGeometry Pooling::geometry() const noexcept {
  Pool2DGeometry g;
  g.channels = cfg_.channels;
  g.in_height = cfg_.in_height;
  g.in_width = cfg_.in_width;
  g.out_height = oh_;
  g.out_width = ow_;
  g.window = cfg_.window;
  g.stride = cfg_.stride;
  return g;
}

// ---- MaxPool2D --------------------------------------------------------------

std::string MaxPool2D::name() const {
  return "MaxPool2D(k=" + std::to_string(cfg_.window) +
         ", s=" + std::to_string(cfg_.stride) + ")";
}

void MaxPool2D::forward_batch(const float* in, float* out,
                              std::size_t n) const noexcept {
  const std::size_t plane = cfg_.in_height * cfg_.in_width;
  // A single sample runs across its own outputs, and so does an odd
  // batch's last sample, copied out; the tiles below cover the samples
  // before it in tiles of two or more.
  if (n == 1) {
    forward_one(in, out);
    return;
  }
  const std::size_t paired = n - n % 2;
  if (paired < n) {
    run_one_column(in, out, n, paired, cfg_.channels * plane,
                   cfg_.channels * oh_ * ow_,
                   [&](const float* x, float* y) { forward_one(x, y); });
  }
  dispatch_kernel([&] {
    for (std::size_t oy = 0; oy < oh_; ++oy) {
      for (std::size_t ox = 0; ox < ow_; ++ox) {
        // Neurons of a tile are channels at this (oy, ox).
        for_each_pair_tile<kMaxPoolTile>(
            n, cfg_.channels,
            [&]<std::size_t U, std::size_t T>(std::size_t ch0,
                                              std::size_t s0) {
              float best[U][T];
              for (std::size_t u = 0; u < U; ++u) {
                for (std::size_t t = 0; t < T; ++t) {
                  best[u][t] = -std::numeric_limits<float>::infinity();
                }
              }
              for (std::size_t ky = 0; ky < cfg_.window; ++ky) {
                for (std::size_t kx = 0; kx < cfg_.window; ++kx) {
                  const std::size_t iy = oy * cfg_.stride + ky;
                  const std::size_t ix = ox * cfg_.stride + kx;
                  for (std::size_t u = 0; u < U; ++u) {
                    const float* x =
                        in + ((ch0 + u) * plane + iy * cfg_.in_width + ix) * n +
                        s0;
                    for (std::size_t t = 0; t < T; ++t) {
                      best[u][t] = x[t] > best[u][t] ? x[t] : best[u][t];
                    }
                  }
                }
              }
              for (std::size_t u = 0; u < U; ++u) {
                float* y = out + (((ch0 + u) * oh_ + oy) * ow_ + ox) * n + s0;
                for (std::size_t t = 0; t < T; ++t) y[t] = best[u][t];
              }
            });
      }
    }
  });
}

void MaxPool2D::forward_one(const float* in, float* out) const noexcept {
  const std::size_t plane = cfg_.in_height * cfg_.in_width;
  with_step(cfg_.stride, [&]<std::size_t Step>() {
    dispatch_kernel([&] {
      const std::size_t stride = Step == 0 ? cfg_.stride : Step;
      for (std::size_t oy = 0; oy < oh_; ++oy) {
        // Neurons of a tile are channels, its columns consecutive
        // positions along the row: the same window offsets, `stride`
        // floats apart.
        for_each_row_tile<kMaxPoolRowTile>(
            0, ow_, cfg_.channels,
            [&]<std::size_t U, std::size_t T>(std::size_t ch0,
                                              std::size_t ox0) {
              float best[U][T];
              for (std::size_t u = 0; u < U; ++u) {
                for (std::size_t t = 0; t < T; ++t) {
                  best[u][t] = -std::numeric_limits<float>::infinity();
                }
              }
              for (std::size_t ky = 0; ky < cfg_.window; ++ky) {
                for (std::size_t kx = 0; kx < cfg_.window; ++kx) {
                  const std::size_t iy = oy * stride + ky;
                  for (std::size_t u = 0; u < U; ++u) {
                    const float* x = in + (ch0 + u) * plane +
                                     iy * cfg_.in_width + ox0 * stride + kx;
                    for (std::size_t t = 0; t < T; ++t) {
                      const float v = x[t * stride];
                      best[u][t] = v > best[u][t] ? v : best[u][t];
                    }
                  }
                }
              }
              for (std::size_t u = 0; u < U; ++u) {
                float* y = out + ((ch0 + u) * oh_ + oy) * ow_ + ox0;
                for (std::size_t t = 0; t < T; ++t) y[t] = best[u][t];
              }
            });
      }
    });
  });
}

void MaxPool2D::backward_batch(const float* x, const float* /*y*/,
                               const float* grad_out, float* grad_in,
                               std::size_t n) {
  if (grad_in == nullptr) return;  // no parameters
  std::fill_n(grad_in, input_size() * n, 0.0F);
  const std::size_t plane = cfg_.in_height * cfg_.in_width;
  dispatch_kernel([&] {
    // Each output's window max across a run of samples, branch-free: the
    // first strictly greater input, from -inf, in the forward kernel's
    // window order, so the first maximum wins on ties. A window with no
    // input above -inf (all -inf or NaN) keeps its first tap. Then each
    // sample's gradient goes to its maximum, in output order.
    constexpr std::size_t kRun = 16;
    for (std::size_t ch = 0; ch < cfg_.channels; ++ch) {
      for (std::size_t oy = 0; oy < oh_; ++oy) {
        for (std::size_t ox = 0; ox < ow_; ++ox) {
          const float* g = grad_out + ((ch * oh_ + oy) * ow_ + ox) * n;
          const auto first_tap = std::uint32_t(
              ch * plane + oy * cfg_.stride * cfg_.in_width + ox * cfg_.stride);
          for (std::size_t s0 = 0; s0 < n; s0 += kRun) {
            const std::size_t run = std::min(kRun, n - s0);
            float best[kRun];
            std::uint32_t at[kRun];
            for (std::size_t t = 0; t < kRun; ++t) {
              best[t] = -std::numeric_limits<float>::infinity();
              at[t] = first_tap;
            }
            for (std::size_t ky = 0; ky < cfg_.window; ++ky) {
              for (std::size_t kx = 0; kx < cfg_.window; ++kx) {
                const std::size_t iy = oy * cfg_.stride + ky;
                const std::size_t idx =
                    ch * plane + iy * cfg_.in_width + ox * cfg_.stride + kx;
                const float* v = x + idx * n + s0;
                for (std::size_t t = 0; t < run; ++t) {
                  const bool above = v[t] > best[t];
                  best[t] = above ? v[t] : best[t];
                  at[t] = above ? std::uint32_t(idx) : at[t];
                }
              }
            }
            for (std::size_t t = 0; t < run; ++t) {
              grad_in[std::size_t(at[t]) * n + s0 + t] += g[s0 + t];
            }
          }
        }
      }
    }
  });
}

Zonotope MaxPool2D::propagate(const Zonotope& in) const {
  // Max is not affine; soundly coarsen to the bounding box and pool that
  // as a one-column batch.
  BoxBatch box(input_size(), 1);
  box.set_box(0, in.to_box());
  BoxBatch pooled;
  VectorizedBoundBackend{}.max_pool(geometry(), box, pooled);
  return Zonotope::from_box(pooled.box(0));
}

void MaxPool2D::propagate_batch(const BoundBackend& backend,
                                const BoxBatch& in, BoxBatch& out) const {
  backend.max_pool(geometry(), in, out);
}

// ---- AvgPool2D --------------------------------------------------------------

std::string AvgPool2D::name() const {
  return "AvgPool2D(k=" + std::to_string(cfg_.window) +
         ", s=" + std::to_string(cfg_.stride) + ")";
}

void AvgPool2D::forward_batch(const float* in, float* out,
                              std::size_t n) const noexcept {
  dispatch_kernel([&] {
    const float inv = 1.0F / static_cast<float>(cfg_.window * cfg_.window);
    const std::size_t plane = cfg_.in_height * cfg_.in_width;
    for (std::size_t oy = 0; oy < oh_; ++oy) {
      for (std::size_t ox = 0; ox < ow_; ++ox) {
        // Neurons of a tile are channels at this (oy, ox).
        for_each_tile<kAvgPoolTile>(
            n, cfg_.channels,
            [&]<std::size_t U, std::size_t T>(std::size_t ch0,
                                              std::size_t s0) {
              double acc[U][T] = {};
              for (std::size_t ky = 0; ky < cfg_.window; ++ky) {
                for (std::size_t kx = 0; kx < cfg_.window; ++kx) {
                  const std::size_t iy = oy * cfg_.stride + ky;
                  const std::size_t ix = ox * cfg_.stride + kx;
                  for (std::size_t u = 0; u < U; ++u) {
                    const float* x =
                        in + ((ch0 + u) * plane + iy * cfg_.in_width + ix) * n +
                        s0;
                    for (std::size_t t = 0; t < T; ++t) acc[u][t] += x[t];
                  }
                }
              }
              for (std::size_t u = 0; u < U; ++u) {
                float* y = out + (((ch0 + u) * oh_ + oy) * ow_ + ox) * n + s0;
                for (std::size_t t = 0; t < T; ++t) {
                  y[t] = static_cast<float>(acc[u][t]) * inv;
                }
              }
            });
      }
    }
  });
}

void AvgPool2D::backward_batch(const float* /*x*/, const float* /*y*/,
                               const float* grad_out, float* grad_in,
                               std::size_t n) {
  if (grad_in == nullptr) return;  // no parameters
  std::fill_n(grad_in, input_size() * n, 0.0F);
  const float inv = 1.0F / static_cast<float>(cfg_.window * cfg_.window);
  dispatch_kernel([&] {
    for (std::size_t ch = 0; ch < cfg_.channels; ++ch) {
      for (std::size_t oy = 0; oy < oh_; ++oy) {
        for (std::size_t ox = 0; ox < ow_; ++ox) {
          const float* g = grad_out + ((ch * oh_ + oy) * ow_ + ox) * n;
          for (std::size_t ky = 0; ky < cfg_.window; ++ky) {
            for (std::size_t kx = 0; kx < cfg_.window; ++kx) {
              const std::size_t iy = oy * cfg_.stride + ky;
              const std::size_t ix = ox * cfg_.stride + kx;
              float* gi = grad_in +
                          ((ch * cfg_.in_height + iy) * cfg_.in_width + ix) * n;
              for (std::size_t s = 0; s < n; ++s) gi[s] += g[s] * inv;
            }
          }
        }
      }
    }
  });
}

void AvgPool2D::propagate_batch(const BoundBackend& backend,
                                const BoxBatch& in, BoxBatch& out) const {
  backend.avg_pool(geometry(), in, out);
}

Zonotope AvgPool2D::propagate(const Zonotope& in) const {
  if (in.dim() != input_size()) {
    throw std::invalid_argument(name() + ": zonotope input size mismatch");
  }
  // The forward kernel on the centre and on the generators, and the box
  // kernel on the radii (Zonotope::affine_image); pooling has no bias.
  std::vector<float> centre(output_size()),
      gens(output_size() * in.num_generators());
  forward_batch(in.center().data(), centre.data(), 1);
  forward_batch(in.generators().data(), gens.data(), in.num_generators());
  BoxBatch err;
  VectorizedBoundBackend{}.avg_pool(geometry(), in.radius_box(), err);
  return Zonotope::affine_image(std::move(centre), std::move(gens),
                                err.upper().storage(), {});
}

}  // namespace ranm
