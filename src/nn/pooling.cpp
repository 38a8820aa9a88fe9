#include "nn/pooling.hpp"

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

MaxPool2D::WindowMax MaxPool2D::window_max(
    const float* in, std::size_t ch, std::size_t oy,
    std::size_t ox) const noexcept {
  WindowMax best{-std::numeric_limits<float>::infinity(), 0};
  for (std::size_t ky = 0; ky < cfg_.window; ++ky) {
    for (std::size_t kx = 0; kx < cfg_.window; ++kx) {
      const std::size_t iy = oy * cfg_.stride + ky;
      const std::size_t ix = ox * cfg_.stride + kx;
      const std::size_t idx = (ch * cfg_.in_height + iy) * cfg_.in_width + ix;
      if (in[idx] > best.value) best = {in[idx], idx};
    }
  }
  return best;
}

void MaxPool2D::forward_batch(const float* in, float* out,
                              std::size_t n) const noexcept {
  dispatch_kernel([&] {
    const std::size_t plane = cfg_.in_height * cfg_.in_width;
    for (std::size_t oy = 0; oy < oh_; ++oy) {
      for (std::size_t ox = 0; ox < ow_; ++ox) {
        // Neurons of a tile are channels at this (oy, ox).
        for_each_tile<kMaxPoolTile>(
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

Tensor MaxPool2D::backward(const Tensor& x, const Tensor& /*y*/,
                           const Tensor& grad_out) {
  if (x.numel() != input_size() || grad_out.numel() != output_size()) {
    throw std::invalid_argument(name() + ": gradient size mismatch");
  }
  Tensor grad_in(input_shape());
  for (std::size_t ch = 0; ch < cfg_.channels; ++ch) {
    for (std::size_t oy = 0; oy < oh_; ++oy) {
      for (std::size_t ox = 0; ox < ow_; ++ox) {
        grad_in[window_max(x.data(), ch, oy, ox).index] +=
            grad_out[(ch * oh_ + oy) * ow_ + ox];
      }
    }
  }
  return grad_in;
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

Tensor AvgPool2D::backward(const Tensor& /*x*/, const Tensor& /*y*/,
                           const Tensor& grad_out) {
  if (grad_out.numel() != output_size()) {
    throw std::invalid_argument(name() + ": gradient size mismatch");
  }
  const float inv = 1.0F / static_cast<float>(cfg_.window * cfg_.window);
  Tensor grad_in(input_shape());
  for (std::size_t ch = 0; ch < cfg_.channels; ++ch) {
    for (std::size_t oy = 0; oy < oh_; ++oy) {
      for (std::size_t ox = 0; ox < ow_; ++ox) {
        const float g = grad_out[(ch * oh_ + oy) * ow_ + ox] * inv;
        for (std::size_t ky = 0; ky < cfg_.window; ++ky) {
          for (std::size_t kx = 0; kx < cfg_.window; ++kx) {
            const std::size_t iy = oy * cfg_.stride + ky;
            const std::size_t ix = ox * cfg_.stride + kx;
            grad_in[(ch * cfg_.in_height + iy) * cfg_.in_width + ix] += g;
          }
        }
      }
    }
  }
  return grad_in;
}

void AvgPool2D::propagate_batch(const BoundBackend& backend,
                                const BoxBatch& in, BoxBatch& out) const {
  backend.avg_pool(geometry(), in, out);
}

Zonotope AvgPool2D::propagate(const Zonotope& in) const {
  if (in.dim() != input_size()) {
    throw std::invalid_argument(name() + ": zonotope input size mismatch");
  }
  // The forward pass's float scale, inside the map: the pass rounds the
  // window sum to float, then multiplies by inv in float.
  const double inv = 1.0F / static_cast<float>(cfg_.window * cfg_.window);
  const std::size_t plane = cfg_.in_height * cfg_.in_width;
  const LinearMap window_mean = [&](const float* x, double* y,
                                    bool /*absolute: inv > 0*/) {
    for (std::size_t ch = 0; ch < cfg_.channels; ++ch) {
      for (std::size_t oy = 0; oy < oh_; ++oy) {
        for (std::size_t ox = 0; ox < ow_; ++ox) {
          double acc = 0.0;
          for (std::size_t ky = 0; ky < cfg_.window; ++ky) {
            for (std::size_t kx = 0; kx < cfg_.window; ++kx) {
              acc += x[ch * plane + (oy * cfg_.stride + ky) * cfg_.in_width +
                       ox * cfg_.stride + kx];
            }
          }
          y[(ch * oh_ + oy) * ow_ + ox] = inv * acc;
        }
      }
    }
  };
  return in.linear(output_size(), {}, window_mean);
}

}  // namespace ranm
