// Shape validation for every backend (NVI wrappers). Kernels live in
// backend_reference.cpp / backend_vectorized.cpp.
#include "absint/bound_backend.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace ranm {

namespace {

void check_dim(const BoxBatch& in, std::size_t expected, const char* what) {
  if (in.dimension() != expected) {
    throw std::invalid_argument(std::string("BoundBackend::") + what +
                                ": input dimension " +
                                std::to_string(in.dimension()) +
                                " does not match expected " +
                                std::to_string(expected));
  }
}

/// The last window along one axis must fit the input extent, or the
/// kernels read past the row: (out - 1) * stride + window <= in.
void check_pool_fits(const Pool2DGeometry& g, const char* what) {
  if ((g.out_height - 1) * g.stride + g.window > g.in_height ||
      (g.out_width - 1) * g.stride + g.window > g.in_width) {
    throw std::invalid_argument(std::string("BoundBackend::") + what +
                                ": pooling window overruns the input "
                                "extent");
  }
}

}  // namespace

BoxBatch BoundBackend::affine(std::span<const float> w, std::size_t rows,
                              std::size_t cols, std::span<const float> bias,
                              const BoxBatch& in) const {
  if (rows == 0 || cols == 0) {
    throw std::invalid_argument("BoundBackend::affine: zero dimension");
  }
  if (w.size() != rows * cols) {
    throw std::invalid_argument("BoundBackend::affine: weight size " +
                                std::to_string(w.size()) + " != rows*cols");
  }
  if (bias.size() != rows) {
    throw std::invalid_argument("BoundBackend::affine: bias size mismatch");
  }
  check_dim(in, cols, "affine");
  return do_affine(w, rows, cols, bias, in);
}

BoxBatch BoundBackend::conv2d(const Conv2DGeometry& g,
                              std::span<const float> w,
                              std::span<const float> bias,
                              const BoxBatch& in) const {
  if (g.input_size() == 0 || g.output_size() == 0 || g.stride == 0) {
    throw std::invalid_argument("BoundBackend::conv2d: empty geometry");
  }
  if (w.size() != g.out_channels * g.in_channels * g.kernel_h * g.kernel_w) {
    throw std::invalid_argument("BoundBackend::conv2d: weight size mismatch");
  }
  if (bias.size() != g.out_channels) {
    throw std::invalid_argument("BoundBackend::conv2d: bias size mismatch");
  }
  check_dim(in, g.input_size(), "conv2d");
  return do_conv2d(g, w, bias, in);
}

BoxBatch BoundBackend::max_pool(const Pool2DGeometry& g,
                                const BoxBatch& in) const {
  if (g.input_size() == 0 || g.output_size() == 0 || g.window == 0 ||
      g.stride == 0) {
    throw std::invalid_argument("BoundBackend::max_pool: empty geometry");
  }
  check_pool_fits(g, "max_pool");
  check_dim(in, g.input_size(), "max_pool");
  return do_max_pool(g, in);
}

BoxBatch BoundBackend::avg_pool(const Pool2DGeometry& g,
                                const BoxBatch& in) const {
  if (g.input_size() == 0 || g.output_size() == 0 || g.window == 0 ||
      g.stride == 0) {
    throw std::invalid_argument("BoundBackend::avg_pool: empty geometry");
  }
  check_pool_fits(g, "avg_pool");
  check_dim(in, g.input_size(), "avg_pool");
  return do_avg_pool(g, in);
}

BoxBatch BoundBackend::relu(const BoxBatch& in) const { return do_relu(in); }

BoxBatch BoundBackend::leaky_relu(float alpha, const BoxBatch& in) const {
  if (!(alpha >= 0.0F) || alpha >= 1.0F) {
    throw std::invalid_argument(
        "BoundBackend::leaky_relu: alpha must be in [0, 1)");
  }
  return do_leaky_relu(alpha, in);
}

BoxBatch BoundBackend::normalize(std::span<const float> mean,
                                 std::span<const float> inv_std,
                                 const BoxBatch& in) const {
  if (mean.size() != in.dimension() || inv_std.size() != in.dimension()) {
    throw std::invalid_argument(
        "BoundBackend::normalize: statistics size mismatch");
  }
  // Monotonicity (endpoints map to endpoints) requires inv_std > 0; a
  // non-positive scale would silently invert lo/hi.
  for (const float s : inv_std) {
    if (!(s > 0.0F) || !std::isfinite(s)) {
      throw std::invalid_argument(
          "BoundBackend::normalize: inv_std must be positive and finite");
    }
  }
  return do_normalize(mean, inv_std, in);
}

BoxBatch BoundBackend::monotone(float (*f)(float), const BoxBatch& in) const {
  if (f == nullptr) {
    throw std::invalid_argument("BoundBackend::monotone: null function");
  }
  return do_monotone(f, in);
}

}  // namespace ranm
