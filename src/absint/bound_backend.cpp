// Shape validation for every backend (NVI wrappers): each checks its
// arguments, reshapes the output batch and dispatches. Kernels live in
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

/// Reshapes `out` to dim × in.size() for a kernel to fill. A kernel reads
/// `in` while it writes `out`, so they may not be the same batch.
void prepare_out(const BoxBatch& in, BoxBatch& out, std::size_t dim,
                 const char* what) {
  if (&in == &out) {
    throw std::invalid_argument(std::string("BoundBackend::") + what +
                                ": input and output are the same batch");
  }
  out.reshape(dim, in.size());
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

/// LeakyReLU's slope must lie in [0, 1), the range its max(v, αv) form and
/// the box transfer's endpoint mapping are exact for.
void check_alpha(float alpha, const char* what) {
  if (!(alpha >= 0.0F) || alpha >= 1.0F) {
    throw std::invalid_argument(std::string("BoundBackend::") + what +
                                ": alpha must be in [0, 1)");
  }
}

void check_epilogue(const Epilogue& ep, const char* what) {
  if (ep.kind == Epilogue::Kind::kLeakyRelu) check_alpha(ep.alpha, what);
}

}  // namespace

void BoundBackend::affine(std::span<const float> w, std::size_t rows,
                          std::size_t cols, std::span<const float> bias,
                          const BoxBatch& in, BoxBatch& out,
                          Epilogue ep) const {
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
  check_epilogue(ep, "affine");
  check_dim(in, cols, "affine");
  prepare_out(in, out, rows, "affine");
  do_affine(w, rows, cols, bias, in, out, ep);
}

void BoundBackend::conv2d(const Conv2DGeometry& g, std::span<const float> w,
                          std::span<const float> bias, const BoxBatch& in,
                          BoxBatch& out, Epilogue ep) const {
  if (g.input_size() == 0 || g.output_size() == 0 || g.stride == 0) {
    throw std::invalid_argument("BoundBackend::conv2d: empty geometry");
  }
  if (w.size() != g.out_channels * g.in_channels * g.kernel_h * g.kernel_w) {
    throw std::invalid_argument("BoundBackend::conv2d: weight size mismatch");
  }
  if (bias.size() != g.out_channels) {
    throw std::invalid_argument("BoundBackend::conv2d: bias size mismatch");
  }
  check_epilogue(ep, "conv2d");
  check_dim(in, g.input_size(), "conv2d");
  prepare_out(in, out, g.output_size(), "conv2d");
  do_conv2d(g, w, bias, in, out, ep);
}

void BoundBackend::max_pool(const Pool2DGeometry& g, const BoxBatch& in,
                            BoxBatch& out) const {
  if (g.input_size() == 0 || g.output_size() == 0 || g.window == 0 ||
      g.stride == 0) {
    throw std::invalid_argument("BoundBackend::max_pool: empty geometry");
  }
  check_pool_fits(g, "max_pool");
  check_dim(in, g.input_size(), "max_pool");
  prepare_out(in, out, g.output_size(), "max_pool");
  do_max_pool(g, in, out);
}

void BoundBackend::avg_pool(const Pool2DGeometry& g, const BoxBatch& in,
                            BoxBatch& out) const {
  if (g.input_size() == 0 || g.output_size() == 0 || g.window == 0 ||
      g.stride == 0) {
    throw std::invalid_argument("BoundBackend::avg_pool: empty geometry");
  }
  check_pool_fits(g, "avg_pool");
  check_dim(in, g.input_size(), "avg_pool");
  prepare_out(in, out, g.output_size(), "avg_pool");
  do_avg_pool(g, in, out);
}

void BoundBackend::relu(const BoxBatch& in, BoxBatch& out) const {
  prepare_out(in, out, in.dimension(), "relu");
  do_relu(in, out);
}

void BoundBackend::leaky_relu(float alpha, const BoxBatch& in,
                              BoxBatch& out) const {
  check_alpha(alpha, "leaky_relu");
  prepare_out(in, out, in.dimension(), "leaky_relu");
  do_leaky_relu(alpha, in, out);
}

void BoundBackend::normalize(std::span<const float> mean,
                             std::span<const float> inv_std,
                             const BoxBatch& in, BoxBatch& out) const {
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
  prepare_out(in, out, in.dimension(), "normalize");
  do_normalize(mean, inv_std, in, out);
}

void BoundBackend::monotone(float (*f)(float), const BoxBatch& in,
                            BoxBatch& out) const {
  if (f == nullptr) {
    throw std::invalid_argument("BoundBackend::monotone: null function");
  }
  prepare_out(in, out, in.dimension(), "monotone");
  do_monotone(f, in, out);
}

}  // namespace ranm
