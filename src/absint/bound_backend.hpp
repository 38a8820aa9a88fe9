// Batched bound propagation (interval/box domain) — the repo's one
// interval transfer function.
//
// The robust monitor construction (paper Definition 1, interval bound
// propagation per Gowal et al. 2018) pushes one perturbation set per
// training sample through the network's abstract transformers. A
// BoundBackend is the execution engine for that propagation over whole
// minibatches: every layer family maps its batched transfer function onto
// one of the primitives below, so swapping the backend swaps the kernel
// implementation for the entire stack without touching layer code. A
// single box is a one-column batch.
//
// Every primitive reads a const input batch and writes a caller-owned
// output batch, which it reshapes (BoxBatch::reshape keeps the storage,
// which only grows, and zero-fills nothing it already had) and then fills
// completely. A caller that keeps its output batches, such as
// Network::propagate_box_batch with its per-thread scratch, allocates and
// clears nothing once they have reached their largest shape.
//
// Soundness contract (every backend, every primitive):
//   * the output box of sample i must contain g(x) for every x in the
//     input box of sample i (per-sample soundness, no cross-talk);
//   * the output box must also contain what the concrete float forward
//     pass computes: affine kernels accumulate the doubled centre and
//     radius (lo + hi, hi - lo, both exact) in double without the bias,
//     then add the bias, widen by one float unit roundoff of the
//     accumulated magnitude (the forward pass rounds Σ w·x to float
//     before adding b) and narrow to float outward via
//     round_down/round_up — bounds may only ever widen;
//   * relative to the reference backend, bounds must be identical or wider
//     (never tighter) — the backend-differential test suite enforces this.
//
// Two backends exist:
//   * VectorizedBoundBackend — the engine every production path runs. The
//     affine, conv and average-pool kernels compute register tiles of
//     several output neurons by several samples (util/tile.hpp), loading
//     each input bound once per tile; the elementwise and max-pool kernels
//     sweep contiguous BoxBatch rows. Their loops are branch-free (the
//     outward rounding included, see interval.hpp), which is what lets
//     GCC vectorize them under its default -ftrapping-math. The
//     per-sample accumulation order is preserved.
//   * ReferenceBoundBackend — plain per-sample loops with the same
//     arithmetic. Not selectable: tests and bench_domains construct it
//     directly as the differential oracle for the vectorized kernels.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <string_view>

#include "absint/box_batch.hpp"
#include "util/epilogue.hpp"

namespace ranm {

/// Geometry of a 2-D convolution over flat CHW vectors (mirrors
/// Conv2D::Config plus the derived output extent).
struct Conv2DGeometry {
  std::size_t in_channels = 0;
  std::size_t in_height = 0;
  std::size_t in_width = 0;
  std::size_t out_channels = 0;
  std::size_t out_height = 0;
  std::size_t out_width = 0;
  std::size_t kernel_h = 0;
  std::size_t kernel_w = 0;
  std::size_t stride = 1;
  std::size_t padding = 0;

  [[nodiscard]] std::size_t input_size() const noexcept {
    return in_channels * in_height * in_width;
  }
  [[nodiscard]] std::size_t output_size() const noexcept {
    return out_channels * out_height * out_width;
  }
};

/// Kernel offsets [lo, hi) whose taps land inside an input axis of
/// `extent` for the window starting at `origin` (which zero padding can
/// make negative); padded taps add nothing and are skipped. Shared by the
/// concrete and the bound convolution kernels.
struct TapRange {
  std::size_t lo, hi;
};

[[nodiscard]] inline TapRange taps_inside(std::ptrdiff_t origin,
                                          std::size_t extent,
                                          std::size_t kernel) noexcept {
  const std::ptrdiff_t lo = std::max<std::ptrdiff_t>(0, -origin);
  const std::ptrdiff_t hi = std::min<std::ptrdiff_t>(
      std::ptrdiff_t(kernel), std::ptrdiff_t(extent) - origin);
  return {std::size_t(lo), std::size_t(std::max(lo, hi))};
}

/// Geometry of a k x k / stride-s pooling window over flat CHW vectors.
struct Pool2DGeometry {
  std::size_t channels = 0;
  std::size_t in_height = 0;
  std::size_t in_width = 0;
  std::size_t out_height = 0;
  std::size_t out_width = 0;
  std::size_t window = 2;
  std::size_t stride = 2;

  [[nodiscard]] std::size_t input_size() const noexcept {
    return channels * in_height * in_width;
  }
  [[nodiscard]] std::size_t output_size() const noexcept {
    return channels * out_height * out_width;
  }
};

/// Batched sound transfer-function kernels for the box domain. The public
/// entry points validate shapes once, reshape `out` to the output
/// dimension × in.size(), and dispatch to the backend's kernels;
/// implementations may assume validated inputs and must write every
/// element of `out`. All methods are const and reentrant. Batches must be
/// owning (contiguous rows), and `in` and `out` distinct objects.
class BoundBackend {
 public:
  virtual ~BoundBackend() = default;

  /// Short identifier ("reference", "vectorized") for reports and test
  /// messages.
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Dense affine map y = W x + b with W row-major (rows × cols):
  /// centre/radius interval propagation with outward rounding. A
  /// non-identity `ep` is the activation after the map, applied to the
  /// bounds before they leave the kernel: the bits of relu() or
  /// leaky_relu() run on the affine bounds.
  void affine(std::span<const float> w, std::size_t rows, std::size_t cols,
              std::span<const float> bias, const BoxBatch& in, BoxBatch& out,
              Epilogue ep = {}) const;

  /// Convolution over CHW boxes; zero padding contributes [0, 0]. `ep` as
  /// for affine().
  void conv2d(const Conv2DGeometry& g, std::span<const float> w,
              std::span<const float> bias, const BoxBatch& in, BoxBatch& out,
              Epilogue ep = {}) const;

  /// Max pooling: elementwise interval max over each window.
  void max_pool(const Pool2DGeometry& g, const BoxBatch& in,
                BoxBatch& out) const;

  /// Average pooling: exact affine window mean with outward rounding.
  void avg_pool(const Pool2DGeometry& g, const BoxBatch& in,
                BoxBatch& out) const;

  /// ReLU: [max(0, lo), max(0, hi)] per element.
  void relu(const BoxBatch& in, BoxBatch& out) const;

  /// LeakyReLU with slope alpha on the negative side.
  void leaky_relu(float alpha, const BoxBatch& in, BoxBatch& out) const;

  /// Fixed elementwise normalisation: (x - mean_j) * inv_std_j with
  /// inv_std_j > 0 (monotone, endpoints map to endpoints — the same
  /// scalar expression as the concrete path).
  void normalize(std::span<const float> mean, std::span<const float> inv_std,
                 const BoxBatch& in, BoxBatch& out) const;

  /// Monotone non-decreasing elementwise function (sigmoid, tanh):
  /// [f(lo), f(hi)] per element.
  void monotone(float (*f)(float), const BoxBatch& in, BoxBatch& out) const;

 protected:
  // Kernel implementations; inputs are validated by the public wrappers.
  virtual void do_affine(std::span<const float> w, std::size_t rows,
                         std::size_t cols, std::span<const float> bias,
                         const BoxBatch& in, BoxBatch& out,
                         const Epilogue& ep) const = 0;
  virtual void do_conv2d(const Conv2DGeometry& g, std::span<const float> w,
                         std::span<const float> bias, const BoxBatch& in,
                         BoxBatch& out, const Epilogue& ep) const = 0;
  virtual void do_max_pool(const Pool2DGeometry& g, const BoxBatch& in,
                           BoxBatch& out) const = 0;
  virtual void do_avg_pool(const Pool2DGeometry& g, const BoxBatch& in,
                           BoxBatch& out) const = 0;
  virtual void do_relu(const BoxBatch& in, BoxBatch& out) const = 0;
  virtual void do_leaky_relu(float alpha, const BoxBatch& in,
                             BoxBatch& out) const = 0;
  virtual void do_normalize(std::span<const float> mean,
                            std::span<const float> inv_std,
                            const BoxBatch& in, BoxBatch& out) const = 0;
  virtual void do_monotone(float (*f)(float), const BoxBatch& in,
                           BoxBatch& out) const = 0;
};

/// Per-sample loop backend: the straightforward form of every kernel, one
/// sample at a time. The differential oracle for VectorizedBoundBackend.
class ReferenceBoundBackend final : public BoundBackend {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "reference";
  }

 protected:
  void do_affine(std::span<const float> w, std::size_t rows,
                 std::size_t cols, std::span<const float> bias,
                 const BoxBatch& in, BoxBatch& out,
                 const Epilogue& ep) const override;
  void do_conv2d(const Conv2DGeometry& g, std::span<const float> w,
                 std::span<const float> bias, const BoxBatch& in,
                 BoxBatch& out, const Epilogue& ep) const override;
  void do_max_pool(const Pool2DGeometry& g, const BoxBatch& in,
                   BoxBatch& out) const override;
  void do_avg_pool(const Pool2DGeometry& g, const BoxBatch& in,
                   BoxBatch& out) const override;
  void do_relu(const BoxBatch& in, BoxBatch& out) const override;
  void do_leaky_relu(float alpha, const BoxBatch& in,
                     BoxBatch& out) const override;
  void do_normalize(std::span<const float> mean,
                    std::span<const float> inv_std, const BoxBatch& in,
                    BoxBatch& out) const override;
  void do_monotone(float (*f)(float), const BoxBatch& in,
                   BoxBatch& out) const override;
};

/// Vectorized CPU backend, the production engine: register-tiled affine,
/// conv and average-pool kernels and contiguous elementwise sweeps, with
/// the batch dimension innermost and no branch in the hot loops.
/// Per-sample accumulation order (and therefore rounding) matches the
/// reference backend exactly; only the loop nest differs.
class VectorizedBoundBackend final : public BoundBackend {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "vectorized";
  }

 protected:
  void do_affine(std::span<const float> w, std::size_t rows,
                 std::size_t cols, std::span<const float> bias,
                 const BoxBatch& in, BoxBatch& out,
                 const Epilogue& ep) const override;
  void do_conv2d(const Conv2DGeometry& g, std::span<const float> w,
                 std::span<const float> bias, const BoxBatch& in,
                 BoxBatch& out, const Epilogue& ep) const override;
  void do_max_pool(const Pool2DGeometry& g, const BoxBatch& in,
                   BoxBatch& out) const override;
  void do_avg_pool(const Pool2DGeometry& g, const BoxBatch& in,
                   BoxBatch& out) const override;
  void do_relu(const BoxBatch& in, BoxBatch& out) const override;
  void do_leaky_relu(float alpha, const BoxBatch& in,
                     BoxBatch& out) const override;
  void do_normalize(std::span<const float> mean,
                    std::span<const float> inv_std, const BoxBatch& in,
                    BoxBatch& out) const override;
  void do_monotone(float (*f)(float), const BoxBatch& in,
                   BoxBatch& out) const override;
};

}  // namespace ranm
