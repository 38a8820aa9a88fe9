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
//   * VectorizedBoundBackend — neuron-major sweeps over contiguous BoxBatch
//     rows with the per-sample accumulation order preserved, written so the
//     compiler auto-vectorizes the affine/ReLU/pool hot loops across the
//     batch lane. The engine every production path runs.
//   * ReferenceBoundBackend — plain per-sample loops with the same
//     arithmetic. Not selectable: tests and bench_domains construct it
//     directly as the differential oracle for the vectorized kernels.
#pragma once

#include <cstddef>
#include <span>
#include <string_view>

#include "absint/box_batch.hpp"

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
/// entry points validate shapes once and dispatch to the backend's
/// kernels; implementations may assume validated inputs. All methods are
/// const and reentrant. Input batches must be owning (contiguous rows).
class BoundBackend {
 public:
  virtual ~BoundBackend() = default;

  /// Short identifier ("reference", "vectorized") for reports and test
  /// messages.
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Dense affine map y = W x + b with W row-major (rows × cols):
  /// centre/radius interval propagation with outward rounding.
  [[nodiscard]] BoxBatch affine(std::span<const float> w, std::size_t rows,
                                std::size_t cols, std::span<const float> bias,
                                const BoxBatch& in) const;

  /// Convolution over CHW boxes; zero padding contributes [0, 0].
  [[nodiscard]] BoxBatch conv2d(const Conv2DGeometry& g,
                                std::span<const float> w,
                                std::span<const float> bias,
                                const BoxBatch& in) const;

  /// Max pooling: elementwise interval max over each window.
  [[nodiscard]] BoxBatch max_pool(const Pool2DGeometry& g,
                                  const BoxBatch& in) const;

  /// Average pooling: exact affine window mean with outward rounding.
  [[nodiscard]] BoxBatch avg_pool(const Pool2DGeometry& g,
                                  const BoxBatch& in) const;

  /// ReLU: [max(0, lo), max(0, hi)] per element.
  [[nodiscard]] BoxBatch relu(const BoxBatch& in) const;

  /// LeakyReLU with slope alpha on the negative side.
  [[nodiscard]] BoxBatch leaky_relu(float alpha, const BoxBatch& in) const;

  /// Fixed elementwise normalisation: (x - mean_j) * inv_std_j with
  /// inv_std_j > 0 (monotone, endpoints map to endpoints — the same
  /// scalar expression as the concrete path).
  [[nodiscard]] BoxBatch normalize(std::span<const float> mean,
                                   std::span<const float> inv_std,
                                   const BoxBatch& in) const;

  /// Monotone non-decreasing elementwise function (sigmoid, tanh):
  /// [f(lo), f(hi)] per element.
  [[nodiscard]] BoxBatch monotone(float (*f)(float),
                                  const BoxBatch& in) const;

 protected:
  // Kernel implementations; inputs are validated by the public wrappers.
  [[nodiscard]] virtual BoxBatch do_affine(std::span<const float> w,
                                           std::size_t rows, std::size_t cols,
                                           std::span<const float> bias,
                                           const BoxBatch& in) const = 0;
  [[nodiscard]] virtual BoxBatch do_conv2d(const Conv2DGeometry& g,
                                           std::span<const float> w,
                                           std::span<const float> bias,
                                           const BoxBatch& in) const = 0;
  [[nodiscard]] virtual BoxBatch do_max_pool(const Pool2DGeometry& g,
                                             const BoxBatch& in) const = 0;
  [[nodiscard]] virtual BoxBatch do_avg_pool(const Pool2DGeometry& g,
                                             const BoxBatch& in) const = 0;
  [[nodiscard]] virtual BoxBatch do_relu(const BoxBatch& in) const = 0;
  [[nodiscard]] virtual BoxBatch do_leaky_relu(float alpha,
                                               const BoxBatch& in) const = 0;
  [[nodiscard]] virtual BoxBatch do_normalize(std::span<const float> mean,
                                              std::span<const float> inv_std,
                                              const BoxBatch& in) const = 0;
  [[nodiscard]] virtual BoxBatch do_monotone(float (*f)(float),
                                             const BoxBatch& in) const = 0;
};

/// Per-sample loop backend: the straightforward form of every kernel, one
/// sample at a time. The differential oracle for VectorizedBoundBackend.
class ReferenceBoundBackend final : public BoundBackend {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "reference";
  }

 protected:
  [[nodiscard]] BoxBatch do_affine(std::span<const float> w, std::size_t rows,
                                   std::size_t cols,
                                   std::span<const float> bias,
                                   const BoxBatch& in) const override;
  [[nodiscard]] BoxBatch do_conv2d(const Conv2DGeometry& g,
                                   std::span<const float> w,
                                   std::span<const float> bias,
                                   const BoxBatch& in) const override;
  [[nodiscard]] BoxBatch do_max_pool(const Pool2DGeometry& g,
                                     const BoxBatch& in) const override;
  [[nodiscard]] BoxBatch do_avg_pool(const Pool2DGeometry& g,
                                     const BoxBatch& in) const override;
  [[nodiscard]] BoxBatch do_relu(const BoxBatch& in) const override;
  [[nodiscard]] BoxBatch do_leaky_relu(float alpha,
                                       const BoxBatch& in) const override;
  [[nodiscard]] BoxBatch do_normalize(std::span<const float> mean,
                                      std::span<const float> inv_std,
                                      const BoxBatch& in) const override;
  [[nodiscard]] BoxBatch do_monotone(float (*f)(float),
                                     const BoxBatch& in) const override;
};

/// Vectorized CPU backend, the production engine: contiguous neuron-major
/// sweeps with the batch dimension innermost, so the affine/ReLU/pool hot
/// loops auto-vectorize. Per-sample accumulation order (and therefore
/// rounding) matches the reference backend exactly; only the loop nest
/// differs.
class VectorizedBoundBackend final : public BoundBackend {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "vectorized";
  }

 protected:
  [[nodiscard]] BoxBatch do_affine(std::span<const float> w, std::size_t rows,
                                   std::size_t cols,
                                   std::span<const float> bias,
                                   const BoxBatch& in) const override;
  [[nodiscard]] BoxBatch do_conv2d(const Conv2DGeometry& g,
                                   std::span<const float> w,
                                   std::span<const float> bias,
                                   const BoxBatch& in) const override;
  [[nodiscard]] BoxBatch do_max_pool(const Pool2DGeometry& g,
                                     const BoxBatch& in) const override;
  [[nodiscard]] BoxBatch do_avg_pool(const Pool2DGeometry& g,
                                     const BoxBatch& in) const override;
  [[nodiscard]] BoxBatch do_relu(const BoxBatch& in) const override;
  [[nodiscard]] BoxBatch do_leaky_relu(float alpha,
                                       const BoxBatch& in) const override;
  [[nodiscard]] BoxBatch do_normalize(std::span<const float> mean,
                                      std::span<const float> inv_std,
                                      const BoxBatch& in) const override;
  [[nodiscard]] BoxBatch do_monotone(float (*f)(float),
                                     const BoxBatch& in) const override;
};

}  // namespace ranm
