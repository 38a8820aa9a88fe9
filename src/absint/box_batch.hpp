// Batch-first box container for bound propagation.
//
// A BoxBatch is the abstract-domain counterpart of FeatureBatch: the
// per-neuron bounds of n samples stored as two structure-of-arrays dim × n
// matrices (lo and hi), each row-major and neuron-major. Row j of `lower()`
// holds neuron j's lower bound for every sample in the batch, so the
// batched layer transfer functions sweep contiguous memory with the
// neuron's parameters loaded once — the same orientation the batched
// monitor kernels use — and the robust construction hands `lower()` /
// `upper()` straight to Monitor::observe_bounds_batch with no copies.
#pragma once

#include <cstddef>
#include <span>

#include "absint/interval.hpp"
#include "core/feature_batch.hpp"

namespace ranm {

/// Per-sample boxes in R^dim over one pair of dim × n matrices.
class BoxBatch {
 public:
  /// Empty batch over a zero-dimensional space.
  BoxBatch() = default;
  /// `size` copies of the degenerate box {0}^dim. dim == 0 is only valid
  /// together with size == 0 (FeatureBatch invariant).
  BoxBatch(std::size_t dim, std::size_t size);

  /// Gives both bound matrices the shape dim × size, keeping their storage
  /// and leaving the bounds unspecified (FeatureBatch::reshape): the
  /// output form of every BoundBackend kernel, which then writes each
  /// bound.
  void reshape(std::size_t dim, std::size_t size) {
    lo_.reshape(dim, size);
    hi_.reshape(dim, size);
  }

  /// One L-infinity ball of radius `delta` per column of `centers`:
  /// box i is [centers(j,i) - delta, centers(j,i) + delta] per neuron j.
  /// Requires delta finite and >= 0.
  static BoxBatch linf_ball(const FeatureBatch& centers, float delta);

  /// Feature-space dimension d (rows).
  [[nodiscard]] std::size_t dimension() const noexcept {
    return lo_.dimension();
  }
  /// Number of samples n (columns).
  [[nodiscard]] std::size_t size() const noexcept { return lo_.size(); }
  [[nodiscard]] bool empty() const noexcept { return lo_.empty(); }

  /// The lower / upper bound matrices. Shapes always agree; the batched
  /// observe path feeds them to Monitor::observe_bounds_batch directly.
  [[nodiscard]] FeatureBatch& lower() noexcept { return lo_; }
  [[nodiscard]] const FeatureBatch& lower() const noexcept { return lo_; }
  [[nodiscard]] FeatureBatch& upper() noexcept { return hi_; }
  [[nodiscard]] const FeatureBatch& upper() const noexcept { return hi_; }

  /// Scalar bound accessors (neuron j, sample i); unchecked.
  [[nodiscard]] float lo(std::size_t j, std::size_t i) const noexcept {
    return lo_.at(j, i);
  }
  [[nodiscard]] float hi(std::size_t j, std::size_t i) const noexcept {
    return hi_.at(j, i);
  }
  [[nodiscard]] float& lo(std::size_t j, std::size_t i) noexcept {
    return lo_.at(j, i);
  }
  [[nodiscard]] float& hi(std::size_t j, std::size_t i) noexcept {
    return hi_.at(j, i);
  }

  /// Contiguous bound rows of neuron j (its bound for every sample).
  [[nodiscard]] std::span<const float> lo_row(std::size_t j) const {
    return lo_.neuron(j);
  }
  [[nodiscard]] std::span<const float> hi_row(std::size_t j) const {
    return hi_.neuron(j);
  }
  [[nodiscard]] std::span<float> lo_row(std::size_t j) {
    return lo_.neuron(j);
  }
  [[nodiscard]] std::span<float> hi_row(std::size_t j) {
    return hi_.neuron(j);
  }

  /// Gathers column i into an IntervalVector (checked).
  [[nodiscard]] IntervalVector box(std::size_t i) const;
  /// Scatters a box into column i (checked; box.size() must equal
  /// dimension(), and every interval must be non-empty).
  void set_box(std::size_t i, const IntervalVector& box);

  /// True if column i contains the point (every coordinate inside).
  [[nodiscard]] bool contains(std::size_t i,
                              std::span<const float> v) const noexcept;

 private:
  FeatureBatch lo_;
  FeatureBatch hi_;
};

}  // namespace ranm
