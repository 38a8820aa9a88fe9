// Batch-first feature container for the monitoring hot path.
//
// Deployment-side monitoring evaluates whole frames/minibatches, not single
// inputs, so the query pipeline is organised around a FeatureBatch: the
// layer-k activations of n samples stored as a row-major dim × n matrix
// over one contiguous allocation. Row j holds neuron j's value for every
// sample in the batch, so per-neuron work (min-max envelopes, threshold
// coding, interval sweeps) runs over contiguous memory with the neuron's
// parameters loaded once — the cache-friendly orientation for every monitor
// family — while per-sample views are gathered on demand.
//
// A batch can also be a non-owning *row-subset view* of another batch
// (view_rows): the sharding layer hands each shard a view of its own
// neurons' rows, so one feature-extraction pass feeds every shard with no
// copies. Views keep the same per-row contiguity guarantees the batched
// monitor kernels rely on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/aligned.hpp"

namespace ranm {

/// Row-major dim × n matrix of feature vectors (neuron-major storage).
class FeatureBatch {
 public:
  /// Empty batch over a zero-dimensional space.
  FeatureBatch() = default;
  /// Zero-filled batch of `size` samples in R^dim. dim == 0 is only valid
  /// together with size == 0.
  FeatureBatch(std::size_t dim, std::size_t size);

  /// Gives an owning batch the shape dim × size, keeping its storage and
  /// leaving the contents unspecified, so the caller must write every
  /// element it reads. The storage only grows, to the largest shape the
  /// batch has had, and only that growth is allocated and zero-filled:
  /// scratch that is reshaped per call costs nothing after the first.
  /// Same preconditions as the constructor; throws std::logic_error on a
  /// view.
  void reshape(std::size_t dim, std::size_t size);

  /// Packs sample-major vectors (one per sample) into a batch.
  static FeatureBatch from_samples(
      std::size_t dim, std::span<const std::vector<float>> samples);

  /// Feature-space dimension d (rows).
  [[nodiscard]] std::size_t dimension() const noexcept { return dim_; }
  /// Number of samples n (columns).
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Non-owning row-subset view: neuron j of the view aliases neuron
  /// rows[j] of this batch, sharing the same samples. No feature data is
  /// copied — the view holds one pointer per selected row — so per-shard
  /// projections of one batch compose with the batched query path for
  /// free. The viewed batch must outlive the view and must not be resized
  /// or moved while views exist. Views are read-only: the mutating checked
  /// accessors throw std::logic_error.
  [[nodiscard]] FeatureBatch view_rows(
      std::span<const std::uint32_t> rows) const;
  /// True for row-subset views (which alias another batch's storage).
  [[nodiscard]] bool is_view() const noexcept { return !rows_.empty(); }

  /// Element (neuron j, sample i); unchecked. The mutable overload
  /// requires an owning batch.
  [[nodiscard]] float& at(std::size_t j, std::size_t i) noexcept {
    return data_[j * size_ + i];
  }
  [[nodiscard]] float at(std::size_t j, std::size_t i) const noexcept {
    return rows_.empty() ? data_[j * size_ + i] : rows_[j][i];
  }

  /// Contiguous row of neuron j: its value for every sample. Checked.
  [[nodiscard]] std::span<float> neuron(std::size_t j);
  [[nodiscard]] std::span<const float> neuron(std::size_t j) const;

  /// Scatters one sample's feature vector into column i. Checked.
  void set_sample(std::size_t i, std::span<const float> feature);
  /// Gathers column i into `out` (out.size() must equal dimension()).
  void copy_sample(std::size_t i, std::span<float> out) const;
  /// Gathers column i into a fresh vector.
  [[nodiscard]] std::vector<float> sample(std::size_t i) const;

  /// The whole dim × n storage, row-major. Owning batches only: a view's
  /// rows are not contiguous in its parent, so views throw
  /// std::logic_error here.
  [[nodiscard]] std::span<const float> storage() const;
  [[nodiscard]] std::span<float> storage();

 private:
  /// First element of neuron j's row (owning or view). Unchecked.
  [[nodiscard]] const float* row_ptr(std::size_t j) const noexcept {
    return rows_.empty() ? data_.data() + j * size_ : rows_[j];
  }

  std::size_t dim_ = 0;
  std::size_t size_ = 0;
  // Owning storage, cache-line aligned (util/aligned.hpp); empty for
  // views. Its first dim_ * size_ elements are the batch, and reshape()
  // may leave it longer.
  AlignedFloats data_;
  std::vector<const float*> rows_;  // view row table; empty when owning
};

}  // namespace ranm
