#include "core/feature_batch.hpp"

#include <limits>
#include <stdexcept>
#include <string>

namespace ranm {

namespace {

void check_shape(std::size_t dim, std::size_t size) {
  if (dim == 0 && size != 0) {
    throw std::invalid_argument(
        "FeatureBatch: zero dimension with non-zero size");
  }
  if (size != 0 && dim > std::numeric_limits<std::size_t>::max() / size) {
    throw std::invalid_argument("FeatureBatch: dim * size overflows");
  }
}

}  // namespace

FeatureBatch::FeatureBatch(std::size_t dim, std::size_t size)
    : dim_(dim), size_(size) {
  check_shape(dim, size);
  data_.assign(dim * size, 0.0F);
}

void FeatureBatch::reshape(std::size_t dim, std::size_t size) {
  if (is_view()) {
    throw std::logic_error("FeatureBatch::reshape: view batches are read-only");
  }
  check_shape(dim, size);
  if (data_.size() < dim * size) data_.resize(dim * size);
  dim_ = dim;
  size_ = size;
}

FeatureBatch FeatureBatch::from_samples(
    std::size_t dim, std::span<const std::vector<float>> samples) {
  FeatureBatch batch(dim, samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    batch.set_sample(i, samples[i]);
  }
  return batch;
}

FeatureBatch FeatureBatch::view_rows(
    std::span<const std::uint32_t> rows) const {
  FeatureBatch view;
  view.dim_ = rows.size();
  view.size_ = size_;
  view.rows_.reserve(rows.size());
  for (const std::uint32_t r : rows) {
    if (r >= dim_) {
      throw std::out_of_range("FeatureBatch::view_rows: row out of range");
    }
    // Resolving through row_ptr lets views compose (a view of a view
    // aliases the original owner directly).
    view.rows_.push_back(row_ptr(r));
  }
  if (view.rows_.empty()) {
    throw std::invalid_argument("FeatureBatch::view_rows: empty row set");
  }
  return view;
}

std::span<float> FeatureBatch::neuron(std::size_t j) {
  if (is_view()) {
    throw std::logic_error(
        "FeatureBatch::neuron: view batches are read-only");
  }
  if (j >= dim_) throw std::out_of_range("FeatureBatch::neuron");
  return {data_.data() + j * size_, size_};
}

std::span<const float> FeatureBatch::neuron(std::size_t j) const {
  if (j >= dim_) throw std::out_of_range("FeatureBatch::neuron");
  return {row_ptr(j), size_};
}

void FeatureBatch::set_sample(std::size_t i, std::span<const float> feature) {
  if (is_view()) {
    throw std::logic_error(
        "FeatureBatch::set_sample: view batches are read-only");
  }
  if (i >= size_) throw std::out_of_range("FeatureBatch::set_sample");
  if (feature.size() != dim_) {
    throw std::invalid_argument(
        "FeatureBatch::set_sample: feature has dimension " +
        std::to_string(feature.size()) + ", batch has " +
        std::to_string(dim_));
  }
  for (std::size_t j = 0; j < dim_; ++j) data_[j * size_ + i] = feature[j];
}

void FeatureBatch::copy_sample(std::size_t i, std::span<float> out) const {
  if (i >= size_) throw std::out_of_range("FeatureBatch::copy_sample");
  if (out.size() != dim_) {
    throw std::invalid_argument(
        "FeatureBatch::copy_sample: output has dimension " +
        std::to_string(out.size()) + ", batch has " + std::to_string(dim_));
  }
  for (std::size_t j = 0; j < dim_; ++j) out[j] = row_ptr(j)[i];
}

std::vector<float> FeatureBatch::sample(std::size_t i) const {
  std::vector<float> out(dim_);
  copy_sample(i, out);
  return out;
}

std::span<const float> FeatureBatch::storage() const {
  if (is_view()) {
    throw std::logic_error(
        "FeatureBatch::storage: view batches have no contiguous storage");
  }
  return {data_.data(), dim_ * size_};
}

std::span<float> FeatureBatch::storage() {
  if (is_view()) {
    throw std::logic_error(
        "FeatureBatch::storage: view batches have no contiguous storage");
  }
  return {data_.data(), dim_ * size_};
}

}  // namespace ranm
