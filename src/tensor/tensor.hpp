// Dense row-major float tensor used throughout the network substrate.
//
// The tensor is deliberately simple: contiguous float storage plus a shape.
// All shape errors throw std::invalid_argument at the API boundary; inner
// loops use unchecked access.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace ranm {

class Rng;

/// Shape of a tensor: extent per axis, row-major layout.
using Shape = std::vector<std::size_t>;

/// Returns the number of elements a shape describes (product of extents;
/// 1 for the empty shape).
std::size_t shape_numel(const Shape& shape) noexcept;

/// Human-readable form, e.g. "[3, 32, 32]".
std::string shape_str(const Shape& shape);

/// Dense row-major float tensor.
class Tensor {
 public:
  /// Empty tensor (rank 0, zero elements).
  Tensor() = default;
  /// Zero-initialised tensor of the given shape.
  explicit Tensor(Shape shape);
  /// Tensor of the given shape filled with `value`.
  Tensor(Shape shape, float value);
  /// Tensor wrapping the given data; data.size() must equal numel(shape).
  Tensor(Shape shape, std::vector<float> data);

  /// 1-D convenience constructor from a list of values.
  static Tensor vector(std::initializer_list<float> values);
  /// 1-D tensor copied from a span.
  static Tensor from_span(std::span<const float> values);
  /// Tensor with elements drawn uniformly from [lo, hi).
  static Tensor random_uniform(Shape shape, Rng& rng, float lo = -1.0F,
                               float hi = 1.0F);
  /// Tensor with elements drawn from N(mean, stddev^2).
  static Tensor random_normal(Shape shape, Rng& rng, float mean = 0.0F,
                              float stddev = 1.0F);

  [[nodiscard]] const Shape& shape() const noexcept { return shape_; }
  [[nodiscard]] std::size_t rank() const noexcept { return shape_.size(); }
  [[nodiscard]] std::size_t numel() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }
  /// Extent of axis `axis`; throws if out of range.
  [[nodiscard]] std::size_t dim(std::size_t axis) const;

  [[nodiscard]] float* data() noexcept { return data_.data(); }
  [[nodiscard]] const float* data() const noexcept { return data_.data(); }
  [[nodiscard]] std::span<float> span() noexcept { return data_; }
  [[nodiscard]] std::span<const float> span() const noexcept { return data_; }

  /// Flat element access (unchecked).
  float& operator[](std::size_t i) noexcept { return data_[i]; }
  float operator[](std::size_t i) const noexcept { return data_[i]; }
  /// Flat element access (checked).
  [[nodiscard]] float& at(std::size_t i);
  [[nodiscard]] float at(std::size_t i) const;

  /// 2-D access for matrices (unchecked; requires rank 2).
  float& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * shape_[1] + c];
  }
  float operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * shape_[1] + c];
  }
  /// 3-D access for CHW images (unchecked; requires rank 3).
  float& operator()(std::size_t ch, std::size_t r, std::size_t c) noexcept {
    return data_[(ch * shape_[1] + r) * shape_[2] + c];
  }
  float operator()(std::size_t ch, std::size_t r, std::size_t c) const
      noexcept {
    return data_[(ch * shape_[1] + r) * shape_[2] + c];
  }

  /// Returns a tensor with the same data and a new shape; numel must match.
  [[nodiscard]] Tensor reshaped(Shape new_shape) const;
  /// Fills every element with `value`.
  void fill(float value) noexcept;
  /// Sets all elements to zero.
  void zero() noexcept { fill(0.0F); }

  // Elementwise arithmetic (shapes must match exactly).
  Tensor& operator+=(const Tensor& rhs);
  Tensor& operator-=(const Tensor& rhs);
  Tensor& operator*=(const Tensor& rhs);
  Tensor& operator*=(float scalar) noexcept;
  Tensor& operator/=(float scalar);
  [[nodiscard]] Tensor operator+(const Tensor& rhs) const;
  [[nodiscard]] Tensor operator-(const Tensor& rhs) const;
  [[nodiscard]] Tensor operator*(float scalar) const;

  // Reductions.
  [[nodiscard]] float sum() const noexcept;
  [[nodiscard]] float mean() const;
  [[nodiscard]] float min() const;
  [[nodiscard]] float max() const;
  /// Index of the largest element; throws on empty tensor.
  [[nodiscard]] std::size_t argmax() const;
  /// L2 norm.
  [[nodiscard]] float norm2() const noexcept;
  /// L-infinity norm.
  [[nodiscard]] float norm_inf() const noexcept;

  /// True if shapes match and all elements are within `tol`.
  [[nodiscard]] bool allclose(const Tensor& rhs, float tol = 1e-5F) const
      noexcept;

  /// Human-readable dump (small tensors only; large ones are abbreviated).
  [[nodiscard]] std::string str() const;

 private:
  Shape shape_;
  std::vector<float> data_;
};

}  // namespace ranm
