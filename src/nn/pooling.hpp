// Spatial pooling layers over CHW images.
#pragma once

#include "nn/layer.hpp"

namespace ranm {

/// Shared geometry for pooling layers (window k x k, stride s, no padding).
class Pooling : public Layer {
 public:
  struct Config {
    std::size_t channels;
    std::size_t in_height;
    std::size_t in_width;
    std::size_t window = 2;
    std::size_t stride = 2;
  };

  explicit Pooling(const Config& cfg);
  [[nodiscard]] Shape input_shape() const override;
  [[nodiscard]] Shape output_shape() const override;
  [[nodiscard]] const Config& config() const noexcept { return cfg_; }

 protected:
  /// The window geometry in the form the bound backends consume.
  [[nodiscard]] Pool2DGeometry geometry() const noexcept;

  Config cfg_;
  std::size_t oh_, ow_;
};

/// Max pooling. The zonotope transformer falls back to the bounding box of
/// the input zonotope (sound; maxima are not affine).
class MaxPool2D final : public Pooling {
 public:
  explicit MaxPool2D(const Config& cfg) : Pooling(cfg) {}
  [[nodiscard]] std::string name() const override;
  void forward_batch(const float* in, float* out,
                     std::size_t n) const noexcept override;
  /// Routes each output gradient to its window's argmax, recomputed from
  /// `x` in the forward kernel's window order (first maximum wins on
  /// ties).
  [[nodiscard]] Tensor backward(const Tensor& x, const Tensor& y,
                                const Tensor& grad_out) override;
  [[nodiscard]] Zonotope propagate(const Zonotope& in) const override;
  void propagate_batch(const BoundBackend& backend, const BoxBatch& in,
                       BoxBatch& out) const override;

 private:
  struct WindowMax {
    float value;
    std::size_t index;  // flat input index
  };
  [[nodiscard]] WindowMax window_max(const float* in, std::size_t ch,
                                     std::size_t oy,
                                     std::size_t ox) const noexcept;
};

/// Average pooling (linear, so both abstract transformers are exact).
class AvgPool2D final : public Pooling {
 public:
  explicit AvgPool2D(const Config& cfg) : Pooling(cfg) {}
  [[nodiscard]] std::string name() const override;
  void forward_batch(const float* in, float* out,
                     std::size_t n) const noexcept override;
  [[nodiscard]] Tensor backward(const Tensor& x, const Tensor& y,
                                const Tensor& grad_out) override;
  [[nodiscard]] Zonotope propagate(const Zonotope& in) const override;
  void propagate_batch(const BoundBackend& backend, const BoxBatch& in,
                       BoxBatch& out) const override;

};

}  // namespace ranm
