// Fixed elementwise normalisation: y_j = (x_j - mean_j) * inv_std_j.
//
// Deployment networks normalise raw sensor inputs before the first
// trainable layer. The parameters are fixed statistics (not trained), so
// the layer is a pure affine map with exact abstract transformers —
// including through the zonotope domain, where it is generator-preserving.
#pragma once

#include "nn/layer.hpp"

namespace ranm {

/// Per-element (x - mean) * inv_std layer with frozen statistics.
class Normalization final : public Layer {
 public:
  /// Per-element statistics; both vectors must have numel(shape) entries.
  /// inv_std entries must be positive and finite.
  Normalization(Shape shape, std::vector<float> mean,
                std::vector<float> inv_std);
  /// Shared scalar statistics for every element.
  Normalization(Shape shape, float mean, float inv_std);

  [[nodiscard]] std::string name() const override { return "Normalization"; }
  [[nodiscard]] Shape input_shape() const override { return shape_; }
  [[nodiscard]] Shape output_shape() const override { return shape_; }

  void forward_batch(const float* in, float* out,
                     std::size_t n) const noexcept override;
  void backward_batch(const float* x, const float* y, const float* grad_out,
                      float* grad_in, std::size_t n) override;
  [[nodiscard]] Zonotope propagate(const Zonotope& in) const override;
  void propagate_batch(const BoundBackend& backend, const BoxBatch& in,
                       BoxBatch& out) const override;

  [[nodiscard]] const std::vector<float>& mean() const noexcept {
    return mean_;
  }
  [[nodiscard]] const std::vector<float>& inv_std() const noexcept {
    return inv_std_;
  }

 private:
  Shape shape_;
  std::vector<float> mean_, inv_std_;
};

}  // namespace ranm
