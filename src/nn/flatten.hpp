// Flatten layer: reshapes CHW feature maps to a rank-1 vector.
#pragma once

#include "nn/layer.hpp"

namespace ranm {

/// Identity on data; only the shape changes. The forward kernel copies and
/// the abstract transformers are the identity, because batches and
/// zonotopes are already flat.
class Flatten final : public Layer {
 public:
  explicit Flatten(Shape in_shape);

  [[nodiscard]] std::string name() const override { return "Flatten"; }
  [[nodiscard]] Shape input_shape() const override { return in_shape_; }
  [[nodiscard]] Shape output_shape() const override {
    return {shape_numel(in_shape_)};
  }

  void forward_batch(const float* in, float* out,
                     std::size_t n) const noexcept override;
  void backward_batch(const float* x, const float* y, const float* grad_out,
                      float* grad_in, std::size_t n) override;
  [[nodiscard]] Zonotope propagate(const Zonotope& in) const override;
  void propagate_batch(const BoundBackend& backend, const BoxBatch& in,
                       BoxBatch& out) const override;

 private:
  Shape in_shape_;
};

}  // namespace ranm
