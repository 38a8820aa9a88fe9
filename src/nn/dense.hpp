// Fully-connected layer: y = W x + b.
#pragma once

#include "nn/layer.hpp"

namespace ranm {

/// The Dense tile kernel, y = W x + b (W row-major, rows × cols) over n
/// neuron-major samples, each output accumulated in double, cast to float,
/// then biased: Dense::forward_fused's, and Zonotope::affine's on a
/// zonotope's centre and, with a zero bias, its generators.
void dense_forward(const float* w, const float* bias, std::size_t rows,
                   std::size_t cols, const float* in, float* out,
                   std::size_t n) noexcept;

/// Affine layer with weight matrix W (out x in) and bias b (out).
class Dense final : public AffineLayer {
 public:
  /// Creates a zero-initialised layer; call init_params to randomise.
  Dense(std::size_t in, std::size_t out);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] Shape input_shape() const override { return {in_}; }
  [[nodiscard]] Shape output_shape() const override { return {out_}; }

  void forward_fused(const float* in, float* out, std::size_t n,
                     const Epilogue& ep) const noexcept override;
  void backward_batch(const float* x, const float* y, const float* grad_out,
                      float* grad_in, std::size_t n) override;
  [[nodiscard]] Zonotope propagate(const Zonotope& in) const override;
  void propagate_fused(const BoundBackend& backend, const BoxBatch& in,
                       BoxBatch& out, const Epilogue& ep) const override;

  [[nodiscard]] std::vector<Tensor*> parameters() override {
    return {&w_, &b_};
  }
  [[nodiscard]] std::vector<Tensor*> gradients() override {
    return {&gw_, &gb_};
  }
  void init_params(Rng& rng) override;

  [[nodiscard]] Tensor& weights() noexcept { return w_; }
  [[nodiscard]] const Tensor& weights() const noexcept { return w_; }
  [[nodiscard]] Tensor& bias() noexcept { return b_; }
  [[nodiscard]] const Tensor& bias() const noexcept { return b_; }

 private:
  std::size_t in_, out_;
  Tensor w_, b_;    // parameters
  Tensor gw_, gb_;  // gradient accumulators
};

}  // namespace ranm
