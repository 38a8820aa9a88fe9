// 2-D convolution layer over CHW images.
#pragma once

#include "nn/layer.hpp"

namespace ranm {

/// Convolution with square-free (kh x kw) kernels, integer stride, and
/// symmetric zero padding. Input and output are CHW tensors; the abstract
/// transformers view them as flat row-major vectors.
class Conv2D final : public Layer {
 public:
  struct Config {
    std::size_t in_channels;
    std::size_t in_height;
    std::size_t in_width;
    std::size_t out_channels;
    std::size_t kernel_h = 3;
    std::size_t kernel_w = 3;
    std::size_t stride = 1;
    std::size_t padding = 0;
  };

  explicit Conv2D(const Config& cfg);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] Shape input_shape() const override;
  [[nodiscard]] Shape output_shape() const override;

  void forward_batch(const float* in, float* out,
                     std::size_t n) const noexcept override;
  [[nodiscard]] Tensor backward(const Tensor& x, const Tensor& y,
                                const Tensor& grad_out) override;
  [[nodiscard]] Zonotope propagate(const Zonotope& in) const override;
  void propagate_batch(const BoundBackend& backend, const BoxBatch& in,
                       BoxBatch& out) const override;

  [[nodiscard]] std::vector<Tensor*> parameters() override {
    return {&w_, &b_};
  }
  [[nodiscard]] std::vector<Tensor*> gradients() override {
    return {&gw_, &gb_};
  }
  void init_params(Rng& rng) override;

  [[nodiscard]] const Config& config() const noexcept { return cfg_; }
  [[nodiscard]] std::size_t out_height() const noexcept { return oh_; }
  [[nodiscard]] std::size_t out_width() const noexcept { return ow_; }
  [[nodiscard]] Tensor& weights() noexcept { return w_; }
  [[nodiscard]] const Tensor& weights() const noexcept { return w_; }
  [[nodiscard]] Tensor& bias() noexcept { return b_; }
  [[nodiscard]] const Tensor& bias() const noexcept { return b_; }

 private:
  Config cfg_;
  std::size_t oh_, ow_;
  Tensor w_;   // (out_c, in_c, kh, kw)
  Tensor b_;   // (out_c)
  Tensor gw_, gb_;
};

}  // namespace ranm
