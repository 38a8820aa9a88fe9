// First-order optimisers over a network's parameter list.
#pragma once

#include <vector>

#include "tensor/tensor.hpp"

namespace ranm {

/// Optimiser interface: binds to parameter/gradient tensor lists once and
/// applies updates in step(). The lists must stay alive and keep their
/// shapes for the optimiser's lifetime.
class Optimizer {
 public:
  Optimizer(std::vector<Tensor*> params, std::vector<Tensor*> grads);
  virtual ~Optimizer() = default;

  /// Applies one update from the accumulated gradients, then zeroes them.
  void step();

 protected:
  /// Updates parameter i in place from gradient i.
  virtual void update(std::size_t i, Tensor& param, const Tensor& grad) = 0;

  std::vector<Tensor*> params_;
  std::vector<Tensor*> grads_;
};

/// Stochastic gradient descent with classical momentum and L2 weight decay.
class SGD final : public Optimizer {
 public:
  struct Config {
    float learning_rate = 0.01F;
    float momentum = 0.9F;
    float weight_decay = 0.0F;
  };
  SGD(std::vector<Tensor*> params, std::vector<Tensor*> grads,
      const Config& cfg);

 protected:
  void update(std::size_t i, Tensor& param, const Tensor& grad) override;

 private:
  Config cfg_;
  std::vector<Tensor> velocity_;
};

/// Adam (Kingma & Ba) with bias correction.
class Adam final : public Optimizer {
 public:
  struct Config {
    float learning_rate = 1e-3F;
    float beta1 = 0.9F;
    float beta2 = 0.999F;
    float epsilon = 1e-8F;
    float weight_decay = 0.0F;
  };
  Adam(std::vector<Tensor*> params, std::vector<Tensor*> grads,
       const Config& cfg);

 protected:
  void update(std::size_t i, Tensor& param, const Tensor& grad) override;

 private:
  Config cfg_;
  std::vector<Tensor> m_, v_;
  std::vector<float> root_;  // scratch: one parameter tensor's sqrt(v̂)
  std::size_t t_ = 0;
};

}  // namespace ranm
