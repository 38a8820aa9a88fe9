#include "nn/optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/isa.hpp"

namespace ranm {

Optimizer::Optimizer(std::vector<Tensor*> params, std::vector<Tensor*> grads)
    : params_(std::move(params)), grads_(std::move(grads)) {
  if (params_.size() != grads_.size()) {
    throw std::invalid_argument("Optimizer: params/grads count mismatch");
  }
  for (std::size_t i = 0; i < params_.size(); ++i) {
    if (!params_[i] || !grads_[i]) {
      throw std::invalid_argument("Optimizer: null tensor pointer");
    }
    if (params_[i]->shape() != grads_[i]->shape()) {
      throw std::invalid_argument("Optimizer: param/grad shape mismatch");
    }
  }
}

void Optimizer::step() {
  for (std::size_t i = 0; i < params_.size(); ++i) {
    update(i, *params_[i], *grads_[i]);
    grads_[i]->zero();
  }
}

SGD::SGD(std::vector<Tensor*> params, std::vector<Tensor*> grads,
         const Config& cfg)
    : Optimizer(std::move(params), std::move(grads)), cfg_(cfg) {
  velocity_.reserve(params_.size());
  for (Tensor* p : params_) velocity_.emplace_back(p->shape());
}

void SGD::update(std::size_t i, Tensor& param, const Tensor& grad) {
  const float lr = cfg_.learning_rate;
  const float momentum = cfg_.momentum;
  const float decay = cfg_.weight_decay;
  float* p = param.data();
  const float* gr = grad.data();
  float* vel = velocity_[i].data();
  const std::size_t count = param.numel();
  dispatch_kernel([&] {
    for (std::size_t j = 0; j < count; ++j) {
      const float g = gr[j] + decay * p[j];
      vel[j] = momentum * vel[j] - lr * g;
      p[j] += vel[j];
    }
  });
}

Adam::Adam(std::vector<Tensor*> params, std::vector<Tensor*> grads,
           const Config& cfg)
    : Optimizer(std::move(params), std::move(grads)), cfg_(cfg) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Tensor* p : params_) {
    m_.emplace_back(p->shape());
    v_.emplace_back(p->shape());
  }
}

void Adam::update(std::size_t i, Tensor& param, const Tensor& grad) {
  // One global timestep per step() call: bump when the first parameter of
  // the round is updated.
  if (i == 0 || t_ == 0) ++t_;
  const auto t = static_cast<float>(t_);
  const float bc1 = 1.0F - std::pow(cfg_.beta1, t);
  const float bc2 = 1.0F - std::pow(cfg_.beta2, t);
  const float lr = cfg_.learning_rate;
  const float beta1 = cfg_.beta1;
  const float beta2 = cfg_.beta2;
  const float keep1 = 1.0F - beta1;
  const float keep2 = 1.0F - beta2;
  const float epsilon = cfg_.epsilon;
  const float decay = cfg_.weight_decay;
  float* p = param.data();
  const float* gr = grad.data();
  float* m = m_[i].data();
  float* v = v_[i].data();
  const std::size_t count = param.numel();
  root_.resize(std::max(root_.size(), count));
  float* root = root_.data();
  // The moments, then the square roots in a loop of their own: GCC
  // vectorises a sqrt only without errno, which only the whole
  // translation unit's flags can turn off, and a scalar sqrt call in the
  // moments' loop would keep all of it scalar. Every operation is
  // correctly rounded, so the split changes no bits.
  dispatch_kernel([&] {
    for (std::size_t j = 0; j < count; ++j) {
      const float g = gr[j] + decay * p[j];
      m[j] = beta1 * m[j] + keep1 * g;
      v[j] = beta2 * v[j] + keep2 * g * g;
      root[j] = v[j] / bc2;
    }
  });
  for (std::size_t j = 0; j < count; ++j) root[j] = std::sqrt(root[j]);
  dispatch_kernel([&] {
    for (std::size_t j = 0; j < count; ++j) {
      const float mhat = m[j] / bc1;
      p[j] -= lr * mhat / (root[j] + epsilon);
    }
  });
}

}  // namespace ranm
