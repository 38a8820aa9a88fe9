// Perturbation estimate pe^G_k(v, kp, Δ) — Definition 1 of the paper.
//
// Given a training input v, the estimate runs the concrete network up to
// layer kp, inflates the resulting vector to an L-infinity ball of radius
// Δ (the "perturbation occurring at the output of layer kp"; kp = 0 means
// the input layer), and pushes that set through the remaining layers
// kp+1..k with a sound abstract domain. The result is a per-neuron bound
// <(l_1,u_1),...,(l_dk,u_dk)> at layer k that provably contains
// G^{kp+1↪k}(v') for every Δ-bounded perturbation v' of G^{kp}(v).
#pragma once

#include "absint/interval.hpp"
#include "nn/network.hpp"

namespace ranm {

/// Which sound bound engine propagates the perturbation set.
enum class BoundDomain {
  kBox,       // interval bound propagation [3] — the paper's implementation
  kZonotope,  // affine-form propagation [4] — tighter, costlier
};

[[nodiscard]] std::string_view bound_domain_name(BoundDomain domain) noexcept;

/// Parameters (kp, Δ, domain) of the robust construction.
struct PerturbationSpec {
  std::size_t kp = 0;  // perturbation layer; 0 = input layer
  float delta = 0.0F;  // per-dimension L-infinity bound Δ; finite, >= 0
  BoundDomain domain = BoundDomain::kBox;
};

/// Computes perturbation estimates at a fixed monitored layer k.
class PerturbationEstimator {
 public:
  /// Requires 0 <= spec.kp < k <= net.num_layers() and spec.delta >= 0.
  /// The network reference must outlive the estimator.
  PerturbationEstimator(const Network& net, std::size_t layer_k,
                        PerturbationSpec spec);

  [[nodiscard]] std::size_t layer_k() const noexcept { return k_; }
  [[nodiscard]] const PerturbationSpec& spec() const noexcept {
    return spec_;
  }
  /// Feature dimension d_k at the monitored layer.
  [[nodiscard]] std::size_t feature_dim() const;

  /// pe^G_k(input, kp, Δ): per-neuron sound bounds at layer k for one
  /// sample. The box domain is column 0 of estimate_batch on a one-sample
  /// batch.
  [[nodiscard]] IntervalVector estimate(const Tensor& input) const;

  /// Batched estimate over a whole minibatch: column i of the result is
  /// pe^G_k(inputs[i], kp, Δ). The box domain is one
  /// Network::propagate_ball_batch on the vectorized bound backend; the
  /// zonotope domain propagates one zonotope per input (its generators
  /// are the batch the affine layers' kernels run) and concretises each
  /// result into the BoxBatch.
  [[nodiscard]] BoxBatch estimate_batch(std::span<const Tensor> inputs) const;

  /// The concrete feature vector G^k(input) (the Δ = 0 operation path).
  [[nodiscard]] std::vector<float> features(const Tensor& input) const;

 private:
  const Network& net_;
  std::size_t k_;
  PerturbationSpec spec_;
};

}  // namespace ranm
