#include "core/perturbation_estimator.hpp"

#include <cmath>
#include <stdexcept>

#include "absint/zonotope.hpp"

namespace ranm {

std::string_view bound_domain_name(BoundDomain domain) noexcept {
  switch (domain) {
    case BoundDomain::kBox:
      return "box";
    case BoundDomain::kZonotope:
      return "zonotope";
  }
  return "?";
}

PerturbationEstimator::PerturbationEstimator(const Network& net,
                                             std::size_t layer_k,
                                             PerturbationSpec spec)
    : net_(net), k_(layer_k), spec_(spec) {
  if (k_ == 0 || k_ > net.num_layers()) {
    throw std::invalid_argument(
        "PerturbationEstimator: layer k out of range");
  }
  if (spec_.kp >= k_) {
    throw std::invalid_argument(
        "PerturbationEstimator: requires kp < k (Definition 1)");
  }
  // NaN fails every comparison, so test the validity predicate directly:
  // a plain `delta < 0` check would wave NaN (and +inf) through into the
  // propagation.
  if (!std::isfinite(spec_.delta) || spec_.delta < 0.0F) {
    throw std::invalid_argument(
        "PerturbationEstimator: delta must be finite and >= 0, got " +
        std::to_string(spec_.delta));
  }
}

std::size_t PerturbationEstimator::feature_dim() const {
  return net_.layer(k_).output_size();
}

IntervalVector PerturbationEstimator::estimate(const Tensor& input) const {
  switch (spec_.domain) {
    case BoundDomain::kBox:
      return estimate_batch({&input, 1}).box(0);
    case BoundDomain::kZonotope: {
      // Concrete prefix: ˘v's centre is G^{kp}(input); kp = 0 keeps the
      // input.
      const Tensor at_kp = net_.forward_to(spec_.kp, input);
      const Zonotope ball = Zonotope::linf_ball(at_kp.span(), spec_.delta);
      return net_.propagate_zonotope(spec_.kp + 1, k_, ball).to_box();
    }
  }
  throw std::logic_error("PerturbationEstimator: unknown domain");
}

BoxBatch PerturbationEstimator::estimate_batch(
    std::span<const Tensor> inputs) const {
  if (inputs.empty()) return BoxBatch(feature_dim(), 0);
  switch (spec_.domain) {
    case BoundDomain::kBox: {
      // One batched pass: each block's concrete prefix (kp = 0: its
      // pack) becomes its Δ-ball in place and is propagated through
      // layers kp+1..k.
      return net_.propagate_ball_batch(spec_.kp, k_, inputs, spec_.delta,
                                       VectorizedBoundBackend{});
    }
    case BoundDomain::kZonotope: {
      BoxBatch out(feature_dim(), inputs.size());
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        out.set_box(i, estimate(inputs[i]));
      }
      return out;
    }
  }
  throw std::logic_error("PerturbationEstimator: unknown domain");
}

std::vector<float> PerturbationEstimator::features(
    const Tensor& input) const {
  const Tensor f = net_.forward_to(k_, input);
  return {f.data(), f.data() + f.numel()};
}

}  // namespace ranm
