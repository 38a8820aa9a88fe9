// Zonotope abstract domain — the tighter alternative bound engine the paper
// cites (Gehr et al., "AI2", S&P 2018). A zonotope represents the set
//
//   { c + sum_i eps_i * g_i  :  eps_i in [-1, 1] }
//
// with center c in R^d and generators g_i in R^d. Affine layers transform
// zonotopes exactly (no precision loss), which is why zonotopes dominate
// plain interval propagation on deep affine chains. Nonlinear activations
// use the standard DeepZ-style minimal-area approximation, adding one fresh
// noise symbol per approximated neuron.
//
// Centre and generators are floats, while the concrete forward pass rounds
// every layer's output to float. Each dimension therefore also carries a
// rounding radius e_j: the set is c + Σ ε_i g_i + δ with |δ_j| <= e_j (one
// fresh noise symbol per dimension, stored as a diagonal). The linear and
// elementwise transfers grow it to cover the forward pass's rounding, so
// the zonotope holds the concrete float activation at any Δ.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "absint/interval.hpp"

namespace ranm {

/// A linear map without bias for Zonotope::linear: writes A·x (|A|·x when
/// `absolute`) for one input vector x, accumulated in double.
using LinearMap =
    std::function<void(const float* x, double* y, bool absolute)>;

/// Zonotope over R^d with a shared set of noise symbols.
/// Generators are stored row-major: gens_[i * dim + j] is the j-th
/// coordinate of generator i.
class Zonotope {
 public:
  Zonotope() = default;
  /// Degenerate zonotope equal to a point.
  static Zonotope from_point(std::span<const float> c);
  /// L-infinity ball of radius delta around c: one generator per dimension.
  static Zonotope linf_ball(std::span<const float> c, float delta);
  /// Zonotope from an interval box (one generator per non-degenerate dim).
  static Zonotope from_box(const IntervalVector& box);

  [[nodiscard]] std::size_t dim() const noexcept { return center_.size(); }
  [[nodiscard]] std::size_t num_generators() const noexcept {
    return dim() == 0 ? 0 : gens_.size() / dim();
  }
  [[nodiscard]] const std::vector<float>& center() const noexcept {
    return center_;
  }

  /// Generator i as a span of length dim().
  [[nodiscard]] std::span<const float> generator(std::size_t i) const;

  /// Concretises dimension j to an interval:
  /// [c_j - sum_i |g_ij| - e_j, c_j + sum_i |g_ij| + e_j].
  [[nodiscard]] Interval concretize(std::size_t j) const noexcept;
  /// Concretises the whole zonotope to its bounding box.
  [[nodiscard]] IntervalVector to_box() const;

  /// Affine image y = W x + b with W given row-major (rows x dim()), as
  /// linear() computes it. Returns a zonotope of dimension `rows`.
  [[nodiscard]] Zonotope affine(std::span<const float> w, std::size_t rows,
                                std::span<const float> b) const;

  /// Image under y = A x + b (`b` empty: no bias), sound for a forward
  /// pass that accumulates A x in double, rounds it to float and then does
  /// at most one more float operation (the bias add, or average pooling's
  /// scale inside A). Centre and generators are A c and A g_i accumulated
  /// in double, the bias added to the centre afterwards; the rounding radii
  /// grow to cover the forward pass's and this transfer's float roundings.
  [[nodiscard]] Zonotope linear(std::size_t rows, std::span<const float> b,
                                const LinearMap& map) const;

  /// Per-dimension normalisation y_j = (x_j - mean_j) * scale_j, in that
  /// order as the forward pass computes it; the rounding radii grow to
  /// cover its float roundings and this transfer's.
  [[nodiscard]] Zonotope normalize(std::span<const float> mean,
                                   std::span<const float> scale) const;

  /// DeepZ ReLU transformer: exact where the sign is fixed, minimal-area
  /// linear relaxation (lambda = u/(u-l)) with one fresh noise symbol where
  /// the interval straddles zero. Slopes and shifts are applied in double,
  /// and the rounding radii grow to cover the float roundings, as in
  /// normalize().
  [[nodiscard]] Zonotope relu() const;

  /// Leaky-ReLU transformer (alpha in [0,1)); same relaxation strategy.
  [[nodiscard]] Zonotope leaky_relu(float alpha) const;

  /// Sound but coarse transformer for arbitrary monotone sigmoid-shaped
  /// functions: falls back to the bounding box of the image. Used for
  /// sigmoid/tanh where we do not implement the tighter slope relaxation.
  [[nodiscard]] Zonotope monotone_via_box(Interval (*f)(const Interval&)) const;

  /// Builds a zonotope from explicit parts (sizes validated); an empty
  /// `rounding` means zero radii.
  Zonotope(std::vector<float> center, std::vector<float> gens,
           std::vector<float> rounding = {});

  /// Drops generators whose total magnitude is below `eps`, folding their
  /// mass into a single box generator per dimension (order reduction).
  /// Keeps soundness; loses some precision.
  [[nodiscard]] Zonotope reduced(float eps) const;

 private:
  std::vector<float> center_;
  std::vector<float> gens_;  // num_generators x dim, row-major
  std::vector<float> err_;   // dim rounding radii, >= 0
};

}  // namespace ranm
