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
// fresh noise symbol per dimension, stored as a diagonal). The affine and
// elementwise transfers grow it to cover the forward pass's rounding, so
// the zonotope holds the concrete float activation at any Δ.
//
// Dense, Conv2D and AvgPool2D (y = A x + b) run their own kernels: the
// forward kernel on c with the bias gives the centre c', the forward
// pass's own float result, so it carries the same two roundings of A c
// (AvgPool2D: of the window sum, then its float scale, which A holds,
// with b = 0); the same kernel on the generators, a batch with one column
// each, and a zero bias gives g'_i, rounded once (AvgPool2D's twice); and
// the box kernel on [-e, e] gives a >= |A|·e. With m = |c'| + Σ|g'_i| + a
// and |A c| <= |c'| + |b|, those roundings move the forward value at most
// 4u·(m + |b|) from c' + Σ ε_i g'_i + a·[-1, 1], u = 2^-24, to first
// order. (AvgPool2D's box kernel scales by 1/k² in double where the pass's
// scale is the float one, which can leave a short of |A|·e by a relative
// u, inside the 4u too.) The radius grows to a + 5u·(m + |b|), rounded up:
// the extra u covers the terms of order u² and the double accumulation.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "absint/box_batch.hpp"
#include "absint/interval.hpp"

namespace ranm {

/// Zonotope over R^d with a shared set of noise symbols.
class Zonotope {
 public:
  Zonotope() = default;
  /// Degenerate zonotope equal to a point.
  static Zonotope from_point(std::span<const float> c);
  /// L-infinity ball of radius delta around c: one generator per dimension.
  static Zonotope linf_ball(std::span<const float> c, float delta);
  /// Zonotope from an interval box (one generator per non-degenerate dim).
  static Zonotope from_box(const IntervalVector& box);

  /// Builds a zonotope from explicit parts (sizes validated): `gens` holds
  /// dim × num_generators values, neuron-major; an empty `rounding` means
  /// zero radii.
  Zonotope(std::vector<float> center, std::vector<float> gens,
           std::vector<float> rounding = {});

  [[nodiscard]] std::size_t dim() const noexcept { return center_.size(); }
  [[nodiscard]] std::size_t num_generators() const noexcept {
    return dim() == 0 ? 0 : gens_.size() / dim();
  }
  [[nodiscard]] const std::vector<float>& center() const noexcept {
    return center_;
  }
  /// The generators as a FeatureBatch-layout batch with one column per
  /// generator: dim() rows of num_generators(), row j coordinate j of each.
  [[nodiscard]] const std::vector<float>& generators() const noexcept {
    return gens_;
  }
  /// Generator i (a column of generators()), gathered into dim() values.
  [[nodiscard]] std::vector<float> generator(std::size_t i) const;
  /// The one-column box [-e, e] of the rounding radii, for a box kernel
  /// to bound |A|·e.
  [[nodiscard]] BoxBatch radius_box() const;

  /// Concretises dimension j to an interval:
  /// [c_j - sum_i |g_ij| - e_j, c_j + sum_i |g_ij| + e_j].
  [[nodiscard]] Interval concretize(std::size_t j) const noexcept;
  /// Concretises the whole zonotope to its bounding box.
  [[nodiscard]] IntervalVector to_box() const;

  /// Affine image y = W x + b with W row-major (rows x dim()): Dense's
  /// transfer, on its tile kernel (dense_forward) and its box kernel.
  [[nodiscard]] Zonotope affine(std::span<const float> w, std::size_t rows,
                                std::span<const float> b) const;

  /// The image under an affine layer from its kernels' outputs, as the
  /// argument at the top of this file has them: `centre` (c'), `gens`
  /// (g', neuron-major) and `abs_err` (a: the box kernel's upper bounds on
  /// radius_box() with a zero bias). `b` holds one bias per run of
  /// rows / b.size() rows (a Dense row, a Conv2D channel); empty for none.
  [[nodiscard]] static Zonotope affine_image(std::vector<float> centre,
                                             std::vector<float> gens,
                                             std::span<const float> abs_err,
                                             std::span<const float> b);

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

 private:
  std::vector<float> center_;
  std::vector<float> gens_;  // dim x num_generators, see generators()
  std::vector<float> err_;   // dim rounding radii, >= 0
};

}  // namespace ranm
