// Interval arithmetic — the "boxed abstraction" bound engine the paper uses
// for its perturbation estimate (Definition 1, computed via interval bound
// propagation [Gowal et al. 2018]).
//
// An Interval is a closed real interval [lo, hi]. An IntervalVector is a box
// in R^d. The layer transfer functions run batched on a BoundBackend
// (absint/bound_backend.hpp); this header provides the outward rounding
// they narrow with, and the per-box arithmetic the zonotope domain and
// the monitors use.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

namespace ranm {

namespace detail {

inline constexpr std::uint32_t kSignBit = 0x80000000U;
inline constexpr std::uint32_t kInfBits = 0x7f800000U;  // +inf

/// Bits of the float nearest v clamped to [-FLT_MAX, FLT_MAX]; NaN stays
/// NaN. The clamp is done in double, before the narrowing cast, because
/// narrowing a finite double outside float's range is undefined
/// behaviour. It clamps the magnitude (std::min returns its first
/// argument, |v|, for NaN) and restores the sign: one select, which the
/// compiler turns into a min instruction, where a two-sided clamp's
/// chained selects keep the loops from vectorizing.
inline std::uint32_t saturated_bits(double v) noexcept {
  static_assert(std::numeric_limits<float>::is_iec559);
  constexpr double kMax = std::numeric_limits<float>::max();
  return std::bit_cast<std::uint32_t>(
      static_cast<float>(std::copysign(std::min(std::fabs(v), kMax), v)));
}

}  // namespace detail

/// Rounds a double-precision lower bound outward (down) when narrowing to
/// float. Affine transfer functions accumulate in double and must not let
/// the final float rounding pull a bound inward — Lemma 1 is claimed at
/// float precision, so bounds are widened by one ulp at the cast. The
/// narrowed value saturates at ±FLT_MAX *before* the step, so the outward
/// cushion survives saturation (a double just past FLT_MAX may stand for a
/// true value just below it); the step then carries -FLT_MAX on to -inf.
/// ±0 steps to -denorm_min; NaN passes through.
///
/// After the clamp (a min on the magnitude), every step is an integer select
/// on the float's bits, with no branch and no libm call: under the default
/// -ftrapping-math the compiler may not if-convert a floating-point
/// select, so a float formulation would keep the bound kernels' loops
/// from vectorizing.
[[nodiscard]] inline float round_down(double v) noexcept {
  std::uint32_t b = detail::saturated_bits(v);
  b = b == 0 ? detail::kSignBit : b;  // +0 steps like -0
  const std::uint32_t stepped = (b & detail::kSignBit) != 0 ? b + 1 : b - 1;
  const bool nan = (b & ~detail::kSignBit) > detail::kInfBits;
  return std::bit_cast<float>(nan ? b : stepped);
}

/// Rounds a double-precision upper bound outward (up) to float: the
/// mirror of round_down (+FLT_MAX steps to +inf, ±0 to +denorm_min).
[[nodiscard]] inline float round_up(double v) noexcept {
  std::uint32_t b = detail::saturated_bits(v);
  b = b == detail::kSignBit ? 0 : b;  // -0 steps like +0
  const std::uint32_t stepped = (b & detail::kSignBit) != 0 ? b - 1 : b + 1;
  const bool nan = (b & ~detail::kSignBit) > detail::kInfBits;
  return std::bit_cast<float>(nan ? b : stepped);
}

/// Float unit roundoff u = 2^-24: rounding a double v to float moves it by
/// at most u·|v| (normal range). The affine bound kernels widen by
/// u·(|centre| + radius) to cover the concrete pass rounding Σ w·x to
/// float before it adds the bias.
inline constexpr double kFloatUnitRoundoff = 0x1p-24;

/// Closed interval [lo, hi]. An interval with lo > hi is "empty"; the
/// constructors never produce one, but is_empty() is provided for callers
/// that build intervals manually.
struct Interval {
  float lo = 0.0F;
  float hi = 0.0F;

  constexpr Interval() = default;
  /// Degenerate interval [v, v].
  constexpr explicit Interval(float v) : lo(v), hi(v) {}
  /// Interval [l, h]; throws if l > h (use make_unchecked to skip).
  Interval(float l, float h);
  /// Builds [l, h] without validation.
  static constexpr Interval make_unchecked(float l, float h) {
    Interval iv;
    iv.lo = l;
    iv.hi = h;
    return iv;
  }
  /// Interval centred at c with radius r >= 0: [c - r, c + r].
  static Interval around(float c, float r);

  [[nodiscard]] constexpr bool is_empty() const noexcept { return lo > hi; }
  [[nodiscard]] constexpr float width() const noexcept { return hi - lo; }
  [[nodiscard]] constexpr float center() const noexcept {
    return 0.5F * (lo + hi);
  }
  [[nodiscard]] constexpr float radius() const noexcept {
    return 0.5F * (hi - lo);
  }
  [[nodiscard]] constexpr bool contains(float v) const noexcept {
    return lo <= v && v <= hi;
  }
  [[nodiscard]] constexpr bool contains(const Interval& o) const noexcept {
    return lo <= o.lo && o.hi <= hi;
  }
  /// Smallest interval containing both (interval join / hull).
  [[nodiscard]] Interval hull(const Interval& o) const noexcept;

  // Arithmetic (standard interval semantics).
  [[nodiscard]] Interval operator+(const Interval& o) const noexcept;
  [[nodiscard]] Interval operator-(const Interval& o) const noexcept;
  [[nodiscard]] Interval operator*(const Interval& o) const noexcept;
  [[nodiscard]] Interval operator+(float s) const noexcept;
  /// Scaling by a (possibly negative) constant.
  [[nodiscard]] Interval scaled(float s) const noexcept;

  // Monotone transfer functions (the zonotope domain's sigmoid and tanh
  // go through the bounding box).
  [[nodiscard]] Interval sigmoid() const noexcept;
  [[nodiscard]] Interval tanh_() const noexcept;

  [[nodiscard]] std::string str() const;

  friend constexpr bool operator==(const Interval& a,
                                   const Interval& b) noexcept {
    return a.lo == b.lo && a.hi == b.hi;
  }
};

/// A box in R^d: one interval per dimension.
class IntervalVector {
 public:
  IntervalVector() = default;
  /// d copies of [0, 0].
  explicit IntervalVector(std::size_t d) : ivs_(d) {}
  explicit IntervalVector(std::vector<Interval> ivs) : ivs_(std::move(ivs)) {}
  /// Degenerate box equal to a point.
  static IntervalVector from_point(std::span<const float> v);
  /// L-infinity ball: [v_j - delta, v_j + delta] in every dimension.
  static IntervalVector linf_ball(std::span<const float> v, float delta);

  [[nodiscard]] std::size_t size() const noexcept { return ivs_.size(); }
  [[nodiscard]] bool empty() const noexcept { return ivs_.empty(); }
  Interval& operator[](std::size_t i) noexcept { return ivs_[i]; }
  const Interval& operator[](std::size_t i) const noexcept { return ivs_[i]; }

  [[nodiscard]] auto begin() noexcept { return ivs_.begin(); }
  [[nodiscard]] auto end() noexcept { return ivs_.end(); }
  [[nodiscard]] auto begin() const noexcept { return ivs_.begin(); }
  [[nodiscard]] auto end() const noexcept { return ivs_.end(); }

  /// True if the point lies inside the box (every coordinate).
  [[nodiscard]] bool contains(std::span<const float> v) const noexcept;
  /// True if `o` is contained in this box dimension-wise.
  [[nodiscard]] bool contains(const IntervalVector& o) const noexcept;
  /// Dimension-wise hull.
  [[nodiscard]] IntervalVector hull(const IntervalVector& o) const;
  /// Vector of lower bounds.
  [[nodiscard]] std::vector<float> lowers() const;
  /// Vector of upper bounds.
  [[nodiscard]] std::vector<float> uppers() const;
  /// Vector of midpoints.
  [[nodiscard]] std::vector<float> centers() const;
  /// Largest width over all dimensions.
  [[nodiscard]] float max_width() const noexcept;
  /// Sum of widths (a simple volume proxy that avoids under/overflow).
  [[nodiscard]] float total_width() const noexcept;

  [[nodiscard]] std::string str() const;

 private:
  std::vector<Interval> ivs_;
};

}  // namespace ranm
