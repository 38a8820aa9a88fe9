#include "absint/interval.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace ranm {

Interval::Interval(float l, float h) : lo(l), hi(h) {
  if (l > h) {
    throw std::invalid_argument("Interval: lo " + std::to_string(l) +
                                " > hi " + std::to_string(h));
  }
}

Interval Interval::around(float c, float r) {
  // Positive predicate so NaN (which fails every comparison) is rejected
  // alongside negative and infinite radii.
  if (!(r >= 0.0F) || !std::isfinite(r)) {
    throw std::invalid_argument(
        "Interval::around: radius must be finite and >= 0, got " +
        std::to_string(r));
  }
  return make_unchecked(c - r, c + r);
}

Interval Interval::hull(const Interval& o) const noexcept {
  return make_unchecked(std::min(lo, o.lo), std::max(hi, o.hi));
}

Interval Interval::operator+(const Interval& o) const noexcept {
  return make_unchecked(lo + o.lo, hi + o.hi);
}

Interval Interval::operator-(const Interval& o) const noexcept {
  return make_unchecked(lo - o.hi, hi - o.lo);
}

Interval Interval::operator*(const Interval& o) const noexcept {
  const float a = lo * o.lo, b = lo * o.hi, c = hi * o.lo, d = hi * o.hi;
  return make_unchecked(std::min(std::min(a, b), std::min(c, d)),
                        std::max(std::max(a, b), std::max(c, d)));
}

Interval Interval::operator+(float s) const noexcept {
  return make_unchecked(lo + s, hi + s);
}

Interval Interval::scaled(float s) const noexcept {
  return s >= 0.0F ? make_unchecked(lo * s, hi * s)
                   : make_unchecked(hi * s, lo * s);
}

namespace {
float sigmoid_scalar(float v) noexcept { return 1.0F / (1.0F + std::exp(-v)); }
}  // namespace

Interval Interval::sigmoid() const noexcept {
  return make_unchecked(sigmoid_scalar(lo), sigmoid_scalar(hi));
}

Interval Interval::tanh_() const noexcept {
  return make_unchecked(std::tanh(lo), std::tanh(hi));
}

std::string Interval::str() const {
  std::ostringstream out;
  out << '[' << lo << ", " << hi << ']';
  return out.str();
}

IntervalVector IntervalVector::from_point(std::span<const float> v) {
  std::vector<Interval> ivs;
  ivs.reserve(v.size());
  for (float x : v) ivs.emplace_back(x);
  return IntervalVector(std::move(ivs));
}

IntervalVector IntervalVector::linf_ball(std::span<const float> v,
                                         float delta) {
  if (!(delta >= 0.0F) || !std::isfinite(delta)) {
    throw std::invalid_argument(
        "IntervalVector::linf_ball: delta must be finite and >= 0");
  }
  std::vector<Interval> ivs;
  ivs.reserve(v.size());
  for (float x : v) ivs.push_back(Interval::around(x, delta));
  return IntervalVector(std::move(ivs));
}

bool IntervalVector::contains(std::span<const float> v) const noexcept {
  if (v.size() != ivs_.size()) return false;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (!ivs_[i].contains(v[i])) return false;
  }
  return true;
}

bool IntervalVector::contains(const IntervalVector& o) const noexcept {
  if (o.size() != ivs_.size()) return false;
  for (std::size_t i = 0; i < ivs_.size(); ++i) {
    if (!ivs_[i].contains(o[i])) return false;
  }
  return true;
}

IntervalVector IntervalVector::hull(const IntervalVector& o) const {
  if (o.size() != ivs_.size()) {
    throw std::invalid_argument("IntervalVector::hull: size mismatch");
  }
  std::vector<Interval> out(ivs_.size());
  for (std::size_t i = 0; i < ivs_.size(); ++i) out[i] = ivs_[i].hull(o[i]);
  return IntervalVector(std::move(out));
}

std::vector<float> IntervalVector::lowers() const {
  std::vector<float> v(ivs_.size());
  for (std::size_t i = 0; i < ivs_.size(); ++i) v[i] = ivs_[i].lo;
  return v;
}

std::vector<float> IntervalVector::uppers() const {
  std::vector<float> v(ivs_.size());
  for (std::size_t i = 0; i < ivs_.size(); ++i) v[i] = ivs_[i].hi;
  return v;
}

std::vector<float> IntervalVector::centers() const {
  std::vector<float> v(ivs_.size());
  for (std::size_t i = 0; i < ivs_.size(); ++i) v[i] = ivs_[i].center();
  return v;
}

float IntervalVector::max_width() const noexcept {
  float m = 0.0F;
  for (const auto& iv : ivs_) m = std::max(m, iv.width());
  return m;
}

float IntervalVector::total_width() const noexcept {
  float s = 0.0F;
  for (const auto& iv : ivs_) s += iv.width();
  return s;
}

std::string IntervalVector::str() const {
  std::ostringstream out;
  out << '{';
  const std::size_t show = std::min<std::size_t>(ivs_.size(), 8);
  for (std::size_t i = 0; i < show; ++i) {
    if (i) out << ", ";
    out << ivs_[i].str();
  }
  if (ivs_.size() > show) out << ", ...";
  out << '}';
  return out.str();
}

}  // namespace ranm
