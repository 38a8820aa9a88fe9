#include "absint/box_batch.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace ranm {

BoxBatch::BoxBatch(std::size_t dim, std::size_t size)
    : lo_(dim, size), hi_(dim, size) {}

BoxBatch BoxBatch::linf_ball(const FeatureBatch& centers, float delta) {
  if (!std::isfinite(delta) || delta < 0.0F) {
    throw std::invalid_argument(
        "BoxBatch::linf_ball: delta must be finite and >= 0, got " +
        std::to_string(delta));
  }
  BoxBatch out;
  out.reshape(centers.dimension(), centers.size());
  const std::size_t n = centers.size();
  for (std::size_t j = 0; j < centers.dimension(); ++j) {
    const std::span<const float> c = centers.neuron(j);
    float* lo = out.lo_row(j).data();
    float* hi = out.hi_row(j).data();
    for (std::size_t i = 0; i < n; ++i) {
      // Same expressions as Interval::around(c, delta).
      lo[i] = c[i] - delta;
      hi[i] = c[i] + delta;
    }
  }
  return out;
}

IntervalVector BoxBatch::box(std::size_t i) const {
  if (i >= size()) throw std::out_of_range("BoxBatch::box: sample index");
  std::vector<Interval> ivs(dimension());
  for (std::size_t j = 0; j < dimension(); ++j) {
    ivs[j] = Interval::make_unchecked(lo_.at(j, i), hi_.at(j, i));
  }
  return IntervalVector(std::move(ivs));
}

void BoxBatch::set_box(std::size_t i, const IntervalVector& box) {
  if (i >= size()) throw std::out_of_range("BoxBatch::set_box: sample index");
  if (box.size() != dimension()) {
    throw std::invalid_argument("BoxBatch::set_box: dimension mismatch");
  }
  for (std::size_t j = 0; j < dimension(); ++j) {
    if (box[j].is_empty()) {
      throw std::invalid_argument("BoxBatch::set_box: empty interval");
    }
    lo_.at(j, i) = box[j].lo;
    hi_.at(j, i) = box[j].hi;
  }
}

bool BoxBatch::contains(std::size_t i,
                        std::span<const float> v) const noexcept {
  if (i >= size() || v.size() != dimension()) return false;
  for (std::size_t j = 0; j < v.size(); ++j) {
    // Positive form so a NaN coordinate is *not* contained (matching
    // Interval::contains), rather than slipping past both rejections.
    if (!(lo_.at(j, i) <= v[j] && v[j] <= hi_.at(j, i))) return false;
  }
  return true;
}

}  // namespace ranm
