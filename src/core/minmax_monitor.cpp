#include "core/minmax_monitor.hpp"

#include <algorithm>
#include <stdexcept>

#include "compile/program.hpp"

namespace ranm {

MinMaxMonitor::MinMaxMonitor(std::size_t dim)
    : lower_(dim, std::numeric_limits<float>::infinity()),
      upper_(dim, -std::numeric_limits<float>::infinity()) {
  if (dim == 0) throw std::invalid_argument("MinMaxMonitor: zero dimension");
}

MinMaxMonitor MinMaxMonitor::from_bounds(std::vector<float> lower,
                                         std::vector<float> upper,
                                         std::size_t observations) {
  if (lower.size() != upper.size() || lower.empty()) {
    throw std::invalid_argument("MinMaxMonitor::from_bounds: bad sizes");
  }
  MinMaxMonitor m(lower.size());
  m.lower_ = std::move(lower);
  m.upper_ = std::move(upper);
  m.observations_ = observations;
  return m;
}

void MinMaxMonitor::check_dim(std::size_t n, const char* what) const {
  if (n != lower_.size()) {
    throw std::invalid_argument(std::string("MinMaxMonitor::") + what +
                                ": dimension mismatch");
  }
}

void MinMaxMonitor::observe(std::span<const float> feature) {
  check_dim(feature.size(), "observe");
  for (std::size_t j = 0; j < feature.size(); ++j) {
    lower_[j] = std::min(lower_[j], feature[j]);
    upper_[j] = std::max(upper_[j], feature[j]);
  }
  ++observations_;
  invalidate_lowered();
}

void MinMaxMonitor::observe_bounds(std::span<const float> lo,
                                   std::span<const float> hi) {
  check_bounds_ordered(lo, hi, lower_.size(),
                       "MinMaxMonitor::observe_bounds");
  for (std::size_t j = 0; j < lo.size(); ++j) {
    lower_[j] = std::min(lower_[j], lo[j]);
    upper_[j] = std::max(upper_[j], hi[j]);
  }
  ++observations_;
  invalidate_lowered();
}

bool MinMaxMonitor::contains(std::span<const float> feature) const {
  check_dim(feature.size(), "contains");
  for (std::size_t j = 0; j < feature.size(); ++j) {
    if (feature[j] < lower_[j] || feature[j] > upper_[j]) return false;
  }
  return true;
}

void MinMaxMonitor::observe_batch(const FeatureBatch& batch) {
  check_batch(batch, batch.size(), "MinMaxMonitor::observe_batch");
  if (batch.empty()) return;
  const std::size_t n = batch.size();
  for (std::size_t j = 0; j < lower_.size(); ++j) {
    const auto row = batch.neuron(j);
    // Four independent accumulator lanes keep the reduction throughput-
    // bound instead of serialising on one min/max dependency chain.
    float lo0 = lower_[j], lo1 = lo0, lo2 = lo0, lo3 = lo0;
    float hi0 = upper_[j], hi1 = hi0, hi2 = hi0, hi3 = hi0;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      lo0 = std::min(lo0, row[i]);
      hi0 = std::max(hi0, row[i]);
      lo1 = std::min(lo1, row[i + 1]);
      hi1 = std::max(hi1, row[i + 1]);
      lo2 = std::min(lo2, row[i + 2]);
      hi2 = std::max(hi2, row[i + 2]);
      lo3 = std::min(lo3, row[i + 3]);
      hi3 = std::max(hi3, row[i + 3]);
    }
    for (; i < n; ++i) {
      lo0 = std::min(lo0, row[i]);
      hi0 = std::max(hi0, row[i]);
    }
    lower_[j] = std::min(std::min(lo0, lo1), std::min(lo2, lo3));
    upper_[j] = std::max(std::max(hi0, hi1), std::max(hi2, hi3));
  }
  observations_ += n;
  invalidate_lowered();
}

void MinMaxMonitor::observe_bounds_batch(const FeatureBatch& lo,
                                         const FeatureBatch& hi) {
  check_bounds_batch(lo, hi, "MinMaxMonitor::observe_bounds_batch");
  if (lo.empty()) return;
  // Validate the whole batch before folding anything in, so a violated
  // bound cannot leave a partially updated envelope behind.
  for (std::size_t j = 0; j < lower_.size(); ++j) {
    const auto lo_row = lo.neuron(j);
    const auto hi_row = hi.neuron(j);
    for (std::size_t i = 0; i < lo_row.size(); ++i) {
      if (!(lo_row[i] <= hi_row[i])) {
        throw std::invalid_argument(
            "MinMaxMonitor::observe_bounds_batch: bound violated (lo > hi) "
            "at neuron " +
            std::to_string(j) + ", sample " + std::to_string(i));
      }
    }
  }
  for (std::size_t j = 0; j < lower_.size(); ++j) {
    float l = lower_[j], u = upper_[j];
    for (const float v : lo.neuron(j)) l = std::min(l, v);
    for (const float v : hi.neuron(j)) u = std::max(u, v);
    lower_[j] = l;
    upper_[j] = u;
  }
  observations_ += lo.size();
  invalidate_lowered();
}

std::unique_ptr<compile::CompiledUnit> MinMaxMonitor::lower_unit() const {
  auto unit = std::make_unique<compile::CompiledUnit>();
  unit->kind = compile::ProgramKind::kBox;
  // One box with the scalar path's `v < L || v > U` test: NaN contained.
  unit->box = {.dim = dimension(),
               .num_boxes = 1,
               .reject_nan = false,
               .lo = lower_,
               .hi = upper_};
  unit->finalize();
  return unit;
}

std::string MinMaxMonitor::describe() const {
  return "MinMaxMonitor(d=" + std::to_string(lower_.size()) +
         ", n=" + std::to_string(observations_) + ")";
}

float MinMaxMonitor::lower(std::size_t j) const {
  if (j >= lower_.size()) throw std::out_of_range("MinMaxMonitor::lower");
  return lower_[j];
}

float MinMaxMonitor::upper(std::size_t j) const {
  if (j >= upper_.size()) throw std::out_of_range("MinMaxMonitor::upper");
  return upper_[j];
}

IntervalVector MinMaxMonitor::envelope() const {
  std::vector<Interval> ivs(lower_.size());
  for (std::size_t j = 0; j < lower_.size(); ++j) {
    ivs[j] = Interval::make_unchecked(lower_[j], upper_[j]);
  }
  return IntervalVector(std::move(ivs));
}

void MinMaxMonitor::enlarge(float gamma) {
  if (gamma < 0.0F) {
    throw std::invalid_argument("MinMaxMonitor::enlarge: negative gamma");
  }
  for (std::size_t j = 0; j < lower_.size(); ++j) {
    if (lower_[j] > upper_[j]) continue;  // never observed
    const float half = 0.5F * (upper_[j] - lower_[j]);
    lower_[j] -= gamma * half;
    upper_[j] += gamma * half;
  }
  invalidate_lowered();
}

void MinMaxMonitor::enlarge_absolute(float margin) {
  if (margin < 0.0F) {
    throw std::invalid_argument(
        "MinMaxMonitor::enlarge_absolute: negative margin");
  }
  for (std::size_t j = 0; j < lower_.size(); ++j) {
    if (lower_[j] > upper_[j]) continue;
    lower_[j] -= margin;
    upper_[j] += margin;
  }
  invalidate_lowered();
}

}  // namespace ranm
