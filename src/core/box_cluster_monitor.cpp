#include "core/box_cluster_monitor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "compile/program.hpp"

namespace ranm {
namespace {

double sq_dist(std::span<const float> a, std::span<const float> b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = double(a[i]) - b[i];
    acc += d * d;
  }
  return acc;
}

}  // namespace

BoxClusterMonitor::BoxClusterMonitor(std::size_t dim,
                                     std::size_t num_clusters)
    : dim_(dim), num_clusters_(num_clusters) {
  if (dim == 0) {
    throw std::invalid_argument("BoxClusterMonitor: zero dimension");
  }
  if (num_clusters == 0) {
    throw std::invalid_argument("BoxClusterMonitor: zero clusters");
  }
}

void BoxClusterMonitor::observe(std::span<const float> feature) {
  observe_bounds(feature, feature);
}

void BoxClusterMonitor::observe_bounds(std::span<const float> lo,
                                       std::span<const float> hi) {
  if (finalized_) {
    throw std::logic_error("BoxClusterMonitor: observe after finalize");
  }
  check_bounds_ordered(lo, hi, dim_, "BoxClusterMonitor::observe_bounds");
  lo_buf_.emplace_back(lo.begin(), lo.end());
  hi_buf_.emplace_back(hi.begin(), hi.end());
}

void BoxClusterMonitor::observe_batch(const FeatureBatch& batch) {
  if (finalized_) {
    throw std::logic_error("BoxClusterMonitor: observe after finalize");
  }
  check_batch(batch, batch.size(), "BoxClusterMonitor::observe_batch");
  for (std::size_t i = 0; i < batch.size(); ++i) {
    std::vector<float> mid = batch.sample(i);
    lo_buf_.push_back(mid);
    hi_buf_.push_back(std::move(mid));
  }
}

void BoxClusterMonitor::observe_bounds_batch(const FeatureBatch& lo,
                                             const FeatureBatch& hi) {
  if (finalized_) {
    throw std::logic_error("BoxClusterMonitor: observe after finalize");
  }
  check_bounds_batch(lo, hi, "BoxClusterMonitor::observe_bounds_batch");
  for (std::size_t i = 0; i < lo.size(); ++i) {
    std::vector<float> l = lo.sample(i);
    std::vector<float> h = hi.sample(i);
    check_bounds_ordered(l, h, dim_,
                         "BoxClusterMonitor::observe_bounds_batch");
    lo_buf_.push_back(std::move(l));
    hi_buf_.push_back(std::move(h));
  }
}

void BoxClusterMonitor::finalize(Rng& rng, std::size_t iterations) {
  if (finalized_) return;
  if (lo_buf_.empty()) {
    throw std::logic_error("BoxClusterMonitor: finalize with no data");
  }
  const std::size_t n = lo_buf_.size();
  const std::size_t k = std::min(num_clusters_, n);

  // Midpoints drive the clustering; boxes hull the full bounds afterwards.
  std::vector<std::vector<float>> mid(n, std::vector<float>(dim_));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < dim_; ++j) {
      mid[i][j] = 0.5F * (lo_buf_[i][j] + hi_buf_[i][j]);
    }
  }

  // k-means++ seeding.
  std::vector<std::vector<float>> centers;
  centers.reserve(k);
  centers.push_back(mid[rng.below(n)]);
  std::vector<double> d2(n);
  while (centers.size() < k) {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double best = std::numeric_limits<double>::infinity();
      for (const auto& c : centers) best = std::min(best, sq_dist(mid[i], c));
      d2[i] = best;
      total += best;
    }
    if (total <= 0.0) break;  // all points identical — no more seeds needed
    double target = rng.uniform() * total;
    std::size_t pick = n - 1;
    for (std::size_t i = 0; i < n; ++i) {
      target -= d2[i];
      if (target <= 0.0) {
        pick = i;
        break;
      }
    }
    centers.push_back(mid[pick]);
  }

  // Lloyd iterations.
  std::vector<std::size_t> assign(n, 0);
  for (std::size_t it = 0; it < iterations; ++it) {
    bool changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t best = 0;
      double best_d = std::numeric_limits<double>::infinity();
      for (std::size_t c = 0; c < centers.size(); ++c) {
        const double d = sq_dist(mid[i], centers[c]);
        if (d < best_d) {
          best_d = d;
          best = c;
        }
      }
      if (assign[i] != best) {
        assign[i] = best;
        changed = true;
      }
    }
    if (!changed && it > 0) break;
    std::vector<std::vector<double>> sums(
        centers.size(), std::vector<double>(dim_, 0.0));
    std::vector<std::size_t> counts(centers.size(), 0);
    for (std::size_t i = 0; i < n; ++i) {
      ++counts[assign[i]];
      for (std::size_t j = 0; j < dim_; ++j) sums[assign[i]][j] += mid[i][j];
    }
    for (std::size_t c = 0; c < centers.size(); ++c) {
      if (counts[c] == 0) continue;
      for (std::size_t j = 0; j < dim_; ++j) {
        centers[c][j] = static_cast<float>(sums[c][j] / double(counts[c]));
      }
    }
  }

  // Hull box per cluster.
  boxes_.clear();
  for (std::size_t c = 0; c < centers.size(); ++c) {
    std::vector<Interval> ivs(
        dim_, Interval::make_unchecked(
                  std::numeric_limits<float>::infinity(),
                  -std::numeric_limits<float>::infinity()));
    bool any = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (assign[i] != c) continue;
      any = true;
      for (std::size_t j = 0; j < dim_; ++j) {
        ivs[j] = Interval::make_unchecked(std::min(ivs[j].lo, lo_buf_[i][j]),
                                          std::max(ivs[j].hi, hi_buf_[i][j]));
      }
    }
    if (any) boxes_.emplace_back(std::move(ivs));
  }
  lo_buf_.clear();
  hi_buf_.clear();
  finalized_ = true;
  invalidate_lowered();
}

bool BoxClusterMonitor::contains(std::span<const float> feature) const {
  if (!finalized_) {
    throw std::logic_error("BoxClusterMonitor: query before finalize");
  }
  if (feature.size() != dim_) {
    throw std::invalid_argument("BoxClusterMonitor: dimension mismatch");
  }
  for (const auto& box : boxes_) {
    if (box.contains(feature)) return true;
  }
  return false;
}

std::unique_ptr<compile::CompiledUnit> BoxClusterMonitor::lower_unit() const {
  const auto& hulls = boxes();  // throws logic_error before finalize
  auto unit = std::make_unique<compile::CompiledUnit>();
  unit->kind = compile::ProgramKind::kBox;
  // IntervalVector::contains's `lo <= v && v <= hi` test: NaN rejected.
  unit->box.dim = dim_;
  unit->box.num_boxes = hulls.size();
  unit->box.reject_nan = true;
  for (const IntervalVector& box : hulls) {
    for (std::size_t j = 0; j < dim_; ++j) {
      unit->box.lo.push_back(box[j].lo);
      unit->box.hi.push_back(box[j].hi);
    }
  }
  unit->finalize();
  return unit;
}

std::string BoxClusterMonitor::describe() const {
  return "BoxClusterMonitor(d=" + std::to_string(dim_) +
         ", k=" + std::to_string(num_clusters_) +
         ", boxes=" + std::to_string(boxes_.size()) + ")";
}

const std::vector<IntervalVector>& BoxClusterMonitor::boxes() const {
  if (!finalized_) {
    throw std::logic_error("BoxClusterMonitor: boxes before finalize");
  }
  return boxes_;
}

void BoxClusterMonitor::enlarge(float gamma) {
  if (!finalized_) {
    throw std::logic_error("BoxClusterMonitor: enlarge before finalize");
  }
  if (gamma < 0.0F) {
    throw std::invalid_argument("BoxClusterMonitor::enlarge: negative gamma");
  }
  for (auto& box : boxes_) {
    for (std::size_t j = 0; j < box.size(); ++j) {
      const float half = box[j].radius();
      box[j] = Interval::make_unchecked(box[j].lo - gamma * half,
                                        box[j].hi + gamma * half);
    }
  }
  invalidate_lowered();
}

}  // namespace ranm
