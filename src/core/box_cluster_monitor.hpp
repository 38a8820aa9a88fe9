// Multi-box monitor in the style of Henzinger et al., "Outside the Box"
// (ECAI 2020, ref [2] in the paper): feature vectors are clustered with
// k-means and each cluster keeps its own min-max box. Membership is
// membership in any box. This is a *baseline* the robust monitors are
// compared against in bench_baselines; a single-cluster instance degrades
// to MinMaxMonitor.
//
// Unlike the streaming monitors, clustering needs all observations at
// once: observe()/observe_bounds() buffer, finalize() clusters. Queries
// before finalize() throw.
#pragma once

#include <vector>

#include "absint/interval.hpp"
#include "core/monitor.hpp"
#include "util/rng.hpp"

namespace ranm {

/// k-means-clustered union-of-boxes monitor.
class BoxClusterMonitor final : public Monitor {
 public:
  BoxClusterMonitor(std::size_t dim, std::size_t num_clusters);

  [[nodiscard]] std::size_t dimension() const noexcept override {
    return dim_;
  }
  void observe(std::span<const float> feature) override;
  void observe_bounds(std::span<const float> lo,
                      std::span<const float> hi) override;
  [[nodiscard]] bool contains(std::span<const float> feature) const override;
  [[nodiscard]] std::string describe() const override;

  // Batch construction appends whole columns to the buffers. Observations
  // only buffer before finalize, when no lowered program can exist yet;
  // batched queries run the hull boxes lowered to one box program.
  void observe_batch(const FeatureBatch& batch) override;
  void observe_bounds_batch(const FeatureBatch& lo,
                            const FeatureBatch& hi) override;
  /// Throws std::logic_error before finalize().
  [[nodiscard]] std::unique_ptr<compile::CompiledUnit> lower_unit()
      const override;

  /// Runs k-means (k-means++ seeding, `iterations` Lloyd steps) on the
  /// buffered observation midpoints, then builds one hull box per cluster
  /// from the member bounds. Idempotent once called.
  void finalize(Rng& rng, std::size_t iterations = 25);
  [[nodiscard]] bool finalized() const noexcept { return finalized_; }

  /// Boxes after finalize() (some may be unused if clusters emptied).
  [[nodiscard]] const std::vector<IntervalVector>& boxes() const;

  /// Buffer enlargement as in ref [2]: widen every box dimension by gamma
  /// times its half-width.
  void enlarge(float gamma);

 private:
  std::size_t dim_;
  std::size_t num_clusters_;
  bool finalized_ = false;
  // Buffered observations as (lo, hi) pairs; point observations have
  // lo == hi.
  std::vector<std::vector<float>> lo_buf_, hi_buf_;
  std::vector<IntervalVector> boxes_;
};

}  // namespace ranm
