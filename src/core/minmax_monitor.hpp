// Min-max monitor (paper §III-A first bullet, robust variant §III-B):
// per neuron j the pair (L_j, U_j) tracks the smallest and largest value
// visited over the training set; a warning is raised iff some neuron falls
// outside its interval. The robust variant folds in the conservative
// bounds [l_j, u_j] of the perturbation estimate instead of point values.
#pragma once

#include <limits>
#include <vector>

#include "absint/interval.hpp"
#include "core/monitor.hpp"

namespace ranm {

/// Per-neuron [L, U] envelope monitor.
class MinMaxMonitor final : public Monitor {
 public:
  explicit MinMaxMonitor(std::size_t dim);

  /// Restores a monitor from saved state (deserialisation).
  static MinMaxMonitor from_bounds(std::vector<float> lower,
                                   std::vector<float> upper,
                                   std::size_t observations);

  [[nodiscard]] std::size_t dimension() const noexcept override {
    return lower_.size();
  }
  void observe(std::span<const float> feature) override;
  void observe_bounds(std::span<const float> lo,
                      std::span<const float> hi) override;
  [[nodiscard]] bool contains(std::span<const float> feature) const override;
  [[nodiscard]] std::string describe() const override;

  // Batch construction: per-neuron sweeps over the contiguous batch rows,
  // with [L_j, U_j] loaded once per neuron instead of once per sample.
  // Batched queries run the envelope lowered to one box.
  void observe_batch(const FeatureBatch& batch) override;
  void observe_bounds_batch(const FeatureBatch& lo,
                            const FeatureBatch& hi) override;
  [[nodiscard]] std::unique_ptr<compile::CompiledUnit> lower_unit()
      const override;

  /// Number of observe/observe_bounds calls folded in so far.
  [[nodiscard]] std::size_t observation_count() const noexcept {
    return observations_;
  }
  /// L_j (+inf before any observation).
  [[nodiscard]] float lower(std::size_t j) const;
  /// U_j (-inf before any observation).
  [[nodiscard]] float upper(std::size_t j) const;
  /// The envelope as an interval box (neurons never observed stay empty).
  [[nodiscard]] IntervalVector envelope() const;

  /// Henzinger-style buffer enlargement ("Outside the Box", ref [2]):
  /// widens every non-empty interval by `gamma` times its half-width on
  /// both sides. gamma = 0 is a no-op.
  void enlarge(float gamma);

  /// Widens every non-empty interval by an absolute margin on both sides.
  void enlarge_absolute(float margin);

 private:
  void check_dim(std::size_t n, const char* what) const;

  std::vector<float> lower_, upper_;
  std::size_t observations_ = 0;
};

}  // namespace ranm
