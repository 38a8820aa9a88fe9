// On-off activation pattern monitor (paper §III-A second bullet; robust
// variant §III-B; originally ref [1], DATE 2019).
//
// Each monitored neuron contributes one bit: b_j = 1 iff v_j > c_j. The set
// of Boolean words visited over the training set is stored in a BDD with
// one variable per neuron: neuron j is BDD variable j. Robust construction maps the conservative bound
// [l_j, u_j] to 1 (l_j > c_j), 0 (u_j <= c_j) or don't-care; the word2set
// insertion is a cube over the constrained literals only, so it is linear
// in the number of neurons regardless of how many concrete words the
// don't-cares cover (footnote 2).
#pragma once

#include <cstdint>
#include <optional>

#include "bdd/bdd.hpp"
#include "core/monitor.hpp"
#include "core/threshold_spec.hpp"

namespace ranm {

/// Boolean activation-pattern monitor backed by a BDD.
class OnOffMonitor final : public Monitor {
 public:
  /// `spec` must be a 1-bit threshold spec (e.g. ThresholdSpec::onoff).
  explicit OnOffMonitor(ThresholdSpec spec);

  [[nodiscard]] std::size_t dimension() const noexcept override {
    return spec_.dimension();
  }
  void observe(std::span<const float> feature) override;
  void observe_bounds(std::span<const float> lo,
                      std::span<const float> hi) override;
  [[nodiscard]] bool contains(std::span<const float> feature) const override;
  [[nodiscard]] std::string describe() const override;

  // Batch construction thresholds neuron-major over the contiguous batch
  // rows (each neuron's threshold loaded once per batch). Batched queries
  // run the lowered program (Monitor::contains_batch).
  void observe_batch(const FeatureBatch& batch) override;
  void observe_bounds_batch(const FeatureBatch& lo,
                            const FeatureBatch& hi) override;
  [[nodiscard]] std::unique_ptr<compile::CompiledUnit> lower_unit(
      std::size_t cube_limit) const override;

  /// The Boolean abstraction ab of a feature vector.
  [[nodiscard]] std::vector<bool> pattern(
      std::span<const float> feature) const;

  /// Enlarges the stored set to all words within Hamming distance
  /// `radius` of a stored word — the false-positive mitigation used by
  /// ref [1], serving as the baseline the robust construction is compared
  /// against.
  void enlarge_hamming(unsigned radius);

  /// Quantitative score (in the spirit of ref [11]): the smallest Hamming
  /// distance from the feature's pattern to any stored word, capped at
  /// `max_radius`. Returns 0 if the pattern is stored, nullopt if nothing
  /// within the cap matches (or the set is empty). Exact and O(BDD nodes).
  [[nodiscard]] std::optional<unsigned> hamming_distance(
      std::span<const float> feature, unsigned max_radius) const;

  /// Number of distinct Boolean words currently stored.
  [[nodiscard]] double pattern_count() const;
  /// BDD size of the stored set (reachable node count).
  [[nodiscard]] std::size_t bdd_node_count() const;
  /// Thresholds in use.
  [[nodiscard]] const ThresholdSpec& spec() const noexcept { return spec_; }

  /// Raw access for serialisation.
  [[nodiscard]] const bdd::BddManager& manager() const noexcept {
    return mgr_;
  }
  [[nodiscard]] bdd::BddManager& manager() noexcept { return mgr_; }
  [[nodiscard]] bdd::NodeRef root() const noexcept { return set_; }
  /// Replaces the stored set (used by deserialisation).
  void set_root(bdd::NodeRef root) noexcept {
    set_ = root;
    invalidate_lowered();
  }

 private:
  ThresholdSpec spec_;
  bdd::BddManager mgr_;
  bdd::NodeRef set_;
};

}  // namespace ranm
