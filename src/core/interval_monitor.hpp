// Interval activation monitor (paper §III-C): each neuron is monitored
// with B bits encoding which of 2^B threshold buckets its value falls in.
// Generalises both the min-max monitor and the on-off monitor (footnote
// 3). The on-off monitor of §III-A/§III-B is this class over a 1-bit spec
// (ThresholdSpec::onoff or from_means): neuron j is then BDD variable j,
// and a robust bound maps to 1, 0 or a don't-care.
//
// Robust construction (§III-C.2) maps the conservative bound [l_j, u_j] to
// the *set* of codes it straddles. Because codes are monotone in the
// neuron value, that set is always the contiguous range
// [code(l_j), code(u_j)] — exactly the case enumeration of the paper. A
// range that is an aligned block of codes (one code, all codes, or any
// 2^k-aligned run; at 1 bit every range) fixes the neuron's high bits and
// leaves the rest free, so it is inserted as cube literals; any other
// range is an O(B)-node range constraint on neuron j's bit variables.
// Either way word2set stays linear in the number of neurons.
#pragma once

#include <cstdint>
#include <optional>

#include "bdd/bdd.hpp"
#include "core/monitor.hpp"
#include "core/threshold_spec.hpp"

namespace ranm {

/// Multi-bit activation-pattern monitor backed by a BDD with
/// dimension * bits variables: neuron j's code bits are BDD variables
/// j*bits .. j*bits+bits-1, MSB first.
class IntervalMonitor final : public Monitor {
 public:
  explicit IntervalMonitor(ThresholdSpec spec);

  [[nodiscard]] std::size_t dimension() const noexcept override {
    return spec_.dimension();
  }
  [[nodiscard]] std::size_t bits() const noexcept { return spec_.bits(); }

  void observe(std::span<const float> feature) override;
  void observe_bounds(std::span<const float> lo,
                      std::span<const float> hi) override;
  [[nodiscard]] bool contains(std::span<const float> feature) const override;
  [[nodiscard]] std::string describe() const override;

  // Batch construction codes the batch through the spec's batch coder,
  // one cube per sample. Batched queries run the lowered program, which
  // carries a copy of the spec and codes through the same coders
  // (Monitor::contains_batch).
  void observe_batch(const FeatureBatch& batch) override;
  void observe_bounds_batch(const FeatureBatch& lo,
                            const FeatureBatch& hi) override;
  [[nodiscard]] std::unique_ptr<compile::CompiledUnit> lower_unit()
      const override;

  /// The code word ab(v): one code per neuron.
  [[nodiscard]] std::vector<std::uint64_t> codes(
      std::span<const float> feature) const;

  /// Enlarges the stored set to all words within Hamming distance
  /// `radius` (in code bits, over all dimension() * bits() variables) of
  /// a stored word. At 1 bit this is the false-positive mitigation of
  /// ref [1], the baseline the robust construction is compared against.
  void enlarge_hamming(unsigned radius);

  /// Quantitative score (in the spirit of ref [11]): smallest Hamming
  /// distance (in code *bits*) from the feature's code word to any stored
  /// word, capped at `max_radius`. Exact, O(BDD nodes). Returns nullopt
  /// past the cap or on an empty set.
  [[nodiscard]] std::optional<unsigned> hamming_distance(
      std::span<const float> feature, unsigned max_radius) const;

  /// Number of distinct code words stored.
  [[nodiscard]] double pattern_count() const;
  /// Reachable BDD node count of the stored set.
  [[nodiscard]] std::size_t bdd_node_count() const;
  [[nodiscard]] const ThresholdSpec& spec() const noexcept { return spec_; }

  /// Raw access for serialisation.
  [[nodiscard]] const bdd::BddManager& manager() const noexcept {
    return mgr_;
  }
  [[nodiscard]] bdd::BddManager& manager() noexcept { return mgr_; }
  [[nodiscard]] bdd::NodeRef root() const noexcept { return set_; }
  void set_root(bdd::NodeRef root) noexcept {
    set_ = root;
    invalidate_lowered();
  }

 private:
  /// word2set of one bound vector: the conjunction over neurons of
  /// "code_j in [code(l_j), code(u_j)]". `cube` is scratch.
  [[nodiscard]] bdd::NodeRef bound_word(std::span<const float> lo,
                                        std::span<const float> hi,
                                        std::vector<bdd::CubeBit>& cube);

  /// Which neuron a BDD variable codes, and its bit's shift in the code.
  struct VarSlot {
    std::uint32_t neuron;
    std::uint32_t shift;
  };

  ThresholdSpec spec_;
  bdd::BddManager mgr_;
  bdd::NodeRef set_;
  std::vector<VarSlot> slots_;  // indexed by BDD variable
};

}  // namespace ranm
