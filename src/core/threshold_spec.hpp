// Per-neuron threshold sets that map a real neuron value to a B-bit code
// (paper §III-C): the one coding table of the monitor family. For B bits
// a neuron has m = 2^B - 1 ascending thresholds c_1 < ... < c_m; the code
// of value v is the number of thresholds v "passes".
//
// The paper's 2-bit table uses mixed boundary conventions — the buckets are
// (-inf, c1], (c1, c2), [c2, c3], (c3, inf) — so each threshold carries an
// inclusive flag: with the flag set (1) the value v == c belongs to the
// lower bucket (the code increments only for v > c); with it clear (0),
// equality already passes (v >= c increments). NaN passes no threshold
// and codes 0. This makes the footnote-3 reductions (interval monitor ==
// min-max monitor, interval monitor == on-off monitor) hold exactly, which
// the test suite asserts.
//
// The code word of a sample has dimension() * bits() variables: neuron j
// owns variables j*bits .. j*bits + bits - 1, MSB first, so variable
// j*bits + b is bit (bits - 1 - b) of neuron j's code. Packed words hold
// variable v at bit v & 63 of word v / 64. Every engine codes through the
// coders here: code() and code_range() for one neuron (the interpreted
// walk and the robust build), code_word() for one sample, and
// code_words() for a batch (batched construction and the lowered
// programs, which carry a copy of this table).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/feature_batch.hpp"

namespace ranm {

class NeuronStats;

/// Threshold table for `dim` neurons with B bits each.
class ThresholdSpec {
 public:
  /// Neuron-major table: neuron j's m = 2^bits - 1 thresholds are
  /// values[j*m .. j*m + m), strictly ascending (+-inf allowed, NaN not),
  /// and inclusive[k] is 1 (v == values[k] stays below) or 0 (it passes).
  /// Throws std::invalid_argument unless bits is in 1..16, both vectors
  /// hold the same positive whole number of neurons, every flag is 0 or 1
  /// and every neuron's values ascend strictly.
  ThresholdSpec(std::size_t bits, std::vector<float> values,
                std::vector<std::uint8_t> inclusive);

  [[nodiscard]] std::size_t dimension() const noexcept { return dim_; }
  [[nodiscard]] std::size_t bits() const noexcept { return bits_; }
  /// Number of codes per neuron: 2^bits.
  [[nodiscard]] std::uint64_t num_codes() const noexcept {
    return 1ULL << bits_;
  }
  [[nodiscard]] std::size_t thresholds_per_neuron() const noexcept {
    return (std::size_t(1) << bits_) - 1;
  }
  /// Variables of the code word: dimension() * bits().
  [[nodiscard]] std::size_t num_vars() const noexcept { return dim_ * bits_; }
  /// 64-bit words per packed code word.
  [[nodiscard]] std::size_t num_words() const noexcept {
    return (num_vars() + 63) / 64;
  }
  /// Every variable of the code word, as a `support` mask for the coders.
  [[nodiscard]] const std::uint64_t* all_vars() const noexcept {
    return all_vars_.data();
  }
  /// The whole table, neuron-major (see the constructor).
  [[nodiscard]] std::span<const float> values() const noexcept {
    return values_;
  }
  [[nodiscard]] std::span<const std::uint8_t> inclusive() const noexcept {
    return inclusive_;
  }

  /// Spec restricted to the given neurons, in the given order — the
  /// per-shard slice a ShardedMonitor hands each inner monitor. Local
  /// neuron lj of the result carries the thresholds of global neuron
  /// neurons[lj]. Throws std::out_of_range on a bad id.
  [[nodiscard]] ThresholdSpec subset(
      std::span<const std::uint32_t> neurons) const;

  /// Code of value v at neuron j (unchecked): the number of thresholds v
  /// passes. Thresholds ascend, so the passed ones are a prefix, and the
  /// scan stops at the first threshold v does not pass.
  [[nodiscard]] std::uint64_t code(std::size_t j, float v) const noexcept {
    const std::size_t m = thresholds_per_neuron();
    const float* c = values_.data() + j * m;
    const std::uint8_t* inc = inclusive_.data() + j * m;
    std::size_t n = 0;
    while (n < m && pass_bit(v, c[n], inc[n]) != 0) ++n;
    return n;
  }
  /// Codes reachable by any value in [lo, hi]: the inclusive code range
  /// {code(lo), ..., code(hi)} (codes are monotone in v). Throws
  /// std::invalid_argument when lo > hi.
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> code_range(
      std::size_t j, float lo, float hi) const {
    if (lo > hi) {
      throw std::invalid_argument("ThresholdSpec::code_range: lo > hi");
    }
    return {code(j, lo), code(j, hi)};
  }

  /// ORs one sample's code word into `word` (num_words() words, zeroed by
  /// the caller); value(j) is neuron j's value. Neurons none of whose
  /// variables are set in `support` (num_words() mask words) are skipped
  /// and keep 0 bits. Branchless per neuron apart
  /// from the support skip: a sample codes every neuron, and a
  /// mispredicted branch per threshold costs more than the compare. (The
  /// walk's code() codes one neuron per node instead, where stopping at
  /// the first threshold not passed is cheaper.)
  template <class ValueOf>
  void code_word(const ValueOf& value, const std::uint64_t* support,
                 std::uint64_t* word) const noexcept;

  /// Codes every sample of `batch` into sample-major code words: bit
  /// v & 63 of words[i * num_words() + v / 64] is variable v of sample i.
  /// Neuron j reads batch row row_map[j] (null = row j); `support` skips
  /// neurons as in code_word. `words` is resized and zeroed first.
  /// Callers that code every neuron pass all_vars().
  void code_words(const FeatureBatch& batch, const std::uint32_t* row_map,
                  const std::uint64_t* support,
                  std::vector<std::uint64_t>& words) const;

  // ---- factories -----------------------------------------------------------

  /// One-bit on-off spec (paper §III-A): b_j = 1 iff v_j > c_j.
  static ThresholdSpec onoff(std::span<const float> c);

  /// The paper's exact 2-bit convention for thresholds c1 < c2 < c3:
  /// buckets (-inf,c1], (c1,c2), [c2,c3], (c3,inf).
  static ThresholdSpec paper_two_bit(
      std::span<const float> c1, std::span<const float> c2,
      std::span<const float> c3);

  /// Footnote-3 reduction to a min-max monitor: for each neuron,
  /// c3 = max visited, c2 = min visited, c1 = -inf, with the paper's 2-bit
  /// boundary flags, so code 2 <=> min <= v <= max.
  static ThresholdSpec from_minmax(std::span<const float> mins,
                                   std::span<const float> maxs);

  /// Equal-probability thresholds from observed samples: 2^bits - 1
  /// percentile cut points per neuron (all inclusive). Stats must have
  /// been built with keep_samples.
  static ThresholdSpec from_percentiles(const NeuronStats& stats,
                                        std::size_t bits);

  /// Thresholds at each neuron's training mean (1 bit, inclusive) — the
  /// "average of all visited values" strategy from the paper.
  static ThresholdSpec from_means(const NeuronStats& stats);

 private:
  /// 1 when v passes threshold c under the inclusive flag (0/1). Both
  /// compares are computed and the flag selects with mask arithmetic: the
  /// flags are data, so a ternary here is a hard-to-predict branch.
  static std::uint32_t pass_bit(float v, float c, std::uint32_t incl) noexcept {
    return (std::uint32_t(v > c) & incl) |
           (std::uint32_t(v >= c) & (incl ^ 1U));
  }

  std::size_t bits_;
  std::size_t dim_;
  std::vector<float> values_;
  std::vector<std::uint8_t> inclusive_;
  std::vector<std::uint64_t> all_vars_;  // num_words() words of ones
};

template <class ValueOf>
void ThresholdSpec::code_word(const ValueOf& value,
                              const std::uint64_t* support,
                              std::uint64_t* word) const noexcept {
  // Locals, not members: a store through `word` may alias a size_t member,
  // which would reload it on every neuron.
  const std::size_t dim = dim_;
  const std::size_t nbits = bits_;
  const std::size_t m = thresholds_per_neuron();
  const float* values = values_.data();
  const std::uint8_t* inclusive = inclusive_.data();
  if (nbits == 2) {
    // Both variables of a 2-bit neuron share one word (j*2 is even).
    for (std::size_t j = 0; j < dim; ++j) {
      const std::size_t var = j * 2;
      if (((support[var >> 6] >> (var & 63)) & 3ULL) == 0) continue;
      const float v = value(j);
      const float* c = values + j * 3;
      const std::uint8_t* inc = inclusive + j * 3;
      const std::uint32_t code = pass_bit(v, c[0], inc[0]) +
                                 pass_bit(v, c[1], inc[1]) +
                                 pass_bit(v, c[2], inc[2]);
      const std::uint64_t swapped = ((code & 1U) << 1) | ((code >> 1) & 1U);
      word[var >> 6] |= swapped << (var & 63);
    }
    return;
  }
  for (std::size_t j = 0; j < dim; ++j) {
    std::uint64_t used = 0;
    for (std::size_t b = 0; b < nbits; ++b) {
      const std::size_t var = j * nbits + b;
      used |= (support[var >> 6] >> (var & 63)) & 1ULL;
    }
    if (used == 0) continue;
    const float v = value(j);
    const float* c = values + j * m;
    const std::uint8_t* inc = inclusive + j * m;
    std::uint32_t code = 0;
    for (std::size_t t = 0; t < m; ++t) code += pass_bit(v, c[t], inc[t]);
    for (std::size_t b = 0; b < nbits; ++b) {
      const std::size_t var = j * nbits + b;
      word[var >> 6] |= std::uint64_t((code >> (nbits - 1 - b)) & 1U)
                        << (var & 63);
    }
  }
}

}  // namespace ranm
