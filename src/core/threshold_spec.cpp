#include "core/threshold_spec.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/neuron_stats.hpp"

namespace ranm {
namespace {

/// Samples coded per stack block of the generic batch coder.
constexpr std::size_t kLane = 64;

/// The batch coder with the code-word stride pinned at compile time
/// (0 = runtime): the packing passes store through dst[i * W], and with W
/// a runtime value that is an unknown-stride read-modify-write the
/// vectorizer refuses. Monitors up to 64 variables (W == 1) and 128
/// variables (W == 2) — every configuration the paper evaluates — get
/// constant-stride loops. Sample-major words keep each lane's whole code
/// word on one cache line for the downstream cube compares and BDD walks.
/// The generic loop codes through a stack-local block buffer so the
/// threshold compares vectorize (nothing in the loop can alias the float
/// rows).
template <std::size_t kWords>
void code_words_stride(const ThresholdSpec& spec, const FeatureBatch& batch,
                       const std::uint32_t* row_map,
                       const std::uint64_t* support, std::uint64_t* words) {
  const std::size_t n = batch.size();
  const std::size_t W = kWords != 0 ? kWords : spec.num_words();
  const std::size_t nbits = spec.bits();
  const std::size_t m = spec.thresholds_per_neuron();
  const std::size_t nblocks = (n + kLane - 1) / kLane;
  const std::size_t dim = spec.dimension();
  std::uint32_t codes[kLane];
  for (std::size_t j = 0; j < dim; ++j) {
    bool used = false;
    for (std::size_t b = 0; b < nbits; ++b) {
      const std::size_t var = j * nbits + b;
      used = used || ((support[var >> 6] >> (var & 63)) & 1ULL) != 0;
    }
    if (!used) continue;
    const float* row =
        batch.neuron(row_map != nullptr ? row_map[j] : j).data();
    const float* values = spec.values().data() + j * m;
    const std::uint8_t* inclusive = spec.inclusive().data() + j * m;
    if (m == 1) {
      // 1-bit coding (the on-off family): one fused compare-and-pack
      // pass, no intermediate code buffer.
      const std::size_t var = j;
      const std::size_t w = var >> 6;
      const std::uint32_t shift = std::uint32_t(var & 63);
      const float c = values[0];
      std::uint64_t* dst = words + w;
      if (inclusive[0] != 0) {
        for (std::size_t i = 0; i < n; ++i) {
          dst[i * W] |= std::uint64_t(row[i] > c) << shift;
        }
      } else {
        for (std::size_t i = 0; i < n; ++i) {
          dst[i * W] |= std::uint64_t(row[i] >= c) << shift;
        }
      }
      continue;
    }
    if (nbits == 2) {
      // 2-bit coding: one fused pass computes the code (three threshold
      // compares, if-converted selects for the inclusive flags) and
      // stores it bit-swapped — both variables of a 2-bit neuron share
      // one word (j*2 is even), and MSB-first variable order puts code
      // bit 1 at the lower shift. Fusing avoids the intermediate code
      // buffer and its extra passes entirely.
      const std::size_t var = j * 2;
      const std::uint32_t shift = std::uint32_t(var & 63);
      const float t0 = values[0], t1 = values[1], t2 = values[2];
      const bool i0 = inclusive[0] != 0, i1 = inclusive[1] != 0,
                 i2 = inclusive[2] != 0;
      std::uint64_t* dst = words + (var >> 6);
      for (std::size_t i = 0; i < n; ++i) {
        const float v = row[i];
        const std::uint32_t code = std::uint32_t(i0 ? v > t0 : v >= t0) +
                                   std::uint32_t(i1 ? v > t1 : v >= t1) +
                                   std::uint32_t(i2 ? v > t2 : v >= t2);
        const std::uint64_t swapped =
            ((code & 1U) << 1) | ((code >> 1) & 1U);
        dst[i * W] |= swapped << shift;
      }
      continue;
    }
    for (std::size_t blk = 0; blk < nblocks; ++blk) {
      const std::size_t base = blk * kLane;
      const std::size_t count = std::min(kLane, n - base);
      const float* rb = row + base;
      for (std::size_t i = 0; i < count; ++i) codes[i] = 0;
      for (std::size_t t = 0; t < m; ++t) {
        const float c = values[t];
        if (inclusive[t] != 0) {
          for (std::size_t i = 0; i < count; ++i) codes[i] += rb[i] > c;
        } else {
          for (std::size_t i = 0; i < count; ++i) codes[i] += rb[i] >= c;
        }
      }
      for (std::size_t b = 0; b < nbits; ++b) {
        const std::size_t var = j * nbits + b;
        const std::uint32_t shift = std::uint32_t(var & 63);
        const std::uint32_t maskbit = 1U << (nbits - 1 - b);
        std::uint64_t* dst = words + base * W + (var >> 6);
        for (std::size_t i = 0; i < count; ++i) {
          dst[i * W] |=
              std::uint64_t((codes[i] & maskbit) != 0) << shift;
        }
      }
    }
  }
}

}  // namespace

ThresholdSpec::ThresholdSpec(std::size_t bits, std::vector<float> values,
                             std::vector<std::uint8_t> inclusive)
    : bits_(bits),
      dim_(0),
      values_(std::move(values)),
      inclusive_(std::move(inclusive)) {
  if (bits_ == 0 || bits_ > 16) {
    throw std::invalid_argument("ThresholdSpec: bits must be in 1..16");
  }
  const std::size_t m = thresholds_per_neuron();
  if (values_.empty() || values_.size() % m != 0 ||
      inclusive_.size() != values_.size()) {
    throw std::invalid_argument(
        "ThresholdSpec: table is not a positive number of neurons of " +
        std::to_string(m) + " thresholds");
  }
  dim_ = values_.size() / m;
  all_vars_.assign(num_words(), ~0ULL);
  for (std::size_t k = 0; k < values_.size(); ++k) {
    if (inclusive_[k] > 1) {
      throw std::invalid_argument(
          "ThresholdSpec: inclusive flags must be 0 or 1");
    }
    // Strictly ascending values keep the buckets well-defined. +-inf may
    // sit at the extremes (footnote 3); NaN orders nowhere.
    if (std::isnan(values_[k]) ||
        (k % m != 0 && !(values_[k - 1] < values_[k]))) {
      throw std::invalid_argument(
          "ThresholdSpec: thresholds must be strictly ascending, not NaN");
    }
  }
}

ThresholdSpec ThresholdSpec::subset(
    std::span<const std::uint32_t> neurons) const {
  const std::size_t m = thresholds_per_neuron();
  std::vector<float> values;
  std::vector<std::uint8_t> inclusive;
  for (const std::uint32_t j : neurons) {
    if (j >= dim_) {
      throw std::out_of_range("ThresholdSpec::subset: neuron out of range");
    }
    values.insert(values.end(), values_.begin() + j * m,
                  values_.begin() + (j + 1) * m);
    inclusive.insert(inclusive.end(), inclusive_.begin() + j * m,
                     inclusive_.begin() + (j + 1) * m);
  }
  return ThresholdSpec(bits_, std::move(values), std::move(inclusive));
}

void ThresholdSpec::code_words(const FeatureBatch& batch,
                               const std::uint32_t* row_map,
                               const std::uint64_t* support,
                               std::vector<std::uint64_t>& words) const {
  words.assign(batch.size() * num_words(), 0ULL);
  switch (num_words()) {
    case 1:
      code_words_stride<1>(*this, batch, row_map, support, words.data());
      return;
    case 2:
      code_words_stride<2>(*this, batch, row_map, support, words.data());
      return;
    default:
      code_words_stride<0>(*this, batch, row_map, support, words.data());
      return;
  }
}

ThresholdSpec ThresholdSpec::onoff(std::span<const float> c) {
  return ThresholdSpec(1, std::vector<float>(c.begin(), c.end()),
                       std::vector<std::uint8_t>(c.size(), 1));
}

ThresholdSpec ThresholdSpec::paper_two_bit(std::span<const float> c1,
                                           std::span<const float> c2,
                                           std::span<const float> c3) {
  if (c1.size() != c2.size() || c2.size() != c3.size()) {
    throw std::invalid_argument("paper_two_bit: size mismatch");
  }
  std::vector<float> values;
  std::vector<std::uint8_t> inclusive;
  for (std::size_t j = 0; j < c1.size(); ++j) {
    values.insert(values.end(), {c1[j], c2[j], c3[j]});
    // (c1, .. is strict, [c2 belongs upward, ..c3] belongs down.
    inclusive.insert(inclusive.end(), {1, 0, 1});
  }
  return ThresholdSpec(2, std::move(values), std::move(inclusive));
}

ThresholdSpec ThresholdSpec::from_minmax(std::span<const float> mins,
                                         std::span<const float> maxs) {
  if (mins.size() != maxs.size()) {
    throw std::invalid_argument("from_minmax: size mismatch");
  }
  const float neg_inf = -std::numeric_limits<float>::infinity();
  std::vector<float> c1(mins.size(), neg_inf);
  // Degenerate neurons (min == max) would collapse thresholds; nudge the
  // upper threshold by the smallest representable step so ordering holds.
  std::vector<float> c2(mins.begin(), mins.end());
  std::vector<float> c3(maxs.begin(), maxs.end());
  for (std::size_t j = 0; j < c2.size(); ++j) {
    if (!(c2[j] < c3[j])) {
      c3[j] = std::nextafter(c2[j], std::numeric_limits<float>::infinity());
    }
  }
  return paper_two_bit(c1, c2, c3);
}

ThresholdSpec ThresholdSpec::from_percentiles(const NeuronStats& stats,
                                              std::size_t bits) {
  if (bits == 0 || bits > 16) {
    throw std::invalid_argument("from_percentiles: bits must be in 1..16");
  }
  const std::size_t m = (1ULL << bits) - 1;
  const std::size_t d = stats.dimension();
  std::vector<float> values;
  values.reserve(d * m);
  for (std::size_t j = 0; j < d; ++j) {
    float prev = -std::numeric_limits<float>::infinity();
    for (std::size_t i = 1; i <= m; ++i) {
      float v = stats.percentile(j, double(i) / double(m + 1));
      // Enforce strict ascent in the presence of repeated sample values.
      if (!(v > prev)) {
        v = std::nextafter(prev, std::numeric_limits<float>::infinity());
      }
      values.push_back(v);
      prev = v;
    }
  }
  std::vector<std::uint8_t> inclusive(values.size(), 1);
  return ThresholdSpec(bits, std::move(values), std::move(inclusive));
}

ThresholdSpec ThresholdSpec::from_means(const NeuronStats& stats) {
  const auto means = stats.means();
  return onoff(means);
}

}  // namespace ranm
