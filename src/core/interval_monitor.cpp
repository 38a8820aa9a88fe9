#include "core/interval_monitor.hpp"

#include <algorithm>
#include <array>
#include <numeric>
#include <stdexcept>

#include "bdd/range.hpp"
#include "compile/lower.hpp"

namespace ranm {

IntervalMonitor::IntervalMonitor(ThresholdSpec spec)
    : spec_(std::move(spec)),
      mgr_(static_cast<std::uint32_t>(spec_.dimension() * spec_.bits())),
      set_(bdd::kFalse),
      slots_(mgr_.num_vars()) {
  const std::size_t nbits = spec_.bits();
  for (std::size_t v = 0; v < slots_.size(); ++v) {
    slots_[v] = {static_cast<std::uint32_t>(v / nbits),
                 static_cast<std::uint32_t>(nbits - 1 - v % nbits)};
  }
}

namespace {

/// The packed code word of one feature vector: BDD variable v is bit
/// v & 63 of word v / 64.
std::vector<std::uint64_t> code_word(const ThresholdSpec& spec,
                                     std::span<const float> feature) {
  std::vector<std::uint64_t> word(spec.num_words(), 0ULL);
  spec.code_word([feature](std::size_t j) { return feature[j]; },
                 spec.all_vars(), word.data());
  return word;
}

/// Variable `var` of a packed code word as a fixed cube bit.
bdd::CubeBit word_bit(const std::uint64_t* word, std::size_t var) {
  return static_cast<bdd::CubeBit>((word[var >> 6] >> (var & 63)) & 1ULL);
}

}  // namespace

void IntervalMonitor::observe(std::span<const float> feature) {
  if (feature.size() != dimension()) {
    throw std::invalid_argument(
        "IntervalMonitor::observe: dimension mismatch");
  }
  // A concrete word fixes every bit, so the insertion is a single cube.
  const std::vector<std::uint64_t> word = code_word(spec_, feature);
  std::vector<bdd::CubeBit> cube(mgr_.num_vars());
  for (std::size_t v = 0; v < cube.size(); ++v) {
    cube[v] = word_bit(word.data(), v);
  }
  set_ = mgr_.or_(set_, mgr_.cube(cube));
  invalidate_lowered();
}

void IntervalMonitor::observe_bounds(std::span<const float> lo,
                                     std::span<const float> hi) {
  check_bounds_ordered(lo, hi, dimension(),
                       "IntervalMonitor::observe_bounds");
  std::vector<bdd::CubeBit> cube(mgr_.num_vars());
  set_ = mgr_.or_(set_, bound_word(lo, hi, cube));
  invalidate_lowered();
}

bdd::NodeRef IntervalMonitor::bound_word(std::span<const float> lo,
                                         std::span<const float> hi,
                                         std::vector<bdd::CubeBit>& cube) {
  // Built from the last neuron upward onto the word below it. A code
  // range that is an aligned block fixes the bits where its ends agree
  // and frees the rest, so its neuron is cube literals: cube holds them
  // for the run of neurons [j + 1, run_end), prepended as one cube when a
  // neuron outside a block, or the first neuron, is reached.
  const std::size_t nbits = spec_.bits();
  bdd::NodeRef word = bdd::kTrue;
  std::size_t run_end = dimension();
  const auto prepend_run = [&](std::size_t first) {
    const std::size_t v = first * nbits;
    word = mgr_.cube(std::span(cube).subspan(v, run_end * nbits - v),
                     static_cast<std::uint32_t>(v), word);
  };
  for (std::size_t j = dimension(); j-- > 0;) {
    const auto [clo, chi] = spec_.code_range(j, lo[j], hi[j]);
    const std::uint64_t free = clo ^ chi;
    if ((free & (free + 1)) == 0 && (clo & free) == 0) {
      // A free bit is 0 in clo, so bit | free << 1 is kZero, kOne or
      // kDontCare without a branch.
      for (std::size_t b = 0; b < nbits; ++b) {
        const std::size_t shift = nbits - 1 - b;
        cube[j * nbits + b] = static_cast<bdd::CubeBit>(
            ((clo >> shift) & 1U) | (((free >> shift) & 1U) << 1));
      }
      continue;
    }
    prepend_run(j + 1);
    std::array<std::uint32_t, 16> vars{};  // ThresholdSpec caps bits at 16
    const std::span<std::uint32_t> neuron_vars(vars.data(), nbits);
    std::iota(neuron_vars.begin(), neuron_vars.end(),
              static_cast<std::uint32_t>(j * nbits));
    word = mgr_.and_(bdd::code_in_range(mgr_, neuron_vars, clo, chi), word);
    run_end = j;
  }
  prepend_run(0);
  return word;
}

void IntervalMonitor::observe_batch(const FeatureBatch& batch) {
  check_batch(batch, batch.size(), "IntervalMonitor::observe_batch");
  const std::size_t n = batch.size();
  if (n == 0) return;
  // The batch coder codes neuron-major (each neuron's thresholds stay hot
  // across its whole row) into one code word per sample, and each word
  // is one cube. One cube scratch buffer serves the whole batch, and the
  // words meet in a balanced OR-tree, so the set is walked once per
  // batch, not per word.
  std::vector<std::uint64_t> codes;
  spec_.code_words(batch, nullptr, spec_.all_vars(), codes);
  const std::size_t W = spec_.num_words();
  std::vector<bdd::CubeBit> cube(mgr_.num_vars());
  std::vector<bdd::NodeRef> words(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t v = 0; v < cube.size(); ++v) {
      cube[v] = word_bit(codes.data() + i * W, v);
    }
    words[i] = mgr_.cube(cube);
  }
  set_ = mgr_.or_(set_, mgr_.or_all(std::move(words)));
  invalidate_lowered();
}

void IntervalMonitor::observe_bounds_batch(const FeatureBatch& lo,
                                           const FeatureBatch& hi) {
  check_bounds_batch(lo, hi, "IntervalMonitor::observe_bounds_batch");
  const std::size_t n = lo.size();
  const std::size_t d = dimension();
  if (n == 0) return;
  std::vector<float> lo_scratch(d), hi_scratch(d);
  std::vector<bdd::CubeBit> cube(mgr_.num_vars());
  // The words meet in a balanced OR-tree, so the set is walked once per
  // batch, not per word; a bound violation leaves the set untouched.
  std::vector<bdd::NodeRef> words(n);
  for (std::size_t i = 0; i < n; ++i) {
    lo.copy_sample(i, lo_scratch);
    hi.copy_sample(i, hi_scratch);
    check_bounds_ordered(lo_scratch, hi_scratch, d,
                         "IntervalMonitor::observe_bounds_batch");
    words[i] = bound_word(lo_scratch, hi_scratch, cube);
  }
  set_ = mgr_.or_(set_, mgr_.or_all(std::move(words)));
  invalidate_lowered();
}

bool IntervalMonitor::contains(std::span<const float> feature) const {
  if (feature.size() != dimension()) {
    throw std::invalid_argument(
        "IntervalMonitor::contains: dimension mismatch");
  }
  // Codes lazily: a neuron is coded only when the walk visits one of
  // its bit variables.
  return mgr_.eval_with(set_, [this, feature](std::uint32_t var) {
    const VarSlot slot = slots_[var];
    const std::uint64_t code = spec_.code(slot.neuron, feature[slot.neuron]);
    return ((code >> slot.shift) & 1ULL) != 0;
  });
}

std::unique_ptr<compile::CompiledUnit> IntervalMonitor::lower_unit() const {
  return compile::lower_bdd_set(mgr_, set_, spec_);
}

std::string IntervalMonitor::describe() const {
  return "IntervalMonitor(d=" + std::to_string(dimension()) +
         ", bits=" + std::to_string(spec_.bits()) +
         ", patterns=" + std::to_string(pattern_count()) +
         ", bdd_nodes=" + std::to_string(bdd_node_count()) + ")";
}

std::vector<std::uint64_t> IntervalMonitor::codes(
    std::span<const float> feature) const {
  if (feature.size() != dimension()) {
    throw std::invalid_argument("IntervalMonitor::codes: dimension mismatch");
  }
  std::vector<std::uint64_t> out(dimension());
  for (std::size_t j = 0; j < dimension(); ++j) {
    out[j] = spec_.code(j, feature[j]);
  }
  return out;
}

void IntervalMonitor::enlarge_hamming(unsigned radius) {
  std::vector<std::uint32_t> vars(mgr_.num_vars());
  std::iota(vars.begin(), vars.end(), 0U);
  for (unsigned r = 0; r < radius; ++r) {
    set_ = mgr_.hamming_expand(set_, vars);
  }
  invalidate_lowered();
}

std::optional<unsigned> IntervalMonitor::hamming_distance(
    std::span<const float> feature, unsigned max_radius) const {
  if (feature.size() != dimension()) {
    throw std::invalid_argument(
        "IntervalMonitor::hamming_distance: dimension mismatch");
  }
  if (set_ == bdd::kFalse) return std::nullopt;
  const std::vector<std::uint64_t> word = code_word(spec_, feature);
  std::vector<bool> point(mgr_.num_vars());
  for (std::size_t v = 0; v < point.size(); ++v) {
    point[v] = word_bit(word.data(), v) == bdd::CubeBit::kOne;
  }
  const auto d = mgr_.min_hamming_distance(set_, point);
  if (!d || *d > max_radius) return std::nullopt;
  return *d;
}

double IntervalMonitor::pattern_count() const { return mgr_.sat_count(set_); }

std::size_t IntervalMonitor::bdd_node_count() const {
  return mgr_.node_count(set_);
}

}  // namespace ranm
