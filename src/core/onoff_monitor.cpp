#include "core/onoff_monitor.hpp"

#include <cstdint>
#include <stdexcept>

#include "compile/lower.hpp"

namespace ranm {
namespace {

// bits[j * n + i] = 1-bit code of sample i at neuron j. Neuron-major
// sweep: each threshold is loaded once and applied to a contiguous batch
// row.
void fill_bit_matrix(const ThresholdSpec& spec, const FeatureBatch& batch,
                     std::vector<std::uint8_t>& bits) {
  const std::size_t n = batch.size();
  bits.resize(spec.dimension() * n);
  for (std::size_t j = 0; j < spec.dimension(); ++j) {
    const Threshold t = spec.thresholds(j).front();
    const auto row = batch.neuron(j);
    std::uint8_t* dst = bits.data() + j * n;
    if (t.inclusive_below) {
      for (std::size_t i = 0; i < n; ++i) dst[i] = row[i] > t.value ? 1 : 0;
    } else {
      for (std::size_t i = 0; i < n; ++i) dst[i] = row[i] >= t.value ? 1 : 0;
    }
  }
}

}  // namespace

OnOffMonitor::OnOffMonitor(ThresholdSpec spec)
    : spec_(std::move(spec)),
      mgr_(static_cast<std::uint32_t>(spec_.dimension())),
      set_(bdd::kFalse) {
  if (spec_.bits() != 1) {
    throw std::invalid_argument(
        "OnOffMonitor: threshold spec must be 1 bit per neuron");
  }
}

void OnOffMonitor::observe(std::span<const float> feature) {
  if (feature.size() != dimension()) {
    throw std::invalid_argument("OnOffMonitor::observe: dimension mismatch");
  }
  std::vector<bdd::CubeBit> bits(dimension());
  for (std::size_t j = 0; j < dimension(); ++j) {
    bits[j] = spec_.code(j, feature[j]) == 1 ? bdd::CubeBit::kOne
                                             : bdd::CubeBit::kZero;
  }
  set_ = mgr_.or_(set_, mgr_.cube(bits));
  invalidate_lowered();
}

void OnOffMonitor::observe_bounds(std::span<const float> lo,
                                  std::span<const float> hi) {
  check_bounds_ordered(lo, hi, dimension(), "OnOffMonitor::observe_bounds");
  // abR of the paper: 1 if l_j > c_j, 0 if u_j <= c_j, else don't-care.
  // In code terms: the code range of [l_j, u_j] is {1}, {0}, or {0, 1}.
  std::vector<bdd::CubeBit> bits(dimension());
  for (std::size_t j = 0; j < dimension(); ++j) {
    const auto [clo, chi] = spec_.code_range(j, lo[j], hi[j]);
    if (clo == chi) {
      bits[j] = clo == 1 ? bdd::CubeBit::kOne : bdd::CubeBit::kZero;
    } else {
      bits[j] = bdd::CubeBit::kDontCare;  // word2set resolves both
    }
  }
  set_ = mgr_.or_(set_, mgr_.cube(bits));
  invalidate_lowered();
}

bool OnOffMonitor::contains(std::span<const float> feature) const {
  if (feature.size() != dimension()) {
    throw std::invalid_argument("OnOffMonitor::contains: dimension mismatch");
  }
  // Codes lazily: only the neurons on the walked path are thresholded.
  return mgr_.eval_with(set_, [this, feature](std::uint32_t j) {
    return spec_.code(j, feature[j]) == 1;
  });
}

std::unique_ptr<compile::CompiledUnit> OnOffMonitor::lower_unit(
    std::size_t cube_limit) const {
  return compile::lower_bdd_set(mgr_, set_, spec_, cube_limit);
}

void OnOffMonitor::observe_batch(const FeatureBatch& batch) {
  check_batch(batch, batch.size(), "OnOffMonitor::observe_batch");
  const std::size_t n = batch.size();
  const std::size_t d = dimension();
  if (n == 0) return;
  std::vector<std::uint8_t> bits;
  fill_bit_matrix(spec_, batch, bits);
  // One cube scratch buffer for the whole batch. The words meet in a
  // balanced OR-tree, so the set is walked once per batch.
  std::vector<bdd::CubeBit> cube(d);
  std::vector<bdd::NodeRef> words(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t v = 0; v < d; ++v) {
      cube[v] = bits[v * n + i] != 0 ? bdd::CubeBit::kOne
                                     : bdd::CubeBit::kZero;
    }
    words[i] = mgr_.cube(cube);
  }
  set_ = mgr_.or_(set_, mgr_.or_all(std::move(words)));
  invalidate_lowered();
}

void OnOffMonitor::observe_bounds_batch(const FeatureBatch& lo,
                                        const FeatureBatch& hi) {
  check_bounds_batch(lo, hi, "OnOffMonitor::observe_bounds_batch");
  const std::size_t n = lo.size();
  const std::size_t d = dimension();
  if (n == 0) return;
  std::vector<bdd::CubeBit> cube(d);
  std::vector<float> lo_scratch(d), hi_scratch(d);
  // The words meet in a balanced OR-tree, so the set is walked once per
  // batch, not per word; a bound violation leaves the set untouched.
  std::vector<bdd::NodeRef> words(n);
  for (std::size_t i = 0; i < n; ++i) {
    lo.copy_sample(i, lo_scratch);
    hi.copy_sample(i, hi_scratch);
    check_bounds_ordered(lo_scratch, hi_scratch, d,
                         "OnOffMonitor::observe_bounds_batch");
    for (std::size_t j = 0; j < d; ++j) {
      const auto [clo, chi] = spec_.code_range(j, lo_scratch[j],
                                               hi_scratch[j]);
      if (clo == chi) {
        cube[j] = clo == 1 ? bdd::CubeBit::kOne : bdd::CubeBit::kZero;
      } else {
        cube[j] = bdd::CubeBit::kDontCare;
      }
    }
    words[i] = mgr_.cube(cube);
  }
  set_ = mgr_.or_(set_, mgr_.or_all(std::move(words)));
  invalidate_lowered();
}

std::string OnOffMonitor::describe() const {
  return "OnOffMonitor(d=" + std::to_string(dimension()) +
         ", patterns=" + std::to_string(pattern_count()) +
         ", bdd_nodes=" + std::to_string(bdd_node_count()) + ")";
}

std::vector<bool> OnOffMonitor::pattern(
    std::span<const float> feature) const {
  if (feature.size() != dimension()) {
    throw std::invalid_argument("OnOffMonitor::pattern: dimension mismatch");
  }
  std::vector<bool> bits(dimension());
  for (std::size_t j = 0; j < dimension(); ++j) {
    bits[j] = spec_.code(j, feature[j]) == 1;
  }
  return bits;
}

void OnOffMonitor::enlarge_hamming(unsigned radius) {
  std::vector<std::uint32_t> vars(dimension());
  for (std::size_t j = 0; j < dimension(); ++j) {
    vars[j] = static_cast<std::uint32_t>(j);
  }
  for (unsigned r = 0; r < radius; ++r) {
    set_ = mgr_.hamming_expand(set_, vars);
  }
  invalidate_lowered();
}

std::optional<unsigned> OnOffMonitor::hamming_distance(
    std::span<const float> feature, unsigned max_radius) const {
  if (set_ == bdd::kFalse) return std::nullopt;
  // Exact shortest-path DP over the BDD: O(nodes) per query, no set
  // expansion (which blows up combinatorially on large pattern sets).
  const auto d = mgr_.min_hamming_distance(set_, pattern(feature));
  if (!d || *d > max_radius) return std::nullopt;
  return *d;
}

double OnOffMonitor::pattern_count() const { return mgr_.sat_count(set_); }

std::size_t OnOffMonitor::bdd_node_count() const {
  return mgr_.node_count(set_);
}

}  // namespace ranm
