#include "bdd/range.hpp"

#include <gtest/gtest.h>

#include "core/interval_monitor.hpp"
#include "util/rng.hpp"

namespace ranm::bdd {
namespace {

std::vector<std::uint32_t> make_vars(std::uint32_t first,
                                     std::uint32_t count) {
  std::vector<std::uint32_t> v(count);
  for (std::uint32_t i = 0; i < count; ++i) v[i] = first + i;
  return v;
}

TEST(BddRange, CodeEqualsExactlyOne) {
  BddManager mgr(3);
  const auto vars = make_vars(0, 3);
  for (std::uint64_t value = 0; value < 8; ++value) {
    const NodeRef f = code_equals(mgr, vars, value);
    EXPECT_DOUBLE_EQ(mgr.sat_count(f), 1.0);
    std::vector<bool> a(3, false);
    encode_bits(vars, value, a);
    EXPECT_TRUE(mgr.eval(f, a));
    EXPECT_EQ(decode_bits(vars, a), value);
  }
}

TEST(BddRange, GeqSemantics) {
  BddManager mgr(4);
  const auto vars = make_vars(0, 4);
  for (std::uint64_t bound = 0; bound < 16; ++bound) {
    const NodeRef f = code_geq(mgr, vars, bound);
    for (std::uint64_t v = 0; v < 16; ++v) {
      std::vector<bool> a(4, false);
      encode_bits(vars, v, a);
      EXPECT_EQ(mgr.eval(f, a), v >= bound)
          << "bound=" << bound << " v=" << v;
    }
  }
}

TEST(BddRange, LeqSemantics) {
  BddManager mgr(4);
  const auto vars = make_vars(0, 4);
  for (std::uint64_t bound = 0; bound < 16; ++bound) {
    const NodeRef f = code_leq(mgr, vars, bound);
    for (std::uint64_t v = 0; v < 16; ++v) {
      std::vector<bool> a(4, false);
      encode_bits(vars, v, a);
      EXPECT_EQ(mgr.eval(f, a), v <= bound)
          << "bound=" << bound << " v=" << v;
    }
  }
}

TEST(BddRange, RangeSemanticsExhaustive) {
  BddManager mgr(3);
  const auto vars = make_vars(0, 3);
  for (std::uint64_t lo = 0; lo < 8; ++lo) {
    for (std::uint64_t hi = lo; hi < 8; ++hi) {
      const NodeRef f = code_in_range(mgr, vars, lo, hi);
      EXPECT_DOUBLE_EQ(mgr.sat_count(f), double(hi - lo + 1));
      for (std::uint64_t v = 0; v < 8; ++v) {
        std::vector<bool> a(3, false);
        encode_bits(vars, v, a);
        EXPECT_EQ(mgr.eval(f, a), lo <= v && v <= hi);
      }
    }
  }
}

TEST(BddRange, RangeRejectsInverted) {
  BddManager mgr(3);
  const auto vars = make_vars(0, 3);
  EXPECT_THROW((void)code_in_range(mgr, vars, 5, 2), std::invalid_argument);
}

TEST(BddRange, FullRangeIsTrue) {
  BddManager mgr(3);
  const auto vars = make_vars(0, 3);
  EXPECT_EQ(code_in_range(mgr, vars, 0, 7), BddManager::true_());
}

TEST(BddRange, NodeCountLinearInBits) {
  // Range constraints must be O(bits) nodes — this is what keeps robust
  // interval-monitor insertion linear (footnote 2 generalised).
  for (std::uint32_t bits : {4U, 8U, 16U, 24U}) {
    BddManager mgr(bits);
    const auto vars = make_vars(0, bits);
    const std::uint64_t lo = 1;
    const std::uint64_t hi = (1ULL << bits) - 2;
    const NodeRef f = code_in_range(mgr, vars, lo, hi);
    EXPECT_LE(mgr.node_count(f), std::size_t(2 * bits + 2));
  }
}

TEST(BddRange, OffsetVariableBlock) {
  // Ranges over a non-zero variable block (as used per neuron).
  BddManager mgr(8);
  const auto vars = make_vars(4, 3);  // bits 4..6
  const NodeRef f = code_in_range(mgr, vars, 2, 5);
  std::vector<bool> a(8, false);
  encode_bits(vars, 3, a);
  EXPECT_TRUE(mgr.eval(f, a));
  encode_bits(vars, 6, a);
  EXPECT_FALSE(mgr.eval(f, a));
  // Bits outside the block are unconstrained.
  a[0] = a[7] = true;
  encode_bits(vars, 4, a);
  EXPECT_TRUE(mgr.eval(f, a));
}

TEST(BddRange, PrependedCubeEqualsConjunction) {
  // A cube prepended onto `below` is the conjunction of its literals and
  // `below`, and the same node as that conjunction.
  Rng rng(23);
  for (std::uint32_t bits = 1; bits <= 4; ++bits) {
    const std::uint32_t nvars = 3 * bits;
    BddManager mgr(nvars);
    for (int trial = 0; trial < 50; ++trial) {
      // `below`: a random range over the last neuron's block.
      const auto last = make_vars(2 * bits, bits);
      std::uint64_t a = rng.below(1ULL << bits), b = rng.below(1ULL << bits);
      if (a > b) std::swap(a, b);
      const NodeRef below = code_in_range(mgr, last, a, b);
      // An aligned block over the middle neuron's bits.
      const std::uint32_t k = static_cast<std::uint32_t>(rng.below(bits + 1));
      const std::uint64_t lo = rng.below(1ULL << bits) >> k << k;
      const std::uint64_t hi = lo + (1ULL << k) - 1;
      std::vector<CubeBit> cube(bits);
      for (std::uint32_t i = 0; i < bits; ++i) {
        const std::uint32_t shift = bits - 1 - i;
        cube[i] = shift < k                ? CubeBit::kDontCare
                  : ((lo >> shift) & 1) != 0 ? CubeBit::kOne
                                             : CubeBit::kZero;
      }
      const auto middle = make_vars(bits, bits);
      EXPECT_EQ(mgr.cube(cube, bits, below),
                mgr.and_(code_in_range(mgr, middle, lo, hi), below))
          << "bits=" << bits << " [" << lo << ", " << hi << "]";
    }
    // `below` must sit under the cube's last variable.
    const std::vector<CubeBit> one(bits, CubeBit::kOne);
    EXPECT_NO_THROW((void)mgr.cube(one, 0, mgr.var(bits)));
    EXPECT_THROW((void)mgr.cube(one, 0, mgr.var(bits - 1)),
                 std::invalid_argument);
    EXPECT_THROW((void)mgr.cube(one, 2 * bits + 1), std::invalid_argument);
    EXPECT_THROW((void)mgr.cube(one, 0, NodeRef(mgr.arena_size())),
                 std::invalid_argument);
  }
}

TEST(BddRange, BoundWordEqualsRangeConjunction) {
  // IntervalMonitor's robust word (aligned code ranges prepended as cube
  // literals, the rest ANDed as range constraints) must be the same node
  // as the conjunction of every neuron's code_in_range. Every [lo, hi] at
  // B = 1..4 sits at every position of words of 1..5 neurons, the other
  // neurons drawing random ranges.
  Rng rng(29);
  for (std::size_t bits = 1; bits <= 4; ++bits) {
    const std::uint64_t codes = 1ULL << bits;
    for (std::size_t dim = 1; dim <= 5; ++dim) {
      // Thresholds at c + 0.5, so the value c has code c.
      std::vector<float> values;
      for (std::size_t j = 0; j < dim; ++j) {
        for (std::uint64_t c = 0; c + 1 < codes; ++c) {
          values.push_back(float(c) + 0.5F);
        }
      }
      std::vector<std::uint8_t> inclusive(values.size(), 1);
      IntervalMonitor m(
          ThresholdSpec(bits, std::move(values), std::move(inclusive)));
      BddManager& mgr = m.manager();
      for (std::uint64_t lo = 0; lo < codes; ++lo) {
        for (std::uint64_t hi = lo; hi < codes; ++hi) {
          for (std::size_t pos = 0; pos < dim; ++pos) {
            std::vector<std::uint64_t> clo(dim), chi(dim);
            for (std::size_t j = 0; j < dim; ++j) {
              clo[j] = j == pos ? lo : rng.below(codes);
              chi[j] = j == pos ? hi : clo[j] + rng.below(codes - clo[j]);
            }
            std::vector<float> flo(dim), fhi(dim);
            NodeRef expected = kTrue;
            for (std::size_t j = 0; j < dim; ++j) {
              flo[j] = float(clo[j]);
              fhi[j] = float(chi[j]);
              const auto vars = make_vars(std::uint32_t(j * bits),
                                          std::uint32_t(bits));
              expected = mgr.and_(expected,
                                  code_in_range(mgr, vars, clo[j], chi[j]));
            }
            m.set_root(kFalse);
            m.observe_bounds(flo, fhi);
            EXPECT_EQ(m.root(), expected)
                << "bits=" << bits << " dim=" << dim << " pos=" << pos
                << " [" << lo << ", " << hi << "]";
          }
        }
      }
    }
  }
}

TEST(BddRange, EncodeDecodeRoundTrip) {
  Rng rng(17);
  const auto vars = make_vars(2, 6);
  std::vector<bool> a(10, false);
  for (int trial = 0; trial < 100; ++trial) {
    const std::uint64_t v = rng.below(64);
    encode_bits(vars, v, a);
    EXPECT_EQ(decode_bits(vars, a), v);
  }
}

}  // namespace
}  // namespace ranm::bdd
