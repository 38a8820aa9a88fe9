// Randomized differential test of BddManager against a brute-force oracle.
//
// The oracle stores the pattern set explicitly as std::set<std::vector<bool>>
// over words of <= 16 bits. Random cube insertions (with don't-cares — the
// paper's robust word2set) are mirrored into both representations; then
// membership, satisfying-assignment count, and min Hamming distance must
// agree exactly. Any divergence pinpoints a BDD combinator bug.
//
// A second oracle keeps whole truth tables over 20 variables, packed 64
// points to a word, and mirrors long random and_/or_/xor_/ite chains. The
// chains create far more ite results than the computed table has entries,
// so they exercise its lossy overwrites and every unique-table growth.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "bdd/bdd.hpp"
#include "util/rng.hpp"

namespace ranm::bdd {
namespace {

using Word = std::vector<bool>;

Word word_from_bits(std::uint32_t value, std::uint32_t n) {
  Word w(n);
  for (std::uint32_t i = 0; i < n; ++i) w[i] = ((value >> i) & 1U) != 0;
  return w;
}

/// All concrete words matching a cube, inserted into the oracle.
void oracle_insert_cube(std::set<Word>& oracle,
                        const std::vector<CubeBit>& bits) {
  const auto n = std::uint32_t(bits.size());
  std::vector<std::uint32_t> free_vars;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (bits[i] == CubeBit::kDontCare) free_vars.push_back(i);
  }
  for (std::uint32_t mask = 0; mask < (1U << free_vars.size()); ++mask) {
    Word w(n);
    for (std::uint32_t i = 0; i < n; ++i) w[i] = bits[i] == CubeBit::kOne;
    for (std::uint32_t k = 0; k < free_vars.size(); ++k) {
      w[free_vars[k]] = ((mask >> k) & 1U) != 0;
    }
    oracle.insert(std::move(w));
  }
}

unsigned hamming(const Word& a, const Word& b) {
  unsigned d = 0;
  for (std::size_t i = 0; i < a.size(); ++i) d += unsigned(a[i] != b[i]);
  return d;
}

std::optional<unsigned> oracle_min_distance(const std::set<Word>& oracle,
                                            const Word& point) {
  std::optional<unsigned> best;
  for (const Word& w : oracle) {
    const unsigned d = hamming(w, point);
    if (!best || d < *best) best = d;
  }
  return best;
}

class BddDifferential : public ::testing::TestWithParam<int> {};

TEST_P(BddDifferential, MembershipMatchesBruteForceOracle) {
  Rng rng(std::uint64_t(GetParam()) * 7919);
  for (int trial = 0; trial < 10; ++trial) {
    // Exhaustive membership sweep up to 12 bits; sampled beyond.
    const auto n = std::uint32_t(2 + rng.below(15));  // 2..16 variables
    BddManager mgr(n);
    std::set<Word> oracle;
    NodeRef f = kFalse;

    const int insertions = 1 + int(rng.below(20));
    for (int c = 0; c < insertions; ++c) {
      std::vector<CubeBit> bits(n);
      for (auto& b : bits) {
        // Cap don't-care density so the oracle expansion stays small.
        if (rng.chance(0.25)) {
          b = CubeBit::kDontCare;
        } else {
          b = rng.chance(0.5) ? CubeBit::kOne : CubeBit::kZero;
        }
      }
      f = mgr.or_(f, mgr.cube(bits));
      oracle_insert_cube(oracle, bits);
    }

    EXPECT_DOUBLE_EQ(mgr.sat_count(f), double(oracle.size()));

    if (n <= 12) {
      for (std::uint32_t v = 0; v < (1U << n); ++v) {
        const Word w = word_from_bits(v, n);
        EXPECT_EQ(mgr.eval(f, w), oracle.contains(w))
            << "word " << v << " over " << n << " vars";
      }
    } else {
      for (int probe = 0; probe < 2000; ++probe) {
        const Word w =
            word_from_bits(std::uint32_t(rng.below(1ULL << n)), n);
        EXPECT_EQ(mgr.eval(f, w), oracle.contains(w));
      }
      // Every oracle word must be in the BDD (the sampling above mostly
      // probes non-members at high n).
      for (const Word& w : oracle) EXPECT_TRUE(mgr.eval(f, w));
    }
  }
}

TEST_P(BddDifferential, MinHammingDistanceMatchesOracle) {
  Rng rng(std::uint64_t(GetParam()) * 104729);
  for (int trial = 0; trial < 10; ++trial) {
    const auto n = std::uint32_t(2 + rng.below(9));  // 2..10 variables
    BddManager mgr(n);
    std::set<Word> oracle;
    NodeRef f = kFalse;
    const int insertions = int(rng.below(8));  // may stay empty
    for (int c = 0; c < insertions; ++c) {
      std::vector<CubeBit> bits(n);
      for (auto& b : bits) {
        b = rng.chance(0.3)
                ? CubeBit::kDontCare
                : (rng.chance(0.5) ? CubeBit::kOne : CubeBit::kZero);
      }
      f = mgr.or_(f, mgr.cube(bits));
      oracle_insert_cube(oracle, bits);
    }

    for (int probe = 0; probe < 50; ++probe) {
      const Word point =
          word_from_bits(std::uint32_t(rng.below(1ULL << n)), n);
      EXPECT_EQ(mgr.min_hamming_distance(f, point),
                oracle_min_distance(oracle, point));
    }
  }
}

/// A function over kTableVars variables as its packed truth table: bit k
/// of word w is the value at the point whose variable v is bit v of
/// w * 64 + k.
constexpr std::uint32_t kTableVars = 20;
using Table = std::vector<std::uint64_t>;

Table variable_table(std::uint32_t v) {
  // Variables below 6 alternate inside a word, the rest across words.
  static constexpr std::uint64_t kInWord[6] = {
      0xAAAAAAAAAAAAAAAAULL, 0xCCCCCCCCCCCCCCCCULL, 0xF0F0F0F0F0F0F0F0ULL,
      0xFF00FF00FF00FF00ULL, 0xFFFF0000FFFF0000ULL, 0xFFFFFFFF00000000ULL};
  Table t(std::size_t{1} << (kTableVars - 6));
  for (std::size_t w = 0; w < t.size(); ++w) {
    t[w] = v < 6 ? kInWord[v] : (((w >> (v - 6)) & 1U) != 0 ? ~0ULL : 0ULL);
  }
  return t;
}

template <typename Op>
Table combine(const Table& a, const Table& b, const Table& c, Op op) {
  Table t(a.size());
  for (std::size_t w = 0; w < t.size(); ++w) t[w] = op(a[w], b[w], c[w]);
  return t;
}

struct Pool {
  std::vector<NodeRef> refs;
  std::vector<Table> tables;
};

/// A random literal over kTableVars variables, in both representations.
std::pair<NodeRef, Table> random_literal(BddManager& mgr, Rng& rng) {
  const auto v = std::uint32_t(rng.below(kTableVars));
  Table t = variable_table(v);
  if (rng.chance(0.5)) return {mgr.var(v), std::move(t)};
  for (auto& w : t) w = ~w;
  return {mgr.nvar(v), std::move(t)};
}

Pool literal_pool(BddManager& mgr, Rng& rng, std::size_t size) {
  Pool pool;
  for (std::size_t i = 0; i < size; ++i) {
    auto [ref, table] = random_literal(mgr, rng);
    pool.refs.push_back(ref);
    pool.tables.push_back(std::move(table));
  }
  return pool;
}

/// One random step of a chain: combines three random pool members with a
/// random operator, mirrored in both representations, and replaces a
/// random member with the result. One step in four draws a fresh literal
/// instead, so the chain keeps growing rather than collapsing to constants.
void random_step(BddManager& mgr, Pool& pool, Rng& rng) {
  const std::size_t n = pool.refs.size();
  const std::size_t a = rng.below(n), b = rng.below(n), c = rng.below(n);
  NodeRef r = kFalse;
  Table t;
  switch (rng.below(8)) {
    case 0:
    case 1:
      r = mgr.and_(pool.refs[a], pool.refs[b]);
      t = combine(pool.tables[a], pool.tables[b], pool.tables[c],
                  [](auto x, auto y, auto) { return x & y; });
      break;
    case 2:
    case 3:
      r = mgr.or_(pool.refs[a], pool.refs[b]);
      t = combine(pool.tables[a], pool.tables[b], pool.tables[c],
                  [](auto x, auto y, auto) { return x | y; });
      break;
    case 4:
      r = mgr.xor_(pool.refs[a], pool.refs[b]);
      t = combine(pool.tables[a], pool.tables[b], pool.tables[c],
                  [](auto x, auto y, auto) { return x ^ y; });
      break;
    case 5:
      r = mgr.ite(pool.refs[a], pool.refs[b], pool.refs[c]);
      t = combine(pool.tables[a], pool.tables[b], pool.tables[c],
                  [](auto x, auto y, auto z) { return (x & y) | (~x & z); });
      break;
    default:
      std::tie(r, t) = random_literal(mgr, rng);
      break;
  }
  const std::size_t slot = rng.below(n);
  pool.refs[slot] = r;
  pool.tables[slot] = std::move(t);
}

void expect_pool_matches(const BddManager& mgr, const Pool& pool, Rng& rng) {
  for (std::size_t i = 0; i < pool.refs.size(); ++i) {
    std::size_t ones = 0;
    for (const std::uint64_t w : pool.tables[i]) ones += std::popcount(w);
    EXPECT_DOUBLE_EQ(mgr.sat_count(pool.refs[i]), double(ones))
        << "pool member " << i;
    for (int probe = 0; probe < 200; ++probe) {
      const auto point = std::uint32_t(rng.below(1ULL << kTableVars));
      const bool want = ((pool.tables[i][point >> 6] >> (point & 63)) & 1U) != 0;
      ASSERT_EQ(mgr.eval(pool.refs[i], word_from_bits(point, kTableVars)),
                want)
          << "pool member " << i << " point " << point;
    }
  }
}

TEST_P(BddDifferential, LongChainsMatchTruthTablesThroughCacheCollisions) {
  Rng rng(std::uint64_t(GetParam()) * 15485863);
  BddManager mgr(kTableVars);
  Pool pool = literal_pool(mgr, rng, 24);
  for (int step = 0; step < 3000; ++step) random_step(mgr, pool, rng);
  // Far more nodes than a new manager's tables hold: both have grown, and
  // the computed table has wrapped many times over.
  EXPECT_GT(mgr.arena_size(), 8192U) << mgr.arena_size();
  expect_pool_matches(mgr, pool, rng);
}

TEST_P(BddDifferential, CopiedManagersStayInStep) {
  Rng rng(std::uint64_t(GetParam()) * 32452843);
  BddManager mgr(kTableVars);
  Pool pool = literal_pool(mgr, rng, 16);
  for (int step = 0; step < 1000; ++step) random_step(mgr, pool, rng);
  BddManager copy = mgr;
  Pool copy_pool = pool;
  Rng copy_rng = rng;
  for (int step = 0; step < 1000; ++step) {
    random_step(mgr, pool, rng);
    random_step(copy, copy_pool, copy_rng);
  }
  EXPECT_EQ(mgr.arena_size(), copy.arena_size());
  EXPECT_EQ(pool.refs, copy_pool.refs);
  for (std::size_t i = 0; i < pool.refs.size(); ++i) {
    EXPECT_EQ(mgr.node_count(pool.refs[i]),
              copy.node_count(copy_pool.refs[i]));
  }
  expect_pool_matches(copy, copy_pool, copy_rng);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddDifferential,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace ranm::bdd
