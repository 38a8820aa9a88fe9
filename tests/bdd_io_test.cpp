#include "bdd/bdd_io.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace ranm::bdd {
namespace {

TEST(BddIo, RoundTripTerminals) {
  BddManager mgr(4);
  for (NodeRef f : {kFalse, kTrue}) {
    std::stringstream ss;
    save_bdd(ss, mgr, f);
    BddManager mgr2(4);
    EXPECT_EQ(load_bdd(ss, mgr2), f);
  }
}

TEST(BddIo, RoundTripPreservesSemantics) {
  Rng rng(31);
  const std::uint32_t n = 6;
  BddManager mgr(n);
  // Random function as OR of random cubes.
  NodeRef f = kFalse;
  for (int c = 0; c < 10; ++c) {
    std::vector<CubeBit> bits(n);
    for (auto& b : bits) {
      const auto r = rng.below(3);
      b = r == 0 ? CubeBit::kZero
                 : (r == 1 ? CubeBit::kOne : CubeBit::kDontCare);
    }
    f = mgr.or_(f, mgr.cube(bits));
  }

  std::stringstream ss;
  save_bdd(ss, mgr, f);
  BddManager mgr2(n);
  const NodeRef g = load_bdd(ss, mgr2);

  for (std::uint32_t v = 0; v < (1U << n); ++v) {
    std::vector<bool> a(n);
    for (std::uint32_t i = 0; i < n; ++i) a[i] = ((v >> i) & 1U) != 0;
    EXPECT_EQ(mgr.eval(f, a), mgr2.eval(g, a));
  }
  EXPECT_DOUBLE_EQ(mgr.sat_count(f), mgr2.sat_count(g));
}

TEST(BddIo, LoadIntoSameManagerIsIdentical) {
  BddManager mgr(5);
  const NodeRef f = mgr.xor_(mgr.var(0), mgr.and_(mgr.var(2), mgr.nvar(4)));
  std::stringstream ss;
  save_bdd(ss, mgr, f);
  EXPECT_EQ(load_bdd(ss, mgr), f);  // hash-consing gives pointer equality
}

TEST(BddIo, RejectsBadMagic) {
  std::stringstream ss;
  ss << "garbage data here";
  BddManager mgr(4);
  EXPECT_THROW((void)load_bdd(ss, mgr), std::runtime_error);
}

TEST(BddIo, RejectsTruncatedStream) {
  BddManager mgr(4);
  const NodeRef f = mgr.and_(mgr.var(0), mgr.var(1));
  std::stringstream ss;
  save_bdd(ss, mgr, f);
  const std::string full = ss.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  BddManager mgr2(4);
  EXPECT_THROW((void)load_bdd(truncated, mgr2), std::runtime_error);
}

TEST(BddIo, RejectsSmallerManager) {
  BddManager mgr(8);
  const NodeRef f = mgr.var(7);
  std::stringstream ss;
  save_bdd(ss, mgr, f);
  BddManager tiny(2);
  EXPECT_THROW((void)load_bdd(ss, tiny), std::runtime_error);
}

TEST(BddIo, RejectsNodeCountAboveCap) {
  // Regression for the fuzz-driven cap tightening: a 12-byte header
  // claiming 2^24 + 1 nodes must fail before the slot vector allocates.
  std::stringstream ss;
  auto put_u32 = [&ss](std::uint32_t v) {
    ss.write(reinterpret_cast<const char*>(&v), sizeof v);
  };
  put_u32(0x42444431U);    // BDD1
  put_u32(4);              // num_vars
  put_u32((1U << 24) + 1);  // node count: just past the cap
  BddManager mgr(4);
  EXPECT_THROW((void)load_bdd(ss, mgr), std::runtime_error);
}

/// A 12-byte BDD header declaring `count` nodes and nothing after it.
std::string header_only(std::uint32_t count) {
  std::string s(12, '\0');
  const std::uint32_t words[3] = {0x42444431U, 4, count};  // BDD1, 4 vars
  std::memcpy(s.data(), words, sizeof words);
  return s;
}

TEST(BddIo, RejectsNodeCountAboveBudget) {
  std::stringstream ss(header_only(kMaxNodes + 1));
  BddManager mgr(4);
  try {
    (void)load_bdd(ss, mgr);
    FAIL() << "a count above kMaxNodes was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("implausible node count"),
              std::string::npos)
        << e.what();
  }
}

TEST(BddIo, CountWithinBudgetAllocatesOnlyWhatIsRead) {
  // The budget itself is a legal count. The slot vector grows as nodes
  // arrive, so the empty body fails on its first read instead of after
  // committing kMaxNodes slots.
  std::stringstream ss(header_only(kMaxNodes));
  BddManager mgr(4);
  try {
    (void)load_bdd(ss, mgr);
    FAIL() << "a truncated stream was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated stream"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(mgr.arena_size(), 2U);
}

TEST(BddIo, RoundTripOfAFunctionOverTwoToTheSixteenNodes) {
  // The loader's slot vector grows as nodes arrive; 5000 random 40-bit
  // words share little below their top dozen levels.
  constexpr std::uint32_t kVars = 40;
  BddManager mgr(kVars);
  Rng rng(4093);
  std::vector<NodeRef> words;
  for (int c = 0; c < 5000; ++c) {
    std::vector<CubeBit> bits(kVars);
    for (auto& b : bits) b = rng.chance(0.5) ? CubeBit::kOne : CubeBit::kZero;
    words.push_back(mgr.cube(bits));
  }
  const NodeRef f = mgr.or_all(std::move(words));
  ASSERT_GT(mgr.node_count(f), std::size_t{1} << 16);
  std::stringstream ss;
  save_bdd(ss, mgr, f);
  BddManager mgr2(kVars);
  const NodeRef g = load_bdd(ss, mgr2);
  EXPECT_EQ(mgr2.node_count(g), mgr.node_count(f));
  EXPECT_DOUBLE_EQ(mgr2.sat_count(g), mgr.sat_count(f));
}

}  // namespace
}  // namespace ranm::bdd
