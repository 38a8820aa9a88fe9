// Robustness of the loaders against corrupted input: random bytes and
// randomly truncated valid streams must raise std::runtime_error (or load
// an equivalent object), never crash or hang. Deployment artifacts get
// read on a vehicle; a flipped bit must fail loudly.
#include <gtest/gtest.h>

#include <sstream>

#include "bdd/bdd_io.hpp"
#include "io/serialize.hpp"
#include "nn/init.hpp"
#include "util/rng.hpp"

namespace ranm {
namespace {

std::string random_bytes(Rng& rng, std::size_t n) {
  std::string s(n, '\0');
  for (auto& c : s) c = char(rng.below(256));
  return s;
}

class LoaderFuzz : public ::testing::TestWithParam<int> {};

TEST_P(LoaderFuzz, RandomBytesNeverCrashLoaders) {
  Rng rng{std::uint64_t(GetParam())};
  for (int trial = 0; trial < 50; ++trial) {
    const std::string junk = random_bytes(rng, 16 + rng.below(256));
    {
      std::istringstream in(junk);
      EXPECT_THROW((void)load_network(in), std::runtime_error);
    }
    {
      std::istringstream in(junk);
      EXPECT_THROW((void)load_any_monitor(in), std::runtime_error);
    }
    {
      std::istringstream in(junk);
      EXPECT_THROW((void)load_dataset(in), std::runtime_error);
    }
    {
      std::istringstream in(junk);
      bdd::BddManager mgr(8);
      EXPECT_THROW((void)bdd::load_bdd(in, mgr), std::runtime_error);
    }
  }
}

TEST_P(LoaderFuzz, TruncatedNetworkThrows) {
  Rng rng{std::uint64_t(GetParam()) + 100};
  Network net = make_mlp({4, 8, 3}, rng);
  std::ostringstream out;
  save_network(out, net);
  const std::string full = out.str();
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t cut = 1 + rng.below(full.size() - 1);
    std::istringstream in(full.substr(0, cut));
    try {
      (void)load_network(in);
      // Very short truncations cannot succeed; a truncation that keeps
      // the whole payload minus trailing bytes of the final tensor must
      // still throw because the read is short.
      FAIL() << "truncated stream of " << cut << "/" << full.size()
             << " bytes loaded successfully";
    } catch (const std::runtime_error&) {
      // expected
    } catch (const std::invalid_argument&) {
      // also acceptable: structurally invalid payload detected
    }
  }
}

TEST_P(LoaderFuzz, TruncatedMonitorThrows) {
  Rng rng{std::uint64_t(GetParam()) + 200};
  IntervalMonitor m(ThresholdSpec::onoff(std::vector<float>(6, 0.0F)));
  for (int i = 0; i < 10; ++i) {
    std::vector<float> v(6);
    for (auto& x : v) x = rng.uniform_f(-1, 1);
    m.observe(v);
  }
  std::ostringstream out;
  save_any_monitor(out, m);
  const std::string full = out.str();
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t cut = 1 + rng.below(full.size() - 1);
    std::istringstream in(full.substr(0, cut));
    EXPECT_THROW((void)load_any_monitor(in), std::runtime_error)
        << "cut at " << cut << "/" << full.size();
  }
}

TEST_P(LoaderFuzz, BitFlippedMonitorNeverCrashes) {
  Rng rng{std::uint64_t(GetParam()) + 300};
  MinMaxMonitor m(4);
  m.observe(std::vector<float>{1, 2, 3, 4});
  std::ostringstream out;
  save_any_monitor(out, m);
  std::string bytes = out.str();
  for (int trial = 0; trial < 60; ++trial) {
    std::string corrupted = bytes;
    corrupted[rng.below(corrupted.size())] ^=
        char(1 << rng.below(8));
    std::istringstream in(corrupted);
    try {
      const auto loaded = load_any_monitor(in);
      // A flip in the float payload can load fine — that is acceptable;
      // the object must still be usable.
      if (loaded) {
        (void)loaded->dimension();
      }
    } catch (const std::runtime_error&) {
    } catch (const std::invalid_argument&) {
    } catch (const std::length_error&) {
      // header-length fields blown up by the flip
    } catch (const std::bad_alloc&) {
      // absurd length field
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LoaderFuzz, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace ranm
