// Every dispatch level of the batched kernels (util/isa.hpp) computes the
// same bits: the forward-pass and training goldens, the forward kernels at
// their tile edges, and the vectorized box backend's bit-identity with the
// reference backend, each run at every level. Levels this CPU lacks are skipped under their name, so CI can
// tell a skipped level from a passing one.
#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "kernel_checks.hpp"
#include "util/isa.hpp"

namespace ranm {
namespace {

class KernelIsa : public ::testing::TestWithParam<Isa> {
 protected:
  void SetUp() override {
    if (!isa_supported(GetParam())) {
      GTEST_SKIP() << isa_name(GetParam()) << " is not supported by this CPU";
    }
    level_.emplace(GetParam());
  }
  void TearDown() override { level_.reset(); }

 private:
  std::optional<ScopedKernelIsa> level_;
};

TEST_P(KernelIsa, ForwardBatchGolden) {
  ASSERT_EQ(kernel_isa(), GetParam());
  check_forward_batch_golden();
}

TEST_P(KernelIsa, ForwardTileEdges) { check_forward_tile_edges(); }

TEST_P(KernelIsa, LabConvnetTrainingGolden) {
  check_lab_convnet_training_golden();
}

TEST_P(KernelIsa, BackendDiffChains) {
  check_random_mlp_chains();
  check_conv_norm_pool_chain();
  check_strided_conv_avg_pool_chain();
  check_seed_convnet();
  check_tile_edge_chain();
  check_columns_do_not_depend_on_the_batch();
  check_sub_range_propagation();
}

INSTANTIATE_TEST_SUITE_P(Levels, KernelIsa, ::testing::ValuesIn(kAllIsas),
                         [](const ::testing::TestParamInfo<Isa>& param) {
                           return std::string(isa_name(param.param));
                         });

/// The CPU flags the kernel lists in /proc/cpuinfo; empty where there is
/// no such file.
std::set<std::string> cpuinfo_flags() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("flags", 0) != 0) continue;
    std::istringstream words(line.substr(line.find(':') + 1));
    std::set<std::string> flags;
    for (std::string flag; words >> flag;) flags.insert(flag);
    return flags;
  }
  return {};
}

TEST(KernelIsaDetection, NeverReportsALevelTheCpuLacks) {
  const std::set<std::string> flags = cpuinfo_flags();
  if (flags.empty()) GTEST_SKIP() << "no /proc/cpuinfo flags to check";
  const Isa level = kernel_isa();
  EXPECT_EQ(level, cpu_isa());
  if (level >= Isa::kAvx2) {
    EXPECT_TRUE(flags.contains("avx2"));
  }
  if (level >= Isa::kAvx512) {
    EXPECT_TRUE(flags.contains("avx512f"));
    EXPECT_TRUE(flags.contains("avx512vl"));
  }
}

TEST(KernelIsaDetection, OverrideNestsAndRefusesMissingLevels) {
  {
    const ScopedKernelIsa outer(Isa::kBaseline);
    EXPECT_EQ(kernel_isa(), Isa::kBaseline);
    {
      const ScopedKernelIsa inner(cpu_isa());
      EXPECT_EQ(kernel_isa(), cpu_isa());
    }
    EXPECT_EQ(kernel_isa(), Isa::kBaseline);
  }
  EXPECT_EQ(kernel_isa(), cpu_isa());
  for (const Isa level : kAllIsas) {
    if (isa_supported(level)) continue;
    EXPECT_THROW(ScopedKernelIsa{level}, std::invalid_argument);
  }
}

}  // namespace
}  // namespace ranm
