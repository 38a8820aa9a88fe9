// One const network serves every robust-build thread: concurrent
// PerturbationEstimator::estimate_batch calls must produce the serial
// run's bounds bit for bit, and race-free under TSan (this file carries
// the `concurrency` label). Box propagation ping-pongs through per-thread
// scratch, so the two threads interleave batch sizes on both sides of the
// register tile and of the 32-sample block, each rewriting its own
// scratch at different widths while the other runs.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include "core/perturbation_estimator.hpp"
#include "nn/init.hpp"
#include "util/rng.hpp"

namespace ranm {
namespace {

/// Both bound matrices of a batch as bit patterns (so -0 != +0).
std::vector<std::uint32_t> bound_bits(const BoxBatch& b) {
  std::vector<std::uint32_t> bits;
  for (const FeatureBatch* m : {&b.lower(), &b.upper()}) {
    for (const float v : m->storage()) {
      bits.push_back(std::bit_cast<std::uint32_t>(v));
    }
  }
  return bits;
}

TEST(EstimatorConcurrency, TwoThreadsMatchSerialBoundsBitwise) {
  Rng rng(41);
  const Network net = make_small_convnet(10, 10, 4, 12, 3, rng);
  std::vector<Tensor> inputs;
  for (int i = 0; i < 80; ++i) {
    inputs.push_back(Tensor::random_uniform({1, 10, 10}, rng));
  }
  const PerturbationEstimator pe(net, 6,
                                 PerturbationSpec{0, 0.02F, BoundDomain::kBox});
  // Each thread has its own sizes; offsets keep the threads on different
  // inputs as well.
  const std::vector<std::size_t> sizes[2] = {{1, 33, 70, 8}, {65, 5, 32, 9}};
  const std::size_t offset[2] = {0, 10};
  std::vector<std::vector<std::uint32_t>> expected[2];
  for (int t = 0; t < 2; ++t) {
    for (const std::size_t n : sizes[t]) {
      expected[t].push_back(bound_bits(
          pe.estimate_batch(std::span(inputs.data() + offset[t], n))));
    }
  }

  constexpr int kRounds = 40;
  std::atomic<int> ready{0};
  int mismatches[2] = {0, 0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < 2) std::this_thread::yield();
      for (int r = 0; r < kRounds; ++r) {
        const std::size_t s = std::size_t(r) % sizes[t].size();
        const BoxBatch got = pe.estimate_batch(
            std::span(inputs.data() + offset[t], sizes[t][s]));
        if (bound_bits(got) != expected[t][s]) ++mismatches[t];
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches[0], 0);
  EXPECT_EQ(mismatches[1], 0);
}

}  // namespace
}  // namespace ranm
