// util/thread_pool: index coverage, caller participation, inline modes,
// exception propagation, and repeated-dispatch stress. These tests also
// run under the tsan preset in CI, so they deliberately hammer the
// dispatch/completion protocol from many rounds and sizes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

namespace ranm {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4U);
  for (const std::size_t count : {1UL, 2UL, 3UL, 7UL, 64UL, 1000UL}) {
    std::vector<std::atomic<int>> hits(count);
    pool.parallel_for(count,
                      [&hits](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " of " << count;
    }
  }
}

TEST(ThreadPool, CountZeroIsANoOp) {
  ThreadPool pool(3);
  bool called = false;
  pool.parallel_for(0, [&called](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SingleThreadRunsInlineInOrder) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1U);
  std::vector<std::size_t> order;
  pool.parallel_for(5, [&order](std::size_t i) { order.push_back(i); });
  const std::vector<std::size_t> expected{0, 1, 2, 3, 4};
  EXPECT_EQ(order, expected);
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.thread_count(), 1U);
  std::atomic<int> total{0};
  pool.parallel_for(100, [&total](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 100);
}

TEST(ThreadPool, ParallelSumMatchesSequential) {
  ThreadPool pool(4);
  std::vector<long> slots(257, 0);
  pool.parallel_for(slots.size(),
                    [&slots](std::size_t i) { slots[i] = long(i) * 3; });
  long expected = 0;
  for (std::size_t i = 0; i < slots.size(); ++i) expected += long(i) * 3;
  EXPECT_EQ(std::accumulate(slots.begin(), slots.end(), 0L), expected);
}

TEST(ThreadPool, FirstExceptionPropagates) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.parallel_for(32,
                        [&completed](std::size_t i) {
                          if (i == 7) {
                            throw std::runtime_error("task 7 failed");
                          }
                          completed.fetch_add(1);
                        }),
      std::runtime_error);
  // All other tasks still ran to completion before the rethrow.
  EXPECT_EQ(completed.load(), 31);
  // The pool stays usable after a failed round.
  std::atomic<int> after{0};
  pool.parallel_for(8, [&after](std::size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 8);
}

TEST(ThreadPool, ManyRoundsStress) {
  ThreadPool pool(4);
  std::atomic<long> total{0};
  for (int round = 0; round < 200; ++round) {
    pool.parallel_for(16, [&total](std::size_t i) {
      total.fetch_add(long(i) + 1);
    });
  }
  EXPECT_EQ(total.load(), 200L * (16 * 17 / 2));
}

// A monitor shared by several serving workers calls parallel_for from all
// of them at once: every call must still run each of its own indices
// exactly once and return only when they are done.
TEST(ThreadPool, ConcurrentCallersEachCompleteTheirOwnLoop) {
  ThreadPool pool(3);
  constexpr int kCallers = 4;
  constexpr int kRounds = 200;
  constexpr std::size_t kCount = 37;
  std::vector<int> failures(kCallers, 0);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int r = 0; r < kRounds; ++r) {
        std::vector<std::atomic<int>> hits(kCount);
        pool.parallel_for(kCount, [&](std::size_t i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (const auto& h : hits) {
          if (h.load(std::memory_order_relaxed) != 1) ++failures[c];
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) EXPECT_EQ(failures[c], 0) << c;
}

TEST(ThreadPool, DestructionWithIdleWorkersIsClean) {
  for (int i = 0; i < 20; ++i) {
    ThreadPool pool(3);
    pool.parallel_for(5, [](std::size_t) {});
  }
  SUCCEED();
}

TEST(ResolveThreadCount, ZeroMeansHardwareConcurrencyAndNeverZero) {
  EXPECT_EQ(resolve_thread_count(1), 1U);
  EXPECT_EQ(resolve_thread_count(7), 7U);
  EXPECT_GE(resolve_thread_count(0), 1U);
  EXPECT_EQ(resolve_thread_count(0),
            std::size_t(std::max(1U, std::thread::hardware_concurrency())));
}

}  // namespace
}  // namespace ranm
