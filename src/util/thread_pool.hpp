// Minimal fixed-size thread pool for shard-level parallelism.
//
// The sharding layer is the only parallelism in ranm: every BddManager is
// single-threaded by contract, so concurrency exists purely *across*
// shards, each task touching one shard's private state. That keeps the
// pool's job description small — run N independent index-addressed tasks,
// block until all complete — and this pool implements exactly that shape
// (a blocking parallel_for with caller participation) instead of a general
// futures/executor framework.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/annotations.hpp"

namespace ranm {

/// Shared "how many threads does 0 mean" rule: 0 resolves to the hardware
/// concurrency (never 0 itself), anything else passes through. Used by
/// ThreadPool, the serving worker pool, and the CLI --threads flags so
/// every subsystem agrees on the convention.
[[nodiscard]] std::size_t resolve_thread_count(std::size_t requested);

/// Fixed set of worker threads executing blocking index-parallel loops.
/// Several threads may call parallel_for concurrently: each call keeps its
/// own index counter and completion state, and its caller drains its own
/// indices, so every call finishes even while the workers serve others.
/// `body` must not call back into the same pool.
class ThreadPool {
 public:
  /// `threads` is the total concurrency of a parallel_for, including the
  /// calling thread: a pool of T spawns T-1 workers. threads <= 1 spawns
  /// none and every parallel_for runs inline on the caller. threads == 0
  /// uses std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total concurrency (workers + the calling thread).
  [[nodiscard]] std::size_t thread_count() const noexcept {
    return workers_.size() + 1;
  }

  /// Runs body(i) for every i in [0, count), distributing indices across
  /// the workers and the calling thread, and returns once all complete.
  /// Indices are claimed dynamically, so uneven task costs balance.
  /// If any body throws, the first exception is rethrown here after the
  /// remaining tasks finish.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& body)
      RANM_EXCLUDES(mu_);

 private:
  void worker_loop() RANM_EXCLUDES(mu_);

  std::vector<std::thread> workers_;
  Mutex mu_;
  CondVar cv_;
  std::deque<std::function<void()>> tasks_ RANM_GUARDED_BY(mu_);
  bool stop_ RANM_GUARDED_BY(mu_) = false;
};

}  // namespace ranm
