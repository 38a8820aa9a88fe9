// Online-adaptation state of one serving process.
//
// A MonitorService owns one AdaptState, which every worker reaches
// through that service: the staged-sample pool feeding the next rebuild,
// the per-shard novelty counters behind kStats, the generation counter,
// and the in-memory + on-disk history kRollback restores from. One mutex
// guards all of it — staging copies a few KB per observe frame and
// swap/rollback are rare control operations, so contention is not a
// concern on this path (queries never touch it).
//
// Generations are monotonic and never reused: the initial monitor is
// generation 1, every swap publishes max-assigned + 1 — also after a
// rollback, so "which artifact was generation N" stays unambiguous
// across the whole process lifetime and the rotated on-disk store.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/feature_batch.hpp"
#include "serve/snapshot_store.hpp"
#include "util/annotations.hpp"

namespace ranm::serve {

/// Lifecycle counters mirrored into ServiceStats.
struct AdaptTelemetry {
  std::uint64_t generation = 0;
  std::uint64_t staged_samples = 0;
  std::uint64_t swaps = 0;
  std::uint64_t rollbacks = 0;
  std::vector<std::uint64_t> shard_novel;  // staged novelty per shard
};

/// What a background rebuild starts from: the pristine bytes of the
/// currently served generation plus a copy of the staged features
/// (sample-major, staged_count x dimension floats).
struct RebuildInput {
  std::string base_artifact;
  std::vector<float> features;
  std::uint64_t staged_count = 0;
};

class AdaptState {
 public:
  /// Byte budget of the staged features awaiting a swap; past it,
  /// stage() throws and the operator must swap (or drop the connection's
  /// stream). A rebuild copies the pool once more, so the peak is twice
  /// this. At dimension 32 it holds 2^20 samples. Injectable for tests.
  static constexpr std::size_t kMaxStagedBytes = std::size_t{128} << 20;

  /// `base_artifact` is the serialized generation-1 monitor; `shard_count`
  /// sizes the novelty counters (0 for unsharded monitors).
  AdaptState(std::size_t dimension, std::string base_artifact,
             std::size_t shard_count,
             std::size_t max_staged_bytes = kMaxStagedBytes);

  [[nodiscard]] std::size_t dimension() const { return dimension_; }
  /// Samples the byte budget admits at this dimension.
  [[nodiscard]] std::size_t max_staged_samples() const { return max_staged_; }

  /// Stages one observed feature batch plus its per-shard novelty counts;
  /// returns the staged total. Throws std::runtime_error past the staging
  /// cap.
  std::uint64_t stage(const FeatureBatch& features,
                      std::span<const std::uint64_t> shard_novel)
      RANM_EXCLUDES(mu_);

  /// Snapshot of current-generation bytes + staged features for a
  /// background rebuild. Staging may continue concurrently; commit_swap
  /// drains exactly the prefix this copy saw.
  [[nodiscard]] RebuildInput rebuild_input() const RANM_EXCLUDES(mu_);

  /// Publishes a rebuilt artifact: assigns the next generation, persists
  /// it (when a store is attached), records it in the in-memory history,
  /// drains the `applied` staged prefix, and resets novelty counters.
  /// Returns the new generation.
  std::uint64_t commit_swap(std::string bytes, std::uint64_t applied)
      RANM_EXCLUDES(mu_);

  /// Resolves a rollback target (0 = newest generation older than the one
  /// being served) to its persisted bytes. Throws std::runtime_error for
  /// unknown generations.
  [[nodiscard]] std::pair<std::uint64_t, std::string> checkout(
      std::uint64_t target) const RANM_EXCLUDES(mu_);

  /// Marks `generation` (previously returned by checkout) as the one
  /// being served; future rebuilds start from `bytes`.
  void commit_rollback(std::uint64_t generation, std::string bytes)
      RANM_EXCLUDES(mu_);

  /// Attaches the on-disk store. When the store already holds generations
  /// (daemon restart), adopts the newest one and returns {generation,
  /// bytes} for the caller to publish; otherwise persists the current
  /// generation and returns {0, ""}.
  std::pair<std::uint64_t, std::string> attach_store(
      std::unique_ptr<SnapshotStore> store) RANM_EXCLUDES(mu_);

  [[nodiscard]] AdaptTelemetry telemetry() const RANM_EXCLUDES(mu_);

 private:
  struct Generation {
    std::uint64_t id = 0;
    std::string bytes;
  };

  /// In-memory generations kept for rollback without a store attached.
  static constexpr std::size_t kHistoryDepth = 8;

  const std::size_t dimension_;
  const std::size_t max_staged_;  // samples

  mutable Mutex mu_;
  std::uint64_t generation_ RANM_GUARDED_BY(mu_) = 1;     // being served
  std::uint64_t last_assigned_ RANM_GUARDED_BY(mu_) = 1;  // monotonic
  std::uint64_t swaps_ RANM_GUARDED_BY(mu_) = 0;
  std::uint64_t rollbacks_ RANM_GUARDED_BY(mu_) = 0;
  std::vector<Generation> history_ RANM_GUARDED_BY(mu_);
  std::vector<float> staged_ RANM_GUARDED_BY(mu_);  // sample-major floats
  std::vector<std::uint64_t> shard_novel_ RANM_GUARDED_BY(mu_);
  std::unique_ptr<SnapshotStore> store_ RANM_GUARDED_BY(mu_);
};

}  // namespace ranm::serve
