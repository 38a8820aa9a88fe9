// Monitor abstraction (paper §III-A).
//
// A monitor is a compact set representation over the feature space R^d of
// one monitored layer. Construction folds abstractions of feature vectors
// (standard monitors, operator ⊎ over ab(G^k(v))) or of conservative
// per-neuron bounds (robust monitors, operator ⊎R over abR(pe(v, kp, Δ)))
// into the set. In operation the monitor answers a membership query on the
// concrete feature vector of the incoming input; a warning is the negation
// of membership.
//
// The interface deliberately knows nothing about networks: computing G^k
// and the perturbation estimate is the job of PerturbationEstimator and
// MonitorBuilder, mirroring the paper's separation between the abstraction
// (M0, ⊎, ab) and the DNN.
//
// Every entry point exists in a scalar and a batch form. The batch form is
// the deployment hot path: it answers one membership query per column of a
// FeatureBatch. Batched queries have one engine and one implementation,
// Monitor::contains_batch, which runs the monitor's lowered program
// (compile::eval_program): one unit per shard, lowered on the first batch
// of compile::kSmallBatch or more samples and cached until a mutation
// drops it (invalidate_lowered). A flat family lowers through lower_unit;
// a sharded monitor lowers each shard into one program; a compiled
// monitor is its frozen program. Smaller batches, and families without a
// lowering, loop over the scalar contains, so a new monitor type only has
// to implement the scalar path to be correct. The thread pool the
// program's shards fan out on (set_threads) lives next to the cache.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/feature_batch.hpp"
#include "util/annotations.hpp"
#include "util/thread_pool.hpp"

namespace ranm {

namespace compile {
struct CompiledUnit;
struct Shard;
using Program = std::vector<Shard>;
}

/// Query scratch of the calling thread: at least `n` bools, grown to the
/// high-water size and reused, so concurrent queries share nothing and a
/// steady-state query does not allocate. Each `Owner` type gets its own
/// buffer, so nested users (a service around a sharded monitor) never
/// alias; one owner must not nest calls on the same thread.
template <typename Owner>
[[nodiscard]] std::span<bool> thread_scratch(std::size_t n) {
  thread_local std::unique_ptr<bool[]> buffer;
  thread_local std::size_t capacity = 0;
  if (capacity < n) {
    buffer = std::make_unique<bool[]>(n);
    capacity = n;
  }
  return {buffer.get(), n};
}

/// Set abstraction over feature vectors in R^d.
class Monitor {
 public:
  virtual ~Monitor() = default;

  /// Dimension d of the monitored feature space.
  [[nodiscard]] virtual std::size_t dimension() const noexcept = 0;

  /// Standard construction step: M <- M ⊎ ab(feature).
  virtual void observe(std::span<const float> feature) = 0;

  /// Robust construction step: M <- M ⊎R abR(<(lo_1,hi_1),...>).
  /// `lo` and `hi` are the per-neuron conservative bounds of the
  /// perturbation estimate (Definition 1); lo[j] <= hi[j] must hold and
  /// is validated (std::invalid_argument on violation).
  virtual void observe_bounds(std::span<const float> lo,
                              std::span<const float> hi) = 0;

  /// Membership query on a concrete feature vector.
  [[nodiscard]] virtual bool contains(
      std::span<const float> feature) const = 0;

  /// Warning signal as defined in the paper: M(v) = true iff the feature
  /// abstraction is not in the stored set.
  [[nodiscard]] bool warn(std::span<const float> feature) const {
    return !contains(feature);
  }

  // -- batch API ----------------------------------------------------------

  /// Standard construction over a whole batch: folds ab of every column.
  /// Equivalent to observe() on each sample in column order.
  virtual void observe_batch(const FeatureBatch& batch);

  /// Robust construction over a whole batch of per-neuron bounds.
  /// lo and hi must agree in shape; lo(j, i) <= hi(j, i) must hold.
  virtual void observe_bounds_batch(const FeatureBatch& lo,
                                    const FeatureBatch& hi);

  /// Membership query per column: out[i] = contains(column i). out.size()
  /// must equal batch.size(). Element-wise identical to the scalar path.
  /// Concurrent queries are safe: racing first batches lower once.
  void contains_batch(const FeatureBatch& batch, std::span<bool> out) const;

  /// contains_batch through the lowered program whatever the batch size,
  /// also keeping each program shard's verdicts: rows[s * n + i] is
  /// shard s's verdict on column i, and out[i] their AND. rows.size()
  /// must be the program's shard count times batch.size(). Throws
  /// std::invalid_argument for a family without a lowering.
  void contains_batch_by_shard(const FeatureBatch& batch,
                               std::span<bool> out,
                               std::span<bool> rows) const;

  /// Warning signal per column: out[i] = !contains(column i).
  void warn_batch(const FeatureBatch& batch, std::span<bool> out) const {
    contains_batch(batch, out);
    for (auto& b : out) b = !b;
  }

  /// One-line description (type + key parameters) for logs and tables.
  [[nodiscard]] virtual std::string describe() const = 0;

  /// This flat monitor as one unit with the same verdicts, or null (the
  /// default) for a family without a lowering.
  [[nodiscard]] virtual std::unique_ptr<compile::CompiledUnit> lower_unit()
      const;

  /// This monitor as one program with the same verdicts, or null for a
  /// family without a lowering. The default wraps lower_unit in one
  /// identity shard. compile_monitor and contains_batch both lower
  /// through here.
  [[nodiscard]] virtual std::shared_ptr<const compile::Program>
  lower_program() const;

  /// Shard-level parallelism of the batched queries (and of a sharded
  /// monitor's construction and lowering): at most `threads` shards run
  /// concurrently, caller included. 1 (the default) runs everything
  /// inline; 0 uses hardware concurrency. A runtime property, never
  /// serialised; it must not overlap other calls on this monitor.
  void set_threads(std::size_t threads);
  [[nodiscard]] std::size_t threads() const noexcept {
    return pool_ ? pool_->thread_count() : 1;
  }

 protected:
  Monitor() = default;
  /// A copy starts without the lowered program and runs inline; a move
  /// keeps the thread pool.
  Monitor(const Monitor&) noexcept {}
  Monitor(Monitor&& other) noexcept : pool_(std::move(other.pool_)) {}
  Monitor& operator=(const Monitor&) noexcept {
    invalidate_lowered();
    return *this;
  }
  Monitor& operator=(Monitor&& other) noexcept {
    invalidate_lowered();
    pool_ = std::move(other.pool_);
    return *this;
  }

  /// Smallest batch contains_batch answers through the lowered program.
  /// Below it the scalar contains wins: for the BDD families it is a
  /// lazily coded walk that skips the program's batch setup.
  [[nodiscard]] virtual std::size_t min_program_batch() const noexcept;

  /// The pool set_threads configured, or null to run inline.
  [[nodiscard]] ThreadPool* pool() const noexcept { return pool_.get(); }

  /// Drops the cached lowered program; every mutation of a lowerable
  /// family calls it.
  void invalidate_lowered() noexcept RANM_EXCLUDES(lowered_mu_);

  /// Validates a (batch, out) query pair against this monitor's dimension.
  void check_batch(const FeatureBatch& batch, std::size_t out_size,
                   const char* what) const;
  /// Validates a bounds-batch pair (shape agreement with the monitor).
  /// Per-element lo <= hi is checked where the bounds are consumed.
  void check_bounds_batch(const FeatureBatch& lo, const FeatureBatch& hi,
                          const char* what) const;
  /// Validates the observe_bounds precondition: matching dimensions and
  /// lo[j] <= hi[j] for every neuron. Throws std::invalid_argument.
  static void check_bounds_ordered(std::span<const float> lo,
                                   std::span<const float> hi,
                                   std::size_t dim, const char* what);

 private:
  /// The cached program, lowered first if there is none yet; null when
  /// the family has no lowering.
  [[nodiscard]] std::shared_ptr<const compile::Program> lowered() const
      RANM_EXCLUDES(lowered_mu_);

  /// The lowered program behind contains_batch, shared with the queries
  /// running on it. Never serialised; a copied or moved monitor starts
  /// without it.
  mutable Mutex lowered_mu_;
  mutable std::shared_ptr<const compile::Program> lowered_
      RANM_GUARDED_BY(lowered_mu_);
  std::unique_ptr<ThreadPool> pool_;  // null: run inline
};

}  // namespace ranm
