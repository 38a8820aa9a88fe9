// Sharded monitor: S inner monitors over a ShardPlan partition of the
// monitored neurons, each with its own private state (for the BDD families
// its own BddManager).
//
// Semantics: a feature vector is in the monitored region iff *every* shard
// accepts its projection onto that shard's neurons. For per-neuron
// families (min-max) this is exactly the unsharded monitor. For the BDD
// families the stored set becomes the product of per-shard pattern
// projections — a superset of the joint pattern set, so sharding is a
// sound coarsening: it can only suppress warnings relative to the
// unsharded monitor, never invent new ones, while cutting BDD node growth
// from one d_k-variable diagram to S diagrams of ~d_k/S variables.
//
// Queries: a sharded monitor lowers itself into one program, a unit per
// shard reading its plan's neuron rows (lower_program), and answers
// batches through the base Monitor::contains_batch, the same evaluator
// and shard fan-out a CompiledMonitor runs. Scalar queries and batches
// below compile::kSmallBatch walk the shards' own scalar paths.
//
// Thread model: BddManager is not thread-safe, so parallelism is purely
// shard-level. The pool set_threads configures runs the batched
// construction, the lowering and the lowered program's shards, and every
// task touches exactly one shard's monitor or unit. Distinct shards share
// no mutable state, so the fan-out is race-free by construction. Queries
// are const and reentrant: their scratch belongs to the calling thread,
// so any number of threads may query one monitor concurrently (the shared
// pool accepts concurrent parallel_for calls). Construction (observe*,
// set_threads) must not overlap anything else.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/monitor.hpp"
#include "core/shard_plan.hpp"
#include "core/threshold_spec.hpp"

namespace ranm {

/// Product-of-shards monitor; answers AND over per-shard membership.
class ShardedMonitor final : public Monitor {
 public:
  /// Assembles a sharded monitor from a plan and one inner monitor per
  /// shard; shards[s]->dimension() must equal plan.neurons(s).size().
  /// `observations` restores the construction counter (deserialisation).
  ShardedMonitor(ShardPlan plan,
                 std::vector<std::unique_ptr<Monitor>> shards,
                 std::size_t observations = 0);

  // ---- family factories: empty monitors ready for construction ----------

  /// S independent per-shard min-max envelopes (exactly equivalent to the
  /// unsharded MinMaxMonitor for any plan).
  [[nodiscard]] static ShardedMonitor minmax(ShardPlan plan);
  /// Per-shard IntervalMonitors over slices of a full-dimension spec (a
  /// 1-bit spec makes per-shard on-off monitors).
  [[nodiscard]] static ShardedMonitor interval(ShardPlan plan,
                                               const ThresholdSpec& spec);

  // ---- Monitor interface -------------------------------------------------

  [[nodiscard]] std::size_t dimension() const noexcept override {
    return plan_.dimension();
  }
  void observe(std::span<const float> feature) override;
  void observe_bounds(std::span<const float> lo,
                      std::span<const float> hi) override;
  [[nodiscard]] bool contains(std::span<const float> feature) const override;
  [[nodiscard]] std::string describe() const override;

  // Batch construction: one row view per shard of the incoming batch (no
  // feature copies), fanned out across shards on the thread pool.
  void observe_batch(const FeatureBatch& batch) override;
  void observe_bounds_batch(const FeatureBatch& lo,
                            const FeatureBatch& hi) override;

  /// One program shard per plan shard, in plan order: shard s's
  /// lower_unit reading the rows plan().neurons(s). Null when a shard has
  /// no lowering. The shards lower on the pool.
  [[nodiscard]] std::shared_ptr<const compile::Program> lower_program()
      const override;

  // ---- sharding-specific surface ----------------------------------------

  [[nodiscard]] const ShardPlan& plan() const noexcept { return plan_; }
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] const Monitor& shard(std::size_t s) const;

  /// Construction steps folded in so far. Every step inserts one
  /// abstraction (for BDD shards: one cube) into each shard.
  [[nodiscard]] std::size_t observation_count() const noexcept {
    return observations_;
  }

  /// Per-shard introspection for reports and `ranm_cli info`.
  struct ShardStats {
    std::size_t neurons = 0;        // neurons owned by the shard
    std::size_t bdd_nodes = 0;      // reachable BDD nodes (0: no BDD)
    std::size_t cubes_inserted = 0; // construction steps folded in
    double patterns = 0.0;          // stored words (-1: not pattern-based)
    std::string description;        // inner monitor describe()
  };
  [[nodiscard]] std::vector<ShardStats> shard_stats() const;
  /// Sum of reachable BDD nodes across shards (0 for non-BDD families).
  [[nodiscard]] std::size_t total_bdd_nodes() const;

 private:
  /// Runs body(s) for every shard, on the pool when one is configured.
  void for_each_shard(const std::function<void(std::size_t)>& body) const;
  /// Gathers feature's projection onto shard s into `scratch`.
  void gather(std::span<const float> feature, std::size_t s,
              std::vector<float>& scratch) const;

  ShardPlan plan_;
  std::vector<std::unique_ptr<Monitor>> shards_;
  std::size_t observations_ = 0;
};

}  // namespace ranm
