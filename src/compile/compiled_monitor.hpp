// Compiled monitor: a frozen monitor lowered to native decision code.
//
// A CompiledMonitor is the deployment form of any monitor family (flat or
// sharded): one CompiledUnit per shard, evaluated through the batched
// program evaluators in compile/program.hpp. It implements the Monitor
// query surface — contains / contains_batch / warn_batch — so it drops
// into MonitorService and ranm_serve unchanged, and answers verdicts
// bit-for-bit identical to the monitor it was compiled from.
//
// Compilation freezes the set: the observe* entry points throw
// std::logic_error. To fold in new training data, rebuild the source
// monitor and recompile (`ranm_cli compile`).
//
// Thread model mirrors ShardedMonitor: set_threads fans the per-shard
// evaluations of a query batch out on an internal pool; every task reads
// the shared batch through its own shard's neuron map and evaluates into
// the scratch of the thread running it, so the fan-out is race-free by
// construction and any number of threads may query one monitor at once.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "compile/program.hpp"
#include "core/monitor.hpp"
#include "util/thread_pool.hpp"

namespace ranm::compile {

/// Frozen, query-only monitor built from lowered per-shard programs.
class CompiledMonitor final : public Monitor {
 public:
  /// One lowered shard. An empty neuron list means the unit covers the
  /// full feature space directly (the flat-monitor case, no row
  /// gathering); otherwise the unit sees the projection onto `neurons`
  /// in list order, exactly like a ShardedMonitor shard.
  struct Shard {
    std::vector<std::uint32_t> neurons;
    CompiledUnit unit;
  };

  /// `source` is the describe() string of the monitor this was compiled
  /// from (provenance only). Validates shard shapes against `dim`.
  CompiledMonitor(std::size_t dim, std::string source,
                  std::vector<Shard> shards);

  // ---- Monitor interface -------------------------------------------------

  [[nodiscard]] std::size_t dimension() const noexcept override {
    return dim_;
  }
  /// Compiled monitors are frozen: all observe entry points throw
  /// std::logic_error.
  void observe(std::span<const float> feature) override;
  void observe_bounds(std::span<const float> lo,
                      std::span<const float> hi) override;
  void observe_batch(const FeatureBatch& batch) override;
  void observe_bounds_batch(const FeatureBatch& lo,
                            const FeatureBatch& hi) override;
  [[nodiscard]] bool contains(std::span<const float> feature) const override;
  void contains_batch(const FeatureBatch& batch,
                      std::span<bool> out) const override;
  [[nodiscard]] std::string describe() const override;

  // ---- compiled-monitor surface ------------------------------------------

  /// Shard-level query parallelism, same contract as
  /// ShardedMonitor::set_threads: at most `threads` shards run
  /// concurrently (caller included), 1 runs inline, 0 uses hardware
  /// concurrency. A runtime property — never serialised.
  void set_threads(std::size_t threads);
  [[nodiscard]] std::size_t threads() const noexcept {
    return pool_ ? pool_->thread_count() : 1;
  }

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] const std::vector<Shard>& shards() const noexcept {
    return shards_;
  }
  /// describe() of the source monitor at compile time.
  [[nodiscard]] const std::string& source() const noexcept {
    return source_;
  }
  /// Flat BDD nodes summed over shards (0: no BDD programs).
  [[nodiscard]] std::size_t total_nodes() const noexcept;
  /// Cubes summed over cube-program shards.
  [[nodiscard]] std::size_t total_cubes() const noexcept;

 private:
  /// Below this batch size the shard fan-out runs inline even when a
  /// pool is configured (same rationale as ShardedMonitor::kMinPoolBatch).
  static constexpr std::size_t kMinPoolBatch = 32;
  /// Minimum estimated per-shard work (rough op count, batch included)
  /// before the fan-out is worth a pool dispatch: compiled programs are
  /// often so cheap that waking workers costs more than the whole batch,
  /// so a batch-size floor alone is not enough grain control.
  static constexpr std::size_t kMinPoolWork = 65536;

  void eval_shard(std::size_t s, const FeatureBatch& batch,
                  bool* out) const;

  std::size_t dim_;
  std::string source_;
  std::vector<Shard> shards_;
  std::unique_ptr<ThreadPool> pool_;  // null: run inline
};

}  // namespace ranm::compile
