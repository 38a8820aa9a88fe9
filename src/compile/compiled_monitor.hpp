// Compiled monitor: a frozen monitor lowered to native decision code.
//
// A CompiledMonitor is the deployment form of any monitor family (flat or
// sharded): the monitor's lowered program (compile/program.hpp), one
// CompiledUnit per shard, held frozen. It implements the Monitor query
// surface, so it drops into MonitorService and ranm_serve unchanged, and
// answers verdicts bit-for-bit identical to the monitor it was compiled
// from. Batches go through the base Monitor::contains_batch, the same
// eval_program and shard fan-out a flat or sharded monitor runs: its
// lower_program hands back the frozen program, so the cache fills with a
// pointer copy and is never invalidated.
//
// Compilation freezes the set: the observe* entry points throw
// std::logic_error. To fold in new training data, rebuild the source
// monitor and recompile (`ranm_cli compile`).
//
// Thread model: set_threads (on Monitor) fans the shards of a large
// enough batch out on a pool; every task reads the shared batch through
// its own shard's neuron list and evaluates into the scratch of the
// thread running it, so any number of threads may query one monitor.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "compile/program.hpp"
#include "core/monitor.hpp"

namespace ranm::compile {

/// Frozen, query-only monitor built from a lowered program.
class CompiledMonitor final : public Monitor {
 public:
  /// `source` is the describe() string of the monitor this was compiled
  /// from (provenance only). Validates shard shapes against `dim`.
  CompiledMonitor(std::size_t dim, std::string source,
                  std::shared_ptr<const Program> program);

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
  [[nodiscard]] std::string describe() const override;
  /// The frozen program itself.
  [[nodiscard]] std::shared_ptr<const Program> lower_program()
      const override;

  // ---- compiled-monitor surface ------------------------------------------

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return program_->size();
  }
  [[nodiscard]] const Program& shards() const noexcept { return *program_; }
  /// describe() of the source monitor at compile time.
  [[nodiscard]] const std::string& source() const noexcept {
    return source_;
  }
  /// Flat BDD nodes summed over shards (0: no BDD programs).
  [[nodiscard]] std::size_t total_nodes() const noexcept;
  /// Cubes summed over cube-program shards.
  [[nodiscard]] std::size_t total_cubes() const noexcept;

 protected:
  /// Every batch runs the program: contains is the program too, so the
  /// scalar loop would only add copies.
  [[nodiscard]] std::size_t min_program_batch() const noexcept override {
    return 1;
  }

 private:
  std::size_t dim_;
  std::string source_;
  std::shared_ptr<const Program> program_;
};

}  // namespace ranm::compile
