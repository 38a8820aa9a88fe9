#include "compile/compiled_monitor.hpp"

#include <algorithm>
#include <stdexcept>

namespace ranm::compile {
namespace {

[[noreturn]] void throw_frozen(const char* what) {
  throw std::logic_error(std::string("CompiledMonitor::") + what +
                         ": compiled monitors are frozen — rebuild the "
                         "source monitor and recompile to observe new data");
}

/// Largest per-sample cost estimate over the shards at batch size n, for
/// the pool-grain test in contains_batch.
std::size_t max_shard_cost(const std::vector<CompiledMonitor::Shard>& shards,
                           std::size_t n) {
  std::size_t cost = 0;
  for (const CompiledMonitor::Shard& sh : shards) {
    cost = std::max(cost, unit_cost_per_sample(sh.unit, n));
  }
  return cost;
}

}  // namespace

CompiledMonitor::CompiledMonitor(std::size_t dim, std::string source,
                                 std::vector<Shard> shards)
    : dim_(dim), source_(std::move(source)), shards_(std::move(shards)) {
  if (shards_.empty()) {
    throw std::invalid_argument("CompiledMonitor: no shards");
  }
  for (const Shard& sh : shards_) {
    if (sh.neurons.empty()) {
      if (shards_.size() != 1) {
        throw std::invalid_argument(
            "CompiledMonitor: identity shard requires shard_count == 1");
      }
      if (sh.unit.dimension() != dim_) {
        throw std::invalid_argument(
            "CompiledMonitor: identity shard dimension mismatch");
      }
    } else {
      if (sh.unit.dimension() != sh.neurons.size()) {
        throw std::invalid_argument(
            "CompiledMonitor: shard unit/neuron-list size mismatch");
      }
      for (const std::uint32_t j : sh.neurons) {
        if (j >= dim_) {
          throw std::invalid_argument(
              "CompiledMonitor: shard neuron id out of range");
        }
      }
    }
  }
  // Precompute the per-unit support masks (compiler and loader both come
  // through here, so every served unit has them).
  for (Shard& sh : shards_) sh.unit.finalize();
}

void CompiledMonitor::observe(std::span<const float>) {
  throw_frozen("observe");
}
void CompiledMonitor::observe_bounds(std::span<const float>,
                                     std::span<const float>) {
  throw_frozen("observe_bounds");
}
void CompiledMonitor::observe_batch(const FeatureBatch&) {
  throw_frozen("observe_batch");
}
void CompiledMonitor::observe_bounds_batch(const FeatureBatch&,
                                           const FeatureBatch&) {
  throw_frozen("observe_bounds_batch");
}

bool CompiledMonitor::contains(std::span<const float> feature) const {
  if (feature.size() != dim_) {
    throw std::invalid_argument("CompiledMonitor::contains: dimension "
                                "mismatch");
  }
  FeatureBatch batch(dim_, 1);
  batch.set_sample(0, feature);
  bool out = false;
  contains_batch(batch, {&out, 1});
  return out;
}

void CompiledMonitor::eval_shard(std::size_t s, const FeatureBatch& batch,
                                 bool* out) const {
  // The neuron list doubles as eval_unit's row map, so a sharded query
  // reads its rows straight out of the full batch — no per-call row-view
  // construction (which allocates, and at batch 1 the allocations cost
  // more than the shard evaluations themselves). Evaluation buffers are
  // the running thread's, grown to their high-water size and reused: a
  // thread evaluates one shard at a time, and the steady-state hot path
  // does not allocate.
  thread_local EvalScratch scratch;
  const Shard& sh = shards_[s];
  eval_unit(sh.unit, batch, sh.neurons.empty() ? nullptr : sh.neurons.data(),
            out, scratch);
}

void CompiledMonitor::contains_batch(const FeatureBatch& batch,
                                     std::span<bool> out) const {
  check_batch(batch, out.size(), "CompiledMonitor::contains_batch");
  const std::size_t n = batch.size();
  if (n == 0) return;
  const std::size_t S = shards_.size();
  if (S == 1) {
    eval_shard(0, batch, out.data());
    return;
  }
  if (n == 1) {
    // Single query (the serving path): no verdict matrix, no pool — one
    // stack verdict per shard, folded as it lands. Stops at the first
    // rejecting shard; membership is the AND over shards.
    bool verdict = true;
    for (std::size_t s = 0; s < S && verdict; ++s) {
      bool row = false;
      eval_shard(s, batch, &row);
      verdict = row;
    }
    out[0] = verdict;
    return;
  }
  bool* rows = thread_scratch<CompiledMonitor>(S * n).data();
  const auto run = [&](std::size_t s) { eval_shard(s, batch, rows + s * n); };
  // Tiny batches — by sample count or by estimated per-shard work — run
  // inline even with a pool: waking the workers costs more than the
  // queries themselves (same floor as ShardedMonitor, plus a work grain
  // because compiled shards are often far cheaper than interpreted ones).
  if (pool_ && n >= kMinPoolBatch &&
      n * max_shard_cost(shards_, n) >= kMinPoolWork) {
    pool_->parallel_for(S, run);
  } else {
    for (std::size_t s = 0; s < S; ++s) run(s);
  }
  // Membership is the AND over shards, like ShardedMonitor.
  for (std::size_t i = 0; i < n; ++i) out[i] = rows[i];
  for (std::size_t s = 1; s < S; ++s) {
    const bool* row = rows + s * n;
    for (std::size_t i = 0; i < n; ++i) out[i] = out[i] && row[i];
  }
}

std::string CompiledMonitor::describe() const {
  return "CompiledMonitor(d=" + std::to_string(dim_) +
         ", shards=" + std::to_string(shards_.size()) +
         ", nodes=" + std::to_string(total_nodes()) +
         ", cubes=" + std::to_string(total_cubes()) + ", from=" + source_ +
         ")";
}

void CompiledMonitor::set_threads(std::size_t threads) {
  if (threads == 1) {
    pool_.reset();
  } else {
    pool_ = std::make_unique<ThreadPool>(threads);
  }
}

std::size_t CompiledMonitor::total_nodes() const noexcept {
  std::size_t total = 0;
  for (const Shard& sh : shards_) {
    if (sh.unit.kind == ProgramKind::kBdd) total += sh.unit.bdd.nodes.size();
  }
  return total;
}

std::size_t CompiledMonitor::total_cubes() const noexcept {
  std::size_t total = 0;
  for (const Shard& sh : shards_) {
    if (sh.unit.kind == ProgramKind::kCube) total += sh.unit.cube.num_cubes;
  }
  return total;
}

}  // namespace ranm::compile
