#include "core/sharded_monitor.hpp"

#include <atomic>
#include <stdexcept>
#include <string>

#include "compile/program.hpp"
#include "core/interval_monitor.hpp"
#include "core/minmax_monitor.hpp"

namespace ranm {

ShardedMonitor::ShardedMonitor(ShardPlan plan,
                               std::vector<std::unique_ptr<Monitor>> shards,
                               std::size_t observations)
    : plan_(std::move(plan)),
      shards_(std::move(shards)),
      observations_(observations) {
  if (shards_.size() != plan_.shard_count()) {
    throw std::invalid_argument(
        "ShardedMonitor: shard monitor count does not match the plan");
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (!shards_[s]) {
      throw std::invalid_argument("ShardedMonitor: null shard monitor");
    }
    if (shards_[s]->dimension() != plan_.neurons(s).size()) {
      throw std::invalid_argument(
          "ShardedMonitor: shard " + std::to_string(s) +
          " monitor dimension does not match its neuron group");
    }
  }
}

ShardedMonitor ShardedMonitor::minmax(ShardPlan plan) {
  std::vector<std::unique_ptr<Monitor>> shards;
  shards.reserve(plan.shard_count());
  for (std::size_t s = 0; s < plan.shard_count(); ++s) {
    shards.push_back(
        std::make_unique<MinMaxMonitor>(plan.neurons(s).size()));
  }
  return ShardedMonitor(std::move(plan), std::move(shards));
}

ShardedMonitor ShardedMonitor::interval(ShardPlan plan,
                                        const ThresholdSpec& spec) {
  if (spec.dimension() != plan.dimension()) {
    throw std::invalid_argument(
        "ShardedMonitor::interval: spec dimension does not match the plan");
  }
  std::vector<std::unique_ptr<Monitor>> shards;
  shards.reserve(plan.shard_count());
  for (std::size_t s = 0; s < plan.shard_count(); ++s) {
    shards.push_back(
        std::make_unique<IntervalMonitor>(spec.subset(plan.neurons(s))));
  }
  return ShardedMonitor(std::move(plan), std::move(shards));
}

void ShardedMonitor::for_each_shard(
    const std::function<void(std::size_t)>& body) const {
  if (ThreadPool* p = pool()) {
    p->parallel_for(shards_.size(), body);
  } else {
    for (std::size_t s = 0; s < shards_.size(); ++s) body(s);
  }
}

void ShardedMonitor::gather(std::span<const float> feature, std::size_t s,
                            std::vector<float>& scratch) const {
  const auto neurons = plan_.neurons(s);
  scratch.resize(neurons.size());
  for (std::size_t lj = 0; lj < neurons.size(); ++lj) {
    scratch[lj] = feature[neurons[lj]];
  }
}

void ShardedMonitor::observe(std::span<const float> feature) {
  if (feature.size() != dimension()) {
    throw std::invalid_argument(
        "ShardedMonitor::observe: dimension mismatch");
  }
  invalidate_lowered();
  std::vector<float> scratch;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    gather(feature, s, scratch);
    shards_[s]->observe(scratch);
  }
  ++observations_;
}

void ShardedMonitor::observe_bounds(std::span<const float> lo,
                                    std::span<const float> hi) {
  // Validate the whole vector before any shard mutates, so a violation
  // cannot leave some shards one insertion ahead of others.
  check_bounds_ordered(lo, hi, dimension(), "ShardedMonitor::observe_bounds");
  invalidate_lowered();
  std::vector<float> lo_scratch, hi_scratch;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    gather(lo, s, lo_scratch);
    gather(hi, s, hi_scratch);
    shards_[s]->observe_bounds(lo_scratch, hi_scratch);
  }
  ++observations_;
}

bool ShardedMonitor::contains(std::span<const float> feature) const {
  if (feature.size() != dimension()) {
    throw std::invalid_argument(
        "ShardedMonitor::contains: dimension mismatch");
  }
  std::vector<float> scratch;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    gather(feature, s, scratch);
    if (!shards_[s]->contains(scratch)) return false;
  }
  return true;
}

void ShardedMonitor::observe_batch(const FeatureBatch& batch) {
  check_batch(batch, batch.size(), "ShardedMonitor::observe_batch");
  const std::size_t n = batch.size();
  if (n == 0) return;
  invalidate_lowered();
  for_each_shard([this, &batch](std::size_t s) {
    shards_[s]->observe_batch(batch.view_rows(plan_.neurons(s)));
  });
  observations_ += n;
}

void ShardedMonitor::observe_bounds_batch(const FeatureBatch& lo,
                                          const FeatureBatch& hi) {
  check_bounds_batch(lo, hi, "ShardedMonitor::observe_bounds_batch");
  const std::size_t n = lo.size();
  if (n == 0) return;
  // Pre-validate lo <= hi over the whole batch so no shard can throw
  // mid-fan-out and leave the shards mutually inconsistent.
  for (std::size_t j = 0; j < dimension(); ++j) {
    const auto lo_row = lo.neuron(j);
    const auto hi_row = hi.neuron(j);
    for (std::size_t i = 0; i < n; ++i) {
      if (!(lo_row[i] <= hi_row[i])) {
        throw std::invalid_argument(
            "ShardedMonitor::observe_bounds_batch: bound violated "
            "(lo > hi) at neuron " +
            std::to_string(j));
      }
    }
  }
  invalidate_lowered();
  for_each_shard([this, &lo, &hi](std::size_t s) {
    const auto neurons = plan_.neurons(s);
    shards_[s]->observe_bounds_batch(lo.view_rows(neurons),
                                     hi.view_rows(neurons));
  });
  observations_ += n;
}

std::shared_ptr<const compile::Program> ShardedMonitor::lower_program() const {
  auto program = std::make_shared<compile::Program>(shards_.size());
  std::atomic<bool> lowered{true};
  // Each task reads one shard's private state and writes one slot.
  for_each_shard([&](std::size_t s) {
    std::unique_ptr<compile::CompiledUnit> unit = shards_[s]->lower_unit();
    if (unit == nullptr) {
      lowered = false;
      return;
    }
    const auto neurons = plan_.neurons(s);
    (*program)[s].neurons.assign(neurons.begin(), neurons.end());
    (*program)[s].unit = std::move(*unit);
  });
  if (!lowered) return nullptr;
  return program;
}

const Monitor& ShardedMonitor::shard(std::size_t s) const {
  if (s >= shards_.size()) throw std::out_of_range("ShardedMonitor::shard");
  return *shards_[s];
}

namespace {

/// BDD node count of an inner monitor, 0 for non-BDD families.
std::size_t inner_bdd_nodes(const Monitor& m) {
  if (const auto* iv = dynamic_cast<const IntervalMonitor*>(&m)) {
    return iv->bdd_node_count();
  }
  return 0;
}

/// Stored pattern count of an inner monitor, -1 for non-pattern families.
double inner_patterns(const Monitor& m) {
  if (const auto* iv = dynamic_cast<const IntervalMonitor*>(&m)) {
    return iv->pattern_count();
  }
  return -1.0;
}

}  // namespace

std::vector<ShardedMonitor::ShardStats> ShardedMonitor::shard_stats() const {
  std::vector<ShardStats> stats;
  stats.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    ShardStats st;
    st.neurons = plan_.neurons(s).size();
    st.bdd_nodes = inner_bdd_nodes(*shards_[s]);
    st.cubes_inserted = observations_;
    st.patterns = inner_patterns(*shards_[s]);
    st.description = shards_[s]->describe();
    stats.push_back(std::move(st));
  }
  return stats;
}

std::size_t ShardedMonitor::total_bdd_nodes() const {
  std::size_t total = 0;
  for (const auto& m : shards_) total += inner_bdd_nodes(*m);
  return total;
}

std::string ShardedMonitor::describe() const {
  return "ShardedMonitor(d=" + std::to_string(dimension()) +
         ", shards=" + std::to_string(shards_.size()) + ", strategy=" +
         std::string(shard_strategy_name(plan_.strategy())) +
         ", threads=" + std::to_string(threads()) +
         ", bdd_nodes=" + std::to_string(total_bdd_nodes()) +
         ", observations=" + std::to_string(observations_) +
         ", inner=" + shards_.front()->describe() + ")";
}

}  // namespace ranm
