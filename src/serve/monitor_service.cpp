#include "serve/monitor_service.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "compile/compiled_monitor.hpp"
#include "core/sharded_monitor.hpp"
#include "io/serialize.hpp"
#include "util/timer.hpp"

namespace ranm::serve {
namespace {

/// Serialised bytes of any monitor with a serialiser.
std::string monitor_bytes(const Monitor& monitor) {
  std::ostringstream buf(std::ios::binary);
  save_any_monitor(buf, monitor);
  return std::move(buf).str();
}

std::unique_ptr<Monitor> monitor_from_bytes(const std::string& bytes) {
  std::istringstream in(bytes, std::ios::binary);
  return load_any_monitor(in);
}

}  // namespace

MonitorService::MonitorService(Network net,
                               std::unique_ptr<Monitor> monitor,
                               std::size_t layer_k, std::size_t threads)
    : net_(std::move(net)),
      monitor_(std::move(monitor)),
      k_(layer_k),
      threads_(threads),
      builder_(net_, layer_k) {
  if (monitor_ == nullptr) {
    throw std::invalid_argument("MonitorService: null monitor");
  }
  dim_ = monitor_->dimension();
  if (dim_ != builder_.feature_dim()) {
    throw std::invalid_argument(
        "MonitorService: monitor dimension " + std::to_string(dim_) +
        " != layer " + std::to_string(layer_k) + " feature dimension " +
        std::to_string(builder_.feature_dim()));
  }
  apply_threads(*monitor_);
  // Seed the shared adaptation state with the pristine generation-1
  // bytes. Families without a serialiser — and compiled monitors, which
  // are frozen by design — run with adaptation disabled instead
  // (observe/swap/rollback throw a clear error, kStats reports
  // generation 0).
  if (dynamic_cast<const compile::CompiledMonitor*>(monitor_.get()) ==
      nullptr) {
    try {
      std::string bytes = monitor_bytes(*monitor_);
      std::size_t shard_count = 0;
      if (const auto* sharded =
              dynamic_cast<const ShardedMonitor*>(monitor_.get())) {
        shard_count = sharded->shard_count();
      }
      adapt_ = std::make_unique<AdaptState>(dim_, std::move(bytes),
                                            shard_count);
    } catch (const std::invalid_argument&) {
      adapt_.reset();
    }
  }
}

MonitorService MonitorService::from_files(const std::string& net_path,
                                          const std::string& monitor_path,
                                          std::size_t layer_k,
                                          std::size_t threads) {
  Network net = load_network_file(net_path);
  std::ifstream in(monitor_path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("MonitorService: cannot open monitor " +
                             monitor_path);
  }
  return MonitorService(std::move(net), load_any_monitor(in), layer_k,
                        threads);
}

void MonitorService::apply_threads(Monitor& monitor) const {
  // Thread count is a host property, not part of the artifact — applied
  // after every load, exactly as `ranm_cli eval --threads` does.
  monitor.set_threads(threads_);
}

std::shared_ptr<Monitor> MonitorService::snapshot() const {
  MutexLock lock(snapshot_mu_);
  return monitor_;
}

void MonitorService::query_warns_into(std::span<const Tensor> inputs,
                                      std::vector<std::uint8_t>& warns) {
  warns.clear();
  if (inputs.size() > kMaxQuerySamples) {
    throw std::invalid_argument("MonitorService: batch too large");
  }
  if (inputs.empty()) {
    queries_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // RCU read side: copy the snapshot pointer, then answer the whole
  // batch against that one monitor. A concurrent publish() swaps the
  // pointer for the *next* query — never mid-batch.
  const std::shared_ptr<Monitor> snap = snapshot();
  const FeatureBatch batch = net_.forward_batch(k_, inputs);
  const std::span<bool> row = thread_scratch<MonitorService>(inputs.size());
  snap->warn_batch(batch, row);
  warns.resize(inputs.size());
  std::uint64_t warned = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    warns[i] = row[i] ? 1 : 0;
    warned += warns[i];
  }
  queries_.fetch_add(1, std::memory_order_relaxed);
  samples_.fetch_add(inputs.size(), std::memory_order_relaxed);
  warnings_.fetch_add(warned, std::memory_order_relaxed);
  record_rolling(inputs.size(), warned);
}

std::vector<std::uint8_t> MonitorService::query_warns(
    std::span<const Tensor> inputs) {
  std::vector<std::uint8_t> out;
  query_warns_into(inputs, out);
  return out;
}

bool MonitorService::adaptive() const noexcept {
  if (adapt_ == nullptr) return false;
  const std::shared_ptr<Monitor> snap = snapshot();
  return dynamic_cast<const compile::CompiledMonitor*>(snap.get()) ==
         nullptr;
}

ObserveReply MonitorService::observe_batch(std::span<const Tensor> inputs) {
  const std::shared_ptr<Monitor> snap = snapshot();
  if (dynamic_cast<const compile::CompiledMonitor*>(snap.get()) !=
      nullptr) {
    // Satellite bugfix: a frozen monitor must answer a structured error,
    // not let CompiledMonitor::observe's logic_error escape a worker.
    throw std::invalid_argument(
        "observe: compiled monitors are frozen — serve the source "
        "artifact to adapt online");
  }
  require_adaptive("observe");
  if (inputs.size() > kMaxQuerySamples) {
    throw std::invalid_argument("observe: batch too large");
  }
  ObserveReply reply;
  reply.accepted = inputs.size();
  if (inputs.empty()) {
    reply.staged_total = staged_samples();
    return reply;
  }
  const FeatureBatch batch = net_.forward_batch(k_, inputs);
  const std::size_t n = inputs.size();
  const std::span<bool> row = thread_scratch<MonitorService>(n);
  // Per-shard drift: one evaluation of the lowered program keeps each
  // shard's verdicts, counting the samples outside that shard's region.
  std::vector<std::uint64_t> shard_novel;
  if (const auto* sharded =
          dynamic_cast<const ShardedMonitor*>(snap.get())) {
    const std::size_t shards = sharded->shard_count();
    const auto rows = std::make_unique<bool[]>(shards * n);
    sharded->contains_batch_by_shard(batch, row, {rows.get(), shards * n});
    shard_novel.assign(shards, 0);
    for (std::size_t k = 0; k < shards * n; ++k) {
      shard_novel[k / n] += rows[k] ? 0 : 1;
    }
  } else {
    snap->contains_batch(batch, row);
  }
  for (std::size_t i = 0; i < n; ++i) reply.novel += row[i] ? 0 : 1;
  reply.staged_total = adapt_->stage(batch, shard_novel);
  return reply;
}

void MonitorService::require_adaptive(const char* what) const {
  if (adapt_ == nullptr) {
    throw std::invalid_argument(
        std::string(what) +
        ": online adaptation is disabled for this monitor family");
  }
}

void MonitorService::publish(const std::string& bytes) {
  std::shared_ptr<Monitor> next = monitor_from_bytes(bytes);
  if (next->dimension() != dim_) {
    throw std::invalid_argument(
        "publish: artifact dimension " + std::to_string(next->dimension()) +
        " != served dimension " + std::to_string(dim_));
  }
  apply_threads(*next);
  MutexLock lock(snapshot_mu_);
  monitor_ = std::move(next);
}

SwapReply MonitorService::swap() {
  require_adaptive("swap");
  MutexLock lock(lifecycle_mu_);
  Timer timer;
  const RebuildInput input = adapt_->rebuild_input();
  // A fresh monitor from the pristine bytes — not the live object — so
  // the rebuild shares nothing with the queries still answering, and a
  // rollback of the result is exact.
  std::unique_ptr<Monitor> refreshed =
      monitor_from_bytes(input.base_artifact);
  if (input.staged_count > 0) {
    FeatureBatch staged(dim_, std::size_t(input.staged_count));
    for (std::size_t i = 0; i < std::size_t(input.staged_count); ++i) {
      staged.set_sample(
          i, std::span<const float>(input.features.data() + i * dim_,
                                    dim_));
    }
    refreshed->observe_batch(staged);
  }
  std::string bytes = monitor_bytes(*refreshed);
  publish(bytes);
  SwapReply reply;
  reply.duration_us = std::uint64_t(timer.millis() * 1000.0);
  reply.generation = adapt_->commit_swap(std::move(bytes), input.staged_count);
  reply.staged_applied = input.staged_count;
  reply.monitor = monitor_description();
  return reply;
}

RollbackReply MonitorService::rollback(std::uint64_t target) {
  require_adaptive("rollback");
  MutexLock lock(lifecycle_mu_);
  auto [generation, bytes] = adapt_->checkout(target);
  publish(bytes);
  adapt_->commit_rollback(generation, std::move(bytes));
  RollbackReply reply;
  reply.generation = generation;
  reply.monitor = monitor_description();
  return reply;
}

std::uint64_t MonitorService::set_snapshot_store(
    std::unique_ptr<SnapshotStore> store) {
  require_adaptive("snapshot store");
  MutexLock lock(lifecycle_mu_);
  auto [resumed, bytes] = adapt_->attach_store(std::move(store));
  if (resumed != 0) publish(bytes);
  return resumed;
}

void MonitorService::record_rolling(std::uint64_t samples,
                                    std::uint64_t warnings) {
  MutexLock lock(rolling_mu_);
  rolling_[rolling_next_] = {samples, warnings};
  rolling_next_ = (rolling_next_ + 1) % kRollingWindow;
  if (rolling_filled_ < kRollingWindow) ++rolling_filled_;
}

std::uint64_t MonitorService::generation() const {
  return adapt_ ? adapt_->telemetry().generation : 0;
}

std::uint64_t MonitorService::staged_samples() const {
  return adapt_ ? adapt_->telemetry().staged_samples : 0;
}

std::string MonitorService::monitor_description() const {
  return snapshot()->describe();
}

ServiceStats MonitorService::stats() const {
  const std::shared_ptr<Monitor> snap = snapshot();
  ServiceStats stats;
  stats.monitor = snap->describe();
  stats.dimension = snap->dimension();
  stats.layer = k_;
  stats.threads = threads_;
  stats.queries = queries_.load(std::memory_order_relaxed);
  stats.samples = samples_.load(std::memory_order_relaxed);
  stats.warnings = warnings_.load(std::memory_order_relaxed);
  {
    MutexLock lock(rolling_mu_);
    for (std::size_t i = 0; i < rolling_filled_; ++i) {
      stats.rolling_samples += rolling_[i].first;
      stats.rolling_warnings += rolling_[i].second;
    }
  }
  AdaptTelemetry adapt;
  if (adapt_) {
    adapt = adapt_->telemetry();
    stats.generation = adapt.generation;
    stats.staged_samples = adapt.staged_samples;
    stats.swaps = adapt.swaps;
    stats.rollbacks = adapt.rollbacks;
  }
  if (const auto* sharded =
          dynamic_cast<const ShardedMonitor*>(snap.get())) {
    stats.threads = sharded->threads();
    stats.shard_strategy =
        std::string(shard_strategy_name(sharded->plan().strategy()));
    stats.shard_seed = sharded->plan().seed();
    std::size_t index = 0;
    for (const auto& s : sharded->shard_stats()) {
      ShardStatsWire wire;
      wire.neurons = s.neurons;
      wire.bdd_nodes = s.bdd_nodes;
      wire.cubes_inserted = s.cubes_inserted;
      if (index < adapt.shard_novel.size()) {
        wire.novel = adapt.shard_novel[index];
      }
      wire.patterns = s.patterns;
      stats.shards.push_back(wire);
      ++index;
    }
  }
  return stats;
}

}  // namespace ranm::serve
