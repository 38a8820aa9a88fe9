#include "serve/adapt.hpp"

#include <algorithm>
#include <stdexcept>

namespace ranm::serve {

AdaptState::AdaptState(std::size_t dimension, std::string base_artifact,
                       std::size_t shard_count, std::size_t max_staged_bytes)
    : dimension_(dimension),
      max_staged_(dimension == 0
                      ? 0
                      : max_staged_bytes / (dimension * sizeof(float))) {
  if (dimension_ == 0) {
    throw std::invalid_argument("AdaptState: zero dimension");
  }
  MutexLock lock(mu_);
  history_.push_back({1, std::move(base_artifact)});
  shard_novel_.assign(shard_count, 0);
}

std::uint64_t AdaptState::stage(const FeatureBatch& features,
                                std::span<const std::uint64_t> shard_novel) {
  if (features.dimension() != dimension_) {
    throw std::invalid_argument("AdaptState: feature dimension mismatch");
  }
  MutexLock lock(mu_);
  const std::size_t staged = staged_.size() / dimension_;
  if (staged + features.size() > max_staged_) {
    throw std::runtime_error(
        "AdaptState: staging byte budget reached — swap (or restart) "
        "before observing more");
  }
  std::vector<float> column(dimension_);
  for (std::size_t i = 0; i < features.size(); ++i) {
    features.copy_sample(i, column);
    staged_.insert(staged_.end(), column.begin(), column.end());
  }
  if (shard_novel.size() == shard_novel_.size()) {
    for (std::size_t s = 0; s < shard_novel_.size(); ++s) {
      shard_novel_[s] += shard_novel[s];
    }
  }
  return staged + features.size();
}

RebuildInput AdaptState::rebuild_input() const {
  MutexLock lock(mu_);
  RebuildInput input;
  input.base_artifact = history_.back().bytes;
  input.features = staged_;
  input.staged_count = staged_.size() / dimension_;
  return input;
}

std::uint64_t AdaptState::commit_swap(std::string bytes,
                                      std::uint64_t applied) {
  MutexLock lock(mu_);
  const std::uint64_t gen = ++last_assigned_;
  generation_ = gen;
  ++swaps_;
  if (store_) store_->save(gen, bytes);
  history_.push_back({gen, std::move(bytes)});
  if (history_.size() > kHistoryDepth) {
    history_.erase(history_.begin());
  }
  // Drain exactly the prefix the rebuild consumed: samples staged while
  // the rebuild ran stay queued for the next one.
  const std::size_t drained =
      std::min(staged_.size(), std::size_t(applied) * dimension_);
  staged_.erase(staged_.begin(),
                staged_.begin() + std::ptrdiff_t(drained));
  std::fill(shard_novel_.begin(), shard_novel_.end(), 0);
  return gen;
}

std::pair<std::uint64_t, std::string> AdaptState::checkout(
    std::uint64_t target) const {
  MutexLock lock(mu_);
  std::uint64_t resolved = target;
  if (resolved == 0) {
    // "The previous one": newest known generation older than the one
    // being served, from memory history or the attached store.
    for (const Generation& g : history_) {
      if (g.id < generation_ && g.id > resolved) resolved = g.id;
    }
    if (store_) {
      for (const std::uint64_t g : store_->generations()) {
        if (g < generation_ && g > resolved) resolved = g;
      }
    }
    if (resolved == 0) {
      throw std::runtime_error(
          "rollback: no previous generation to restore");
    }
  }
  for (const Generation& g : history_) {
    if (g.id == resolved) return {resolved, g.bytes};
  }
  if (store_) return {resolved, store_->load(resolved)};
  throw std::runtime_error("rollback: unknown generation " +
                           std::to_string(resolved));
}

void AdaptState::commit_rollback(std::uint64_t generation,
                                 std::string bytes) {
  MutexLock lock(mu_);
  generation_ = generation;
  ++rollbacks_;
  // Future rebuilds start from the restored artifact: move it to the
  // back of the history (rebuild_input reads back()), deduplicated.
  std::erase_if(history_,
                [&](const Generation& g) { return g.id == generation; });
  history_.push_back({generation, std::move(bytes)});
  if (history_.size() > kHistoryDepth) history_.erase(history_.begin());
}

std::pair<std::uint64_t, std::string> AdaptState::attach_store(
    std::unique_ptr<SnapshotStore> store) {
  MutexLock lock(mu_);
  store_ = std::move(store);
  const std::uint64_t resume = store_->latest();
  if (resume > generation_) {
    // Daemon restart over an existing store: adopt the newest persisted
    // generation instead of re-serving the (older) boot artifact.
    std::string bytes = store_->load(resume);
    generation_ = resume;
    last_assigned_ = std::max(last_assigned_, resume);
    history_.push_back({resume, bytes});
    if (history_.size() > kHistoryDepth) history_.erase(history_.begin());
    return {resume, std::move(bytes)};
  }
  if (resume < generation_) {
    store_->save(generation_, history_.back().bytes);
  }
  return {0, std::string()};
}

AdaptTelemetry AdaptState::telemetry() const {
  MutexLock lock(mu_);
  AdaptTelemetry t;
  t.generation = generation_;
  t.staged_samples = staged_.size() / dimension_;
  t.swaps = swaps_;
  t.rollbacks = rollbacks_;
  t.shard_novel = shard_novel_;
  return t;
}

}  // namespace ranm::serve
