#include "core/monitor.hpp"

#include <stdexcept>
#include <vector>

#include "compile/program.hpp"

namespace ranm {

void Monitor::check_batch(const FeatureBatch& batch, std::size_t out_size,
                          const char* what) const {
  if (batch.dimension() != dimension() && !batch.empty()) {
    throw std::invalid_argument(std::string(what) +
                                ": batch dimension mismatch");
  }
  if (out_size != batch.size()) {
    throw std::invalid_argument(std::string(what) +
                                ": output size does not match batch size");
  }
}

void Monitor::check_bounds_batch(const FeatureBatch& lo,
                                 const FeatureBatch& hi,
                                 const char* what) const {
  if (lo.size() != hi.size() || lo.dimension() != hi.dimension()) {
    throw std::invalid_argument(std::string(what) +
                                ": lo/hi batch shapes differ");
  }
  if (!lo.empty() && lo.dimension() != dimension()) {
    throw std::invalid_argument(std::string(what) +
                                ": batch dimension mismatch");
  }
}

void Monitor::check_bounds_ordered(std::span<const float> lo,
                                   std::span<const float> hi,
                                   std::size_t dim, const char* what) {
  if (lo.size() != dim || hi.size() != dim) {
    throw std::invalid_argument(std::string(what) + ": dimension mismatch");
  }
  for (std::size_t j = 0; j < dim; ++j) {
    if (!(lo[j] <= hi[j])) {
      throw std::invalid_argument(std::string(what) +
                                  ": bound violated (lo > hi) at neuron " +
                                  std::to_string(j));
    }
  }
}

void Monitor::observe_batch(const FeatureBatch& batch) {
  check_batch(batch, batch.size(), "Monitor::observe_batch");
  std::vector<float> scratch(batch.dimension());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch.copy_sample(i, scratch);
    observe(scratch);
  }
}

void Monitor::observe_bounds_batch(const FeatureBatch& lo,
                                   const FeatureBatch& hi) {
  check_bounds_batch(lo, hi, "Monitor::observe_bounds_batch");
  std::vector<float> lo_scratch(lo.dimension());
  std::vector<float> hi_scratch(hi.dimension());
  for (std::size_t i = 0; i < lo.size(); ++i) {
    lo.copy_sample(i, lo_scratch);
    hi.copy_sample(i, hi_scratch);
    observe_bounds(lo_scratch, hi_scratch);
  }
}

void Monitor::contains_batch(const FeatureBatch& batch,
                             std::span<bool> out) const {
  check_batch(batch, out.size(), "Monitor::contains_batch");
  if (batch.size() >= min_program_batch()) {
    if (const auto program = lowered()) {
      compile::eval_program(*program, batch, out.data(), pool());
      return;
    }
  }
  std::vector<float> scratch(batch.dimension());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch.copy_sample(i, scratch);
    out[i] = contains(scratch);
  }
}

void Monitor::contains_batch_by_shard(const FeatureBatch& batch,
                                      std::span<bool> out,
                                      std::span<bool> rows) const {
  check_batch(batch, out.size(), "Monitor::contains_batch_by_shard");
  const auto program = lowered();
  if (program == nullptr) {
    throw std::invalid_argument(
        "Monitor::contains_batch_by_shard: no lowering for " + describe());
  }
  if (rows.size() != program->size() * batch.size()) {
    throw std::invalid_argument(
        "Monitor::contains_batch_by_shard: rows size is not shards * batch");
  }
  compile::eval_program(*program, batch, out.data(), pool(), rows.data());
}

std::unique_ptr<compile::CompiledUnit> Monitor::lower_unit() const {
  return nullptr;
}

std::shared_ptr<const compile::Program> Monitor::lower_program() const {
  std::unique_ptr<compile::CompiledUnit> unit = lower_unit();
  if (unit == nullptr) return nullptr;
  auto program = std::make_shared<compile::Program>(1);
  (*program)[0].unit = std::move(*unit);
  return program;
}

void Monitor::set_threads(std::size_t threads) {
  if (threads == 1) {
    pool_.reset();
  } else {
    pool_ = std::make_unique<ThreadPool>(threads);
  }
}

std::size_t Monitor::min_program_batch() const noexcept {
  return compile::kSmallBatch;
}

std::shared_ptr<const compile::Program> Monitor::lowered() const {
  // Lowering holds the lock, so threads racing on the first batch lower
  // once and the rest wait for that program instead of building their own.
  MutexLock lock(lowered_mu_);
  if (lowered_ == nullptr) {
    lowered_ = lower_program();
  }
  return lowered_;
}

void Monitor::invalidate_lowered() noexcept {
  MutexLock lock(lowered_mu_);
  lowered_.reset();
}

}  // namespace ranm
