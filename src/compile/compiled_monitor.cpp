#include "compile/compiled_monitor.hpp"

#include <stdexcept>

namespace ranm::compile {
namespace {

[[noreturn]] void throw_frozen(const char* what) {
  throw std::logic_error(std::string("CompiledMonitor::") + what +
                         ": compiled monitors are frozen — rebuild the "
                         "source monitor and recompile to observe new data");
}

}  // namespace

CompiledMonitor::CompiledMonitor(std::size_t dim, std::string source,
                                 std::shared_ptr<const Program> program)
    : dim_(dim), source_(std::move(source)), program_(std::move(program)) {
  if (program_ == nullptr || program_->empty()) {
    throw std::invalid_argument("CompiledMonitor: no shards");
  }
  for (const Shard& sh : *program_) {
    if (sh.neurons.empty()) {
      if (program_->size() != 1) {
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
  eval_program(*program_, batch, &out, nullptr);
  return out;
}

std::shared_ptr<const Program> CompiledMonitor::lower_program() const {
  return program_;
}

std::string CompiledMonitor::describe() const {
  return "CompiledMonitor(d=" + std::to_string(dim_) +
         ", shards=" + std::to_string(shard_count()) +
         ", nodes=" + std::to_string(total_nodes()) +
         ", cubes=" + std::to_string(total_cubes()) + ", from=" + source_ +
         ")";
}

std::size_t CompiledMonitor::total_nodes() const noexcept {
  std::size_t total = 0;
  for (const Shard& sh : *program_) {
    if (sh.unit.kind == ProgramKind::kBdd) total += sh.unit.bdd.nodes.size();
  }
  return total;
}

std::size_t CompiledMonitor::total_cubes() const noexcept {
  std::size_t total = 0;
  for (const Shard& sh : *program_) {
    if (sh.unit.kind == ProgramKind::kCube) total += sh.unit.cube.num_cubes;
  }
  return total;
}

}  // namespace ranm::compile
