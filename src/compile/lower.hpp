// Monitor -> CompiledMonitor lowering (the "compile" in ranm_cli compile).
//
// Each flat family lowers itself (Monitor::lower_unit): min-max and
// box-cluster to BoxPrograms; the BDD families (on-off, interval) through
// lower_bdd_set, which first attempts a bounded cube-cover extraction —
// robust builds with don't-cares usually cover in a handful of cubes,
// which evaluate as plain bitmask compares — and falls back to flattening
// the reachable BDD into a topologically-ordered node array. Lowering has
// no options: the cube limit is a constant of the lowering. A
// ShardedMonitor lowers shard by shard into one program, on its own pool
// (Monitor::set_threads): each shard's lowering touches only that shard's
// private manager. compile_monitor lowers (Monitor::lower_program) and
// wraps the program in a CompiledMonitor.
#pragma once

#include "bdd/bdd.hpp"
#include "compile/compiled_monitor.hpp"
#include "core/threshold_spec.hpp"

namespace ranm::compile {

/// Lowers the BDD set `root` of `mgr`, over the variables `spec` codes
/// (neuron j owns bits j*bits .. j*bits+bits-1, MSB first), to a
/// finalized unit carrying a copy of `spec`: a cube program when the
/// set's cover fits in 64 cubes, else a flat BDD program.
[[nodiscard]] std::unique_ptr<CompiledUnit> lower_bdd_set(
    const bdd::BddManager& mgr, bdd::NodeRef root, const ThresholdSpec& spec);

/// Lowers a frozen monitor (Monitor::lower_program) and wraps the program
/// in a CompiledMonitor. Supported sources: MinMaxMonitor,
/// IntervalMonitor (on-off included), BoxClusterMonitor (finalized), and
/// ShardedMonitor over those; a sharded source lowers on its own pool. Throws
/// std::invalid_argument on an unsupported or already compiled source and
/// std::logic_error on an unfinalized box-cluster.
[[nodiscard]] CompiledMonitor compile_monitor(const Monitor& monitor);

}  // namespace ranm::compile
