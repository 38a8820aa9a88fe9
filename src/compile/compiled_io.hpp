// RCM1: the versioned on-disk artifact of a compiled monitor.
//
// Layout (little-endian, after the magic):
//
//   u32  version (1)
//   u64  dim                    feature-space dimension
//   u64  shard_count            1..4096
//   str  source                 provenance describe(), <= 256 bytes
//   per shard:
//     u64  neuron_count         0 = identity (single-shard only)
//     u32  neuron ids           neuron_count entries, each < dim
//     u32  program kind         1 = box, 2 = cube, 3 = bdd
//     u64  unit dim             must match the shard's neuron count
//     box:  u64 num_boxes, u8 reject_nan, f32 lo[], f32 hi[] (box-major)
//     cube/bdd: coding table (u64 bits, then the ThresholdSpec table
//       bytes an RTS1 spec also writes: per neuron 2^bits - 1 pairs of
//       threshold value (f32) + inclusive flag (u8))
//     cube: u64 num_cubes, per cube W mask words + W value words
//       (W derived from dim and bits, never read from the stream)
//     bdd:  u64 node_count, u32 root, per node u32 var + u32 lo + u32 hi
//
// Every count goes through the io/wire bounded reads *before* anything
// allocates from it, and the BDD loader re-validates the structural
// invariants evaluation termination rests on: child refs are terminals or
// strictly larger than their parent's ref, vars are in range, and the
// root is in bounds. The coding table is a ThresholdSpec, whose
// constructor refuses flags other than 0 or 1 and values that do not
// ascend strictly (NaN included): every engine reads the flags the same
// way only because no other byte can load. A corrupted artifact fails
// loudly on the check; a loader that trusts the writer must not recur.
#pragma once

#include <cstdint>
#include <iosfwd>

#include "compile/compiled_monitor.hpp"

namespace ranm::compile {

/// "RCM1" artifact magic.
inline constexpr std::uint32_t kCompiledMagic = 0x52434D31U;

void save_compiled_monitor(std::ostream& out, const CompiledMonitor& monitor);
/// Loads a full RCM1 stream (magic included). Throws std::runtime_error
/// on malformed input.
[[nodiscard]] CompiledMonitor load_compiled_monitor(std::istream& in);
/// Loads the body after the magic word (load_any_monitor dispatch).
[[nodiscard]] CompiledMonitor load_compiled_body(std::istream& in);

}  // namespace ranm::compile
