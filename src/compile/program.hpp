// Lowered monitor programs: the data structures a frozen monitor compiles
// into and the batched evaluators that run them.
//
// Construction-side monitors are built for *insertion*: hash-consed BDD
// arenas, threshold tables, k-means buffers. Deployment only ever asks one
// question — membership — so the compiler (compile/lower.hpp) lowers each
// monitor into the smallest structure that answers it:
//
//   BoxProgram  — straight-line interval tests (min-max, box-cluster).
//   CubeProgram — bitmask compares over the coded word: the stored set as
//                 a cube cover, one (mask, value) pair per cube. Chosen
//                 when the BDD's cube cover is small (robust builds with
//                 don't-cares typically are).
//   BddProgram  — the reachable BDD nodes as a topologically-ordered flat
//                 array walked with branchless index arithmetic: no hash
//                 tables, no construction garbage, children resolved by
//                 array index. Refs: 0 = FALSE, 1 = TRUE, r >= 2 is
//                 nodes[r - 2]; every child ref is strictly greater than
//                 its parent's ref, so a walk always terminates.
//
// A whole monitor lowers to a Program: one unit per shard, each with the
// neuron rows it reads (empty for the identity). eval_program is the only
// batched query engine: it runs every monitor's program, whether a flat
// or sharded monitor lowered it on its first batch or a CompiledMonitor
// holds it frozen (Monitor::contains_batch), and it owns the one shard
// fan-out, pool gate and AND over shards.
//
// Evaluation sweeps samples batch-lane-innermost (like the vectorized
// bound backend): per-neuron parameters load once per batch row, and the
// unit's ThresholdSpec codes the batch (ThresholdSpec::code_words) into
// sample-major u64 codewords (each lane's whole codeword stays on one
// cache line for the cube compares). Cube covers skip coding any neuron
// no cube tests.
//
// BDD programs have two evaluators over the same codeword bits, and a
// cost model (kBddWalkHopCost) picks one per call:
//
//   - The bit-parallel bottom-up sweep. Each 64-sample block's codewords
//     are transposed into one u64 lane per variable, and every node is
//     evaluated exactly once per block with three bitwise ops, so the
//     block shares one O(nodes) pass instead of 64 root-to-terminal
//     chases. (Coding straight into var-major lanes, skipping the
//     transpose, is slower: the scalar shift-chain packing defeats the
//     vectorization of the sample-major compare loops, and the 64x64
//     transpose is cheap.) Partial trailing blocks run the same sweep
//     with the spare lane bits zeroed: the sweep is branchless, and that
//     beats any sparse reached-nodes pass whose per-node skip branches
//     mispredict.
//   - The interleaved walk: 8 samples walk root to terminal in lock step
//     so their node loads overlap, and the remainder walks one sample at
//     a time. It costs at most one hop per supported variable, whatever
//     the node count.
//
// "Every node once per block" therefore holds only below the crossover:
// the sweep wins on small BDDs at large batches, and the walk wins once
// num_nodes outgrows kBddWalkHopCost * min(n, 64) * path_len. The paper's
// robust construction stores every Delta-reachable pattern, and its BDDs
// sit far past the crossover. On the 204,825-node race-track monitor
// (64 variables) the sweep cost ~10x the interpreted walk per sample at
// a 32-frame batch. A walk-only evaluator was rejected: on small robust
// BDDs at batch >= 64 it lost ~3x to the sweep. Tiny batches (below
// kSmallBatch) code each sample's supported neurons into a stack
// codeword and walk, so the matrix setup never dominates.
// Scratch deliberately holds no char-sized buffers: u32/u64 lanes
// cannot alias the float rows, which keeps the inner sweeps
// vectorizable.
//
// Verdict semantics mirror the interpreted monitors bit-for-bit, NaN
// included: min-max boxes keep the `!(v < lo || v > hi)` form (NaN is
// contained), box-cluster boxes keep `v >= lo && v <= hi` (NaN is
// rejected), and threshold coding is the interpreted monitors' own
// coder. The verdict oracle (tests/oracle.hpp) pins this equivalence.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/feature_batch.hpp"
#include "core/threshold_spec.hpp"

namespace ranm {
class ThreadPool;
}

namespace ranm::compile {

/// Below this batch size the batch setup would cost more than the
/// queries: Monitor::contains_batch calls the scalar contains per sample,
/// and the unit evaluators code each sample into a stack codeword.
inline constexpr std::size_t kSmallBatch = 8;

/// Which evaluator a compiled unit runs.
enum class ProgramKind : std::uint32_t { kBox = 1, kCube = 2, kBdd = 3 };

/// Union-of-boxes membership: v is in iff some box contains every
/// coordinate. One box with reject_nan == false is exactly a min-max
/// envelope (NaN contained); reject_nan == true is the box-cluster form
/// (NaN rejected).
struct BoxProgram {
  std::size_t dim = 0;
  std::size_t num_boxes = 0;
  bool reject_nan = false;
  /// Bounds stored box-major: box b's bound for neuron j at [b*dim + j].
  std::vector<float> lo, hi;
};

/// Cube-cover membership over the packed codeword: cube c matches iff
/// (word & mask[c]) == value[c] on every 64-bit word; membership is the
/// OR over cubes. Don't-care variables simply have their mask bit clear.
struct CubeProgram {
  std::size_t num_cubes = 0;
  /// Cube-major: cube c's words at [c*W .. c*W + W) with W from the
  /// unit's ThresholdSpec::num_words().
  std::vector<std::uint64_t> mask, value;
};

/// One flat BDD node: child[bit] is the next ref for variable value bit.
struct FlatBddNode {
  std::uint32_t var = 0;
  std::uint32_t child[2] = {0, 0};
};

/// Reachable BDD as a flat array in topological order: variable-ascending
/// for programs the sweep may run, depth-first for programs the cost
/// model always walks (bdd_always_walks). Ref convention: 0 = FALSE,
/// 1 = TRUE, r >= 2 is nodes[r - 2]; children always have strictly
/// larger refs than their parent.
struct BddProgram {
  std::uint32_t root = 0;
  std::vector<FlatBddNode> nodes;
};

/// One lowered monitor (one shard's worth): exactly one of the three
/// programs is active, selected by `kind`. Cube and BDD programs read
/// the code word of the source monitor's coding table, copied here.
struct CompiledUnit {
  ProgramKind kind = ProgramKind::kBox;
  BoxProgram box;                      // kind == kBox
  std::optional<ThresholdSpec> coding;  // kind == kCube or kBdd
  CubeProgram cube;                    // kind == kCube
  BddProgram bdd;                      // kind == kBdd

  /// Derived, never serialised: the union of tested coding variables
  /// (cube masks / BDD node labels) as num_words() bitmask words.
  /// Precomputed by finalize() so the evaluators don't redo the
  /// O(cubes)/O(nodes) sweep on every call — the fixed cost that made
  /// tiny-batch compiled queries lose to the interpreted monitors.
  std::vector<std::uint64_t> support;

  /// Recomputes `support` from the active program. Idempotent; every
  /// place that builds a unit calls it (lower_bdd_set, the box lowerings
  /// and the artifact loader), so the evaluators can rely on it.
  void finalize();

  [[nodiscard]] std::size_t dimension() const noexcept {
    return kind == ProgramKind::kBox ? box.dim : coding->dimension();
  }
};

/// BDD evaluator crossover: one hop of the interleaved walk costs about
/// as much as this many node evaluations of the bit-parallel sweep.
/// eval_bdd walks a batch of n >= 8 samples when
/// num_nodes * ceil(n / 64) > kBddWalkHopCost * path_len * n, which is
/// num_nodes > kBddWalkHopCost * min(n, 64) * path_len for n <= 64
/// (path_len: the supported variables, an upper bound on any path), and
/// sweeps otherwise.
///
/// Measured on robust 2-bit interval BDDs over 128 supported variables
/// (random features, level-ordered programs; 4-vCPU Xeon, GCC 12.2
/// Release, warm cache). The walk's per-sample cost divided by
/// path_len came to 1.0-1.7 sweep node evaluations from 2.8k to 17k
/// nodes, which is the crossover region for batches 8..64, and to 2-4
/// at 110k-270k nodes. At batch 64 the sweep won at 6.9k nodes
/// (115 vs 211 ns/sample) and lost at 17k (293 vs 236).
inline constexpr std::size_t kBddWalkHopCost = 2;

/// True when the cost model walks every batch of a BDD program with
/// `num_nodes` nodes over `path_len` supported variables: the sweep loses
/// even on full 64-sample blocks. The lowering lays such programs out for
/// the walk (compile/lower.cpp).
[[nodiscard]] bool bdd_always_walks(std::size_t num_nodes,
                                    std::size_t path_len) noexcept;

/// One lowered shard: `unit` sees the projection of the feature space
/// onto `neurons`, in list order. An empty list means the identity: the
/// unit covers the full feature space directly (a flat monitor).
struct Shard {
  std::vector<std::uint32_t> neurons;
  CompiledUnit unit;
};

/// A lowered monitor: its membership is the AND over its (one or more)
/// shards. Built by Monitor::lower_program or loaded from an RCM1
/// artifact; neuron ids must lie in the batch's feature space, and an
/// identity shard must be the only one.
using Program = std::vector<Shard>;

/// Batched membership: out[i] = every shard of `program` contains sample
/// i of `batch`; `out` must hold batch.size() verdicts. Each shard reads
/// its rows straight out of the batch through its neuron list, with no
/// row views and no copies. A single shard runs directly and a single
/// sample stops at the first rejecting shard. With `pool`, batches of 32
/// or more whose estimated per-shard work clears the grain run their
/// shards on it; any number of threads may evaluate one program at once.
/// When `rows` is non-null every shard runs, and shard s's verdicts land
/// in rows[s * n .. s * n + n) (the per-shard drift counts of a served
/// sharded monitor); it must hold program.size() * batch.size() bools.
void eval_program(const Program& program, const FeatureBatch& batch,
                  bool* out, ThreadPool* pool, bool* rows = nullptr);

}  // namespace ranm::compile
