#include "compile/program.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "core/monitor.hpp"
#include "util/thread_pool.hpp"

namespace ranm::compile {
namespace {

/// Reusable per-unit evaluation buffers, one set per thread, so the
/// steady-state query path pays no allocator traffic and concurrent
/// shard evaluations never share scratch.
struct EvalScratch {
  std::vector<std::uint32_t> flags;    // box-sweep lane flags
  std::vector<std::uint64_t> words;    // packed codewords, sample-major
  std::vector<std::uint64_t> varbits;  // var-major block lanes (BDD sweep)
  std::vector<std::uint64_t> vals;     // per-node block verdicts (BDD sweep)
};

/// Samples per block of the BDD sweep.
constexpr std::size_t kLane = 64;
/// Codewords up to this many words fit the lazy paths' stack buffer.
constexpr std::size_t kMaxStackWords = 16;

/// ORs sample i's supported neurons into `word` through the unit's
/// one-sample coder: the lazy cube and BDD paths both build this
/// codeword once, then test bits, instead of re-coding a neuron every
/// time a cube or node touches it.
void code_sample_word(const ThresholdSpec& spec, const FeatureBatch& batch,
                      const std::uint32_t* row_map, std::size_t i,
                      const std::uint64_t* support, std::uint64_t* word) {
  spec.code_word(
      [&batch, row_map, i](std::size_t j) {
        return batch.at(row_map != nullptr ? row_map[j] : j, i);
      },
      support, word);
}

void eval_box(const BoxProgram& p, const FeatureBatch& batch,
              const std::uint32_t* row_map, bool* out, EvalScratch& s) {
  const std::size_t n = batch.size();
  if (n < kSmallBatch) {
    // Lazy per-sample path: first failing coordinate ends the box.
    for (std::size_t i = 0; i < n; ++i) {
      bool in = false;
      for (std::size_t b = 0; b < p.num_boxes && !in; ++b) {
        const float* lo = p.lo.data() + b * p.dim;
        const float* hi = p.hi.data() + b * p.dim;
        bool ok = true;
        for (std::size_t j = 0; j < p.dim && ok; ++j) {
          const float v = batch.at(row_map != nullptr ? row_map[j] : j, i);
          ok = p.reject_nan ? v >= lo[j] && v <= hi[j]
                            : !(v < lo[j] || v > hi[j]);
        }
        in = ok;
      }
      out[i] = in;
    }
    return;
  }
  // Box-major sweep: each box streams over the contiguous batch rows
  // once; membership in any box is OR-folded into the output. The lane
  // flags are u32 so the compiler knows they cannot alias the rows.
  std::fill(out, out + n, false);
  s.flags.resize(n);
  std::uint32_t* flags = s.flags.data();
  std::size_t remaining = n;
  for (std::size_t b = 0; b < p.num_boxes && remaining > 0; ++b) {
    std::fill(flags, flags + n, 1U);
    const float* lo = p.lo.data() + b * p.dim;
    const float* hi = p.hi.data() + b * p.dim;
    for (std::size_t j = 0; j < p.dim; ++j) {
      const float* row =
          batch.neuron(row_map != nullptr ? row_map[j] : j).data();
      const float l = lo[j], h = hi[j];
      if (p.reject_nan) {
        for (std::size_t i = 0; i < n; ++i) {
          flags[i] &= std::uint32_t(row[i] >= l) & std::uint32_t(row[i] <= h);
        }
      } else {
        for (std::size_t i = 0; i < n; ++i) {
          flags[i] &= std::uint32_t(!(row[i] < l || row[i] > h));
        }
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (flags[i] != 0 && !out[i]) {
        out[i] = true;
        --remaining;
      }
    }
  }
}

/// Per-sample cube scan with the codeword stride pinned at compile time
/// (0 = runtime): the early-exit scan is a handful of u64 compares per
/// sample, but only if the word/mask/value indexing constant-folds.
template <std::size_t kWords>
void match_cubes_stride(const CubeProgram& p, std::size_t n, std::size_t w64,
                        const std::uint64_t* words, bool* out) {
  const std::size_t W = kWords != 0 ? kWords : w64;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t* word = words + i * W;
    bool in = false;
    for (std::size_t c = 0; c < p.num_cubes && !in; ++c) {
      const std::uint64_t* mask = p.mask.data() + c * W;
      const std::uint64_t* value = p.value.data() + c * W;
      bool match = true;
      for (std::size_t w = 0; w < W; ++w) {
        match &= (word[w] & mask[w]) == value[w];
      }
      in = match;
    }
    out[i] = in;
  }
}

void eval_cube(const ThresholdSpec& spec, const CubeProgram& p,
               const FeatureBatch& batch, const std::uint32_t* row_map,
               bool* out, EvalScratch& s, const std::uint64_t* support) {
  const std::size_t n = batch.size();
  const std::size_t W = spec.num_words();
  // `support` is the union of the cube masks: variables outside it are
  // don't-cares in every cube, so their neurons never need coding.
  if (n < kSmallBatch && W <= kMaxStackWords) {
    // Lazy per-sample path: code one sample's needed neurons into a
    // stack codeword and scan the cubes — no batch matrix, so a single
    // query never pays per-neuron sweep setup dim times over.
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t word[kMaxStackWords] = {};
      code_sample_word(spec, batch, row_map, i, support, word);
      bool in = false;
      for (std::size_t c = 0; c < p.num_cubes && !in; ++c) {
        bool match = true;
        for (std::size_t w = 0; w < W; ++w) {
          match &= (word[w] & p.mask[c * W + w]) == p.value[c * W + w];
        }
        in = match;
      }
      out[i] = in;
    }
    return;
  }
  spec.code_words(batch, row_map, support, s.words);
  switch (W) {
    case 1:
      match_cubes_stride<1>(p, n, W, s.words.data(), out);
      return;
    case 2:
      match_cubes_stride<2>(p, n, W, s.words.data(), out);
      return;
    default:
      match_cubes_stride<0>(p, n, W, s.words.data(), out);
      return;
  }
}

/// In-place 64x64 bit-matrix transpose (the recursive block-swap
/// scheme): bit j of a[k] moves to bit k of a[j].
void transpose64(std::uint64_t a[64]) {
  std::uint64_t m = 0xFFFFFFFF00000000ULL;
  for (std::size_t j = 32; j != 0; j >>= 1, m ^= m >> j) {
    for (std::size_t k = 0; k < 64; k = (k + j + 1) & ~j) {
      const std::uint64_t t = (a[k] ^ (a[k | j] << j)) & m;
      a[k] ^= t;
      a[k | j] ^= t >> j;
    }
  }
}

/// Interleaved BDD walk over sample-major codewords (stride W, pinned at
/// compile time when kWords != 0): samples [0, n) each walk root to
/// terminal on bit tests. Groups of kWalkWays samples walk in lock step —
/// each round advances every unfinished walk one hop, so the group's node
/// loads are independent and overlap instead of serialising on one cache
/// miss after another. A finished walk idles on a conditional move rather
/// than a branch, and a group takes as many rounds as its longest path.
/// (8 ways measured fastest; 4 and 16 ways, and a refill ring that hands
/// a finished lane the next sample, all ran slower.) The remainder walks
/// one sample at a time.
template <std::size_t kWords>
void walk_bdd_stride(const BddProgram& p, const std::uint64_t* words,
                     std::size_t w64, std::size_t n, bool* out) {
  constexpr std::size_t kWalkWays = 8;
  const std::size_t W = kWords != 0 ? kWords : w64;
  const FlatBddNode* nodes = p.nodes.data();
  std::size_t i = 0;
  for (; i + kWalkWays <= n; i += kWalkWays) {
    const std::uint64_t* word = words + i * W;
    std::uint32_t ref[kWalkWays];
    for (std::size_t k = 0; k < kWalkWays; ++k) ref[k] = p.root;
    bool live = true;
    while (live) {
      live = false;
      for (std::size_t k = 0; k < kWalkWays; ++k) {
        const std::uint32_t r = ref[k];
        // Terminal refs re-read node 0 and keep their value.
        const FlatBddNode& nd = nodes[r >= 2 ? r - 2 : 0];
        const std::uint64_t bit =
            (word[k * W + (nd.var >> 6)] >> (nd.var & 63)) & 1ULL;
        const std::uint32_t next = r >= 2 ? nd.child[bit] : r;
        ref[k] = next;
        live |= next >= 2;
      }
    }
    for (std::size_t k = 0; k < kWalkWays; ++k) out[i + k] = ref[k] == 1;
  }
  for (; i < n; ++i) {
    const std::uint64_t* word = words + i * W;
    std::uint32_t ref = p.root;
    // The child select is a *branch* on purpose: a branch lets the core
    // speculate down the predicted path instead of serialising every hop
    // on the word load (indexing child[bit] directly is a data dependency
    // and measures ~2x slower on deep single walks), and monitor query
    // streams repeat similar paths, so it predicts well.
    while (ref >= 2) {
      const FlatBddNode& nd = nodes[ref - 2];
      if ((word[nd.var >> 6] >> (nd.var & 63)) & 1ULL) {
        ref = nd.child[1];
      } else {
        ref = nd.child[0];
      }
    }
    out[i] = ref == 1;
  }
}

void walk_bdd(const BddProgram& p, const std::uint64_t* words, std::size_t W,
              std::size_t n, bool* out) {
  switch (W) {
    case 1:
      walk_bdd_stride<1>(p, words, W, n, out);
      return;
    case 2:
      walk_bdd_stride<2>(p, words, W, n, out);
      return;
    default:
      walk_bdd_stride<0>(p, words, W, n, out);
      return;
  }
}

/// Bit-parallel sweep over sample-major codewords, 64 samples per block:
/// each block is transposed into one u64 lane per variable (bit i =
/// sample base + i's value) and every node is evaluated once.
void sweep_bdd(const BddProgram& p, const std::uint64_t* words, std::size_t W,
               std::size_t n, bool* out, EvalScratch& s) {
  const FlatBddNode* nodes = p.nodes.data();
  const std::size_t num_nodes = p.nodes.size();
  s.varbits.resize(W * 64);
  // vals is indexed by *ref* with the two terminals padded in front
  // (vals[0] = FALSE, vals[1] = TRUE, node k at vals[k + 2]), so the
  // sweep resolves children with one unconditional load each.
  s.vals.resize(num_nodes + 2);
  for (std::size_t base = 0; base < n; base += kLane) {
    const std::size_t count = std::min(kLane, n - base);
    for (std::size_t w = 0; w < W; ++w) {
      std::uint64_t col[kLane];
      for (std::size_t i = 0; i < count; ++i) {
        col[i] = words[(base + i) * W + w];
      }
      for (std::size_t i = count; i < kLane; ++i) col[i] = 0;
      transpose64(col);
      std::copy(col, col + kLane, s.varbits.data() + w * 64);
    }
    const std::uint64_t* varbits = s.varbits.data();
    // Bottom-up, every node exactly once — vals[ref] =
    // (lane & hi) | (~lane & lo), walking the array backwards so
    // children (strictly larger refs) are already resolved. Partial
    // blocks run the same sweep with the spare lane bits zeroed and
    // ignored: a sparse top-down reach-mask pass that skips unreached
    // nodes was tried and lost — at tail sizes its per-node skip
    // branches are ~50% dense, and the mispredicts cost more than the
    // branchless full sweep.
    std::uint64_t* vals = s.vals.data();
    vals[0] = 0;
    vals[1] = ~0ULL;
    for (std::size_t k = num_nodes; k-- > 0;) {
      const FlatBddNode& nd = nodes[k];
      const std::uint64_t lane = varbits[nd.var];
      vals[k + 2] =
          (lane & vals[nd.child[1]]) | (~lane & vals[nd.child[0]]);
    }
    const std::uint64_t r = vals[p.root];
    for (std::size_t i = 0; i < count; ++i) {
      out[base + i] = ((r >> i) & 1ULL) != 0;
    }
  }
}

std::size_t popcount_words(const std::uint64_t* words, std::size_t count) {
  std::size_t total = 0;
  for (std::size_t w = 0; w < count; ++w) {
    total += std::size_t(std::popcount(words[w]));
  }
  return total;
}

/// The BDD evaluators' cost model, in sweep node evaluations: true when
/// the interleaved walk is the cheaper evaluator for a batch of n
/// samples. The sweep pays every node once per (possibly partial)
/// 64-sample block; the walk pays kBddWalkHopCost per hop, at most one
/// hop per supported variable. Tiny batches always walk: the transpose
/// and the batch matrix would dominate them.
bool bdd_walks(std::size_t num_nodes, std::size_t path_len, std::size_t n) {
  const std::size_t blocks = (n + kLane - 1) / kLane;
  return n < kSmallBatch ||
         num_nodes * blocks > kBddWalkHopCost * path_len * n;
}

void eval_bdd(const ThresholdSpec& spec, const BddProgram& p,
              const FeatureBatch& batch, const std::uint32_t* row_map,
              bool* out, EvalScratch& s, const std::uint64_t* support) {
  const std::size_t n = batch.size();
  if (p.root < 2) {
    std::fill(out, out + n, p.root == 1);
    return;
  }
  const std::size_t W = spec.num_words();
  // `support` holds the variables that label a node: neurons with none
  // of them never influence a verdict, so coding skips them (robust sets
  // drop many).
  if (n < kSmallBatch && W <= kMaxStackWords) {
    // Lazy per-sample coding: code each sample's supported neurons once
    // into a stack codeword (one streaming pass over the threshold
    // table, no batch matrix), then walk on bit tests.
    std::uint64_t words[kSmallBatch * kMaxStackWords];
    std::fill(words, words + n * W, 0ULL);
    for (std::size_t i = 0; i < n; ++i) {
      code_sample_word(spec, batch, row_map, i, support, words + i * W);
    }
    walk_bdd(p, words, W, n, out);
    return;
  }
  // Pack sample-major codewords once (the per-neuron compare loops
  // vectorize); both evaluators read the same codeword bits.
  spec.code_words(batch, row_map, support, s.words);
  if (bdd_walks(p.nodes.size(), popcount_words(support, W), n)) {
    walk_bdd(p, s.words.data(), W, n, out);
  } else {
    sweep_bdd(p, s.words.data(), W, n, out, s);
  }
}

/// Rough per-sample op count of eval_unit on a batch of `batch` samples,
/// in units of one sweep node evaluation: box programs test dim * boxes
/// coordinates; coded programs pay the threshold coding plus the cube
/// scan or the cheaper of the two BDD evaluators, the same cost model
/// eval_bdd dispatches on.
std::size_t unit_cost_per_sample(const CompiledUnit& unit,
                                 std::size_t batch) noexcept {
  const std::size_t coding = unit.coding ? unit.coding->values().size() : 0;
  const std::size_t words = unit.coding ? unit.coding->num_words() : 0;
  switch (unit.kind) {
    case ProgramKind::kBox:
      return unit.box.dim * unit.box.num_boxes;
    case ProgramKind::kCube:
      return coding + unit.cube.num_cubes * words;
    case ProgramKind::kBdd: {
      const std::size_t nodes = unit.bdd.nodes.size();
      const std::size_t path_len =
          popcount_words(unit.support.data(), unit.support.size());
      if (bdd_walks(nodes, path_len, batch)) {
        return coding + kBddWalkHopCost * path_len;
      }
      const std::size_t blocks = (batch + kLane - 1) / kLane;
      return coding + (nodes * blocks + batch - 1) / batch;
    }
  }
  return 1;
}

/// Membership of one finalized unit: out[i] = unit contains sample i.
/// `row_map`, when non-null, maps the unit's local neuron j to batch row
/// row_map[j]; when null the mapping is the identity.
void eval_unit(const CompiledUnit& unit, const FeatureBatch& batch,
               const std::uint32_t* row_map, bool* out,
               EvalScratch& scratch) {
  // A row map's entries were validated when the program was built or
  // loaded (the CompiledMonitor constructor range-checks every list).
  if (row_map == nullptr && batch.dimension() != unit.dimension()) {
    throw std::invalid_argument("eval_program: dimension mismatch");
  }
  switch (unit.kind) {
    case ProgramKind::kBox:
      eval_box(unit.box, batch, row_map, out, scratch);
      return;
    case ProgramKind::kCube:
      eval_cube(*unit.coding, unit.cube, batch, row_map, out, scratch,
                unit.support.data());
      return;
    case ProgramKind::kBdd:
      eval_bdd(*unit.coding, unit.bdd, batch, row_map, out, scratch,
               unit.support.data());
      return;
  }
  throw std::logic_error("eval_program: corrupt program kind");
}

/// Evaluates one shard on the running thread's buffers, grown to their
/// high-water size and reused: a thread evaluates one shard at a time,
/// and the steady-state hot path does not allocate.
void eval_shard(const Shard& shard, const FeatureBatch& batch, bool* out) {
  thread_local EvalScratch scratch;
  eval_unit(shard.unit, batch,
            shard.neurons.empty() ? nullptr : shard.neurons.data(), out,
            scratch);
}

/// Below this batch size the shard fan-out runs inline even with a pool:
/// waking the workers costs more than the queries themselves.
constexpr std::size_t kMinPoolBatch = 32;
/// Minimum estimated per-shard work (rough op count, batch included)
/// before the fan-out is worth a pool dispatch: lowered programs are
/// often so cheap that waking workers costs more than the whole batch,
/// so a batch-size floor alone is not enough grain control.
constexpr std::size_t kMinPoolWork = 65536;

/// True when a batch of n samples is worth fanning out on a pool: the
/// costliest shard's estimated work clears the grain.
bool worth_pool(const Program& program, std::size_t n) {
  if (n < kMinPoolBatch) return false;
  std::size_t cost = 0;
  for (const Shard& shard : program) {
    cost = std::max(cost, unit_cost_per_sample(shard.unit, n));
  }
  return n * cost >= kMinPoolWork;
}

}  // namespace

void CompiledUnit::finalize() {
  support.clear();
  if (kind == ProgramKind::kBox) return;
  const std::size_t W = coding->num_words();
  support.assign(W, 0ULL);
  if (kind == ProgramKind::kCube) {
    for (std::size_t k = 0; k < cube.num_cubes * W; ++k) {
      support[k % W] |= cube.mask[k];
    }
  } else {
    for (const FlatBddNode& nd : bdd.nodes) {
      support[nd.var >> 6] |= 1ULL << (nd.var & 63);
    }
  }
}

bool bdd_always_walks(std::size_t num_nodes, std::size_t path_len) noexcept {
  // ceil(n / 64) / n is smallest at n = 64: the sweep's best case.
  return bdd_walks(num_nodes, path_len, kLane);
}

void eval_program(const Program& program, const FeatureBatch& batch,
                  bool* out, ThreadPool* pool, bool* rows) {
  const std::size_t n = batch.size();
  if (n == 0) return;
  const std::size_t S = program.size();
  if (rows == nullptr) {
    if (S == 1) {
      eval_shard(program[0], batch, out);
      return;
    }
    if (n == 1) {
      // Single query (the serving path): no verdict matrix, no pool, and
      // the AND stops at the first rejecting shard.
      bool verdict = true;
      for (std::size_t s = 0; s < S && verdict; ++s) {
        eval_shard(program[s], batch, &verdict);
      }
      out[0] = verdict;
      return;
    }
    // The calling thread's scratch; shards write disjoint rows, so the
    // fan-out is race-free and the AND runs on the caller.
    rows = thread_scratch<Program>(S * n).data();
  }
  const auto run = [&](std::size_t s) {
    eval_shard(program[s], batch, rows + s * n);
  };
  if (pool != nullptr && worth_pool(program, n)) {
    pool->parallel_for(S, run);
  } else {
    for (std::size_t s = 0; s < S; ++s) run(s);
  }
  std::copy(rows, rows + n, out);
  for (std::size_t s = 1; s < S; ++s) {
    const bool* row = rows + s * n;
    for (std::size_t i = 0; i < n; ++i) out[i] = out[i] && row[i];
  }
}

}  // namespace ranm::compile
