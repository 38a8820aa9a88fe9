#include "compile/lower.hpp"

#include <algorithm>
#include <stdexcept>

namespace ranm::compile {
namespace {

/// Largest cube cover worth lowering to bitmask compares; a BDD whose
/// cover is larger (or whose enumeration exceeds the work bound) lowers
/// to a flat node array instead.
constexpr std::size_t kCubeLimit = 64;

/// Bounded cube-cover extraction: DFS over the BDD, one cube per path to
/// TRUE, variables not on the path as don't-cares (mask bit clear).
/// Aborts (returns false) past kCubeLimit cubes or past the work
/// bound — path counts can blow up combinatorially on dense sets even
/// when the node count is small, so the visit counter, not just the cube
/// counter, bounds the enumeration. BDD variable v is bit v of the
/// ThresholdSpec code word.
bool extract_cubes(const bdd::BddManager& mgr, bdd::NodeRef root,
                   std::size_t num_vars, std::size_t num_words,
                   CubeProgram& out) {
  out.num_cubes = 0;
  out.mask.clear();
  out.value.clear();
  if (root == bdd::kFalse) return true;  // empty cover: nothing matches
  if (root == bdd::kTrue) {
    // One all-don't-care cube: everything matches.
    out.num_cubes = 1;
    out.mask.assign(num_words, 0ULL);
    out.value.assign(num_words, 0ULL);
    return true;
  }
  std::vector<std::uint64_t> mask(num_words, 0ULL), value(num_words, 0ULL);
  struct Frame {
    bdd::NodeRef ref;
    int next_child;  // 0, 1, then 2 = done
  };
  std::vector<Frame> stack{{root, 0}};
  // Each accepted cube is one root-to-TRUE path of at most num_vars
  // nodes, and the DFS touches every node on it a constant number of
  // times (descend twice, unwind once, plus dead-end FALSE probes), so a
  // cover of kCubeLimit cubes legitimately costs O(num_vars * kCubeLimit)
  // visits. Anything past that is the combinatorial path blow-up the
  // bound exists to cut off.
  const std::size_t work_limit =
      3 * std::max<std::size_t>(num_vars, 64) * (kCubeLimit + 1) + 1024;
  std::size_t visits = 0;
  while (!stack.empty()) {
    Frame& f = stack.back();
    const bdd::BddManager::NodeView nv = mgr.view(f.ref);
    const std::size_t w = nv.var >> 6;
    const std::uint64_t bit = 1ULL << (nv.var & 63);
    if (f.next_child == 0) mask[w] |= bit;  // entering: var constrained
    if (f.next_child == 2) {                // leaving: var free again
      mask[w] &= ~bit;
      value[w] &= ~bit;
      stack.pop_back();
      continue;
    }
    const bool polarity = f.next_child == 1;
    ++f.next_child;
    if (polarity) {
      value[w] |= bit;
    } else {
      value[w] &= ~bit;
    }
    if (++visits > work_limit) return false;
    const bdd::NodeRef child = polarity ? nv.hi : nv.lo;
    if (child == bdd::kFalse) continue;
    if (child == bdd::kTrue) {
      if (++out.num_cubes > kCubeLimit) return false;
      out.mask.insert(out.mask.end(), mask.begin(), mask.end());
      out.value.insert(out.value.end(), value.begin(), value.end());
      continue;
    }
    stack.push_back({child, 0});
  }
  return true;
}

/// The nodes reachable from `root` in reverse DFS postorder, taking
/// child[1] before child[0]: every node precedes its children, and each
/// node's lo-subtree follows it directly.
std::vector<bdd::NodeRef> reverse_postorder(const bdd::BddManager& mgr,
                                            bdd::NodeRef root,
                                            std::size_t count) {
  std::vector<bdd::NodeRef> post;
  post.reserve(count);
  // A NodeRef is an arena index, so a dense bitmap marks visited nodes.
  std::vector<bool> seen(mgr.arena_size(), false);
  seen[root] = true;
  std::vector<std::pair<bdd::NodeRef, int>> stack{{root, 0}};
  while (!stack.empty()) {
    auto& [r, visited] = stack.back();
    if (visited == 2) {
      post.push_back(r);
      stack.pop_back();
      continue;
    }
    const bdd::BddManager::NodeView nv = mgr.view(r);
    const bdd::NodeRef child = visited++ == 0 ? nv.hi : nv.lo;
    if (child >= 2 && !seen[child]) {
      seen[child] = true;
      stack.push_back({child, 0});
    }
  }
  std::reverse(post.begin(), post.end());
  return post;
}

/// Flattens the nodes reachable from `root` into a topological order:
/// every child after its parent, so the flat refs satisfy the
/// child > parent invariant the loader re-validates. The order follows
/// the evaluator the program will run (see bdd_always_walks):
///
///   - Level-ascending for programs the bit-parallel sweep may run. The
///     BDD is level-ordered (children strictly deeper than parents), so
///     sorting by *level* puts every child after its parent, and keeps
///     consecutive nodes' children clustered in the next level's block,
///     which the sweep depends on: its vals[child] loads stay in a
///     narrow window. (A reverse-DFS layout scatters those loads — the
///     full-block sweep nearly doubled in cost.)
///   - Reverse DFS postorder for programs only ever walked. Successive
///     hops of a walk then land on nearby cache lines instead of one
///     level block each: on the 204,825-node robust race-track monitor
///     the interleaved walk ran 2-3x faster than over the level order.
BddProgram flatten_bdd(const bdd::BddManager& mgr, bdd::NodeRef root) {
  BddProgram p;
  if (root == bdd::kFalse || root == bdd::kTrue) {
    p.root = root;
    return p;
  }
  std::vector<bdd::NodeRef> reach;
  std::vector<bdd::NodeRef> pending{root};
  // Dense remap over arena indices (a NodeRef is an arena index): 0 is
  // unreached, 1 reached, and the final flat refs (>= 2) are assigned
  // after sorting.
  std::vector<std::uint32_t> remap(mgr.arena_size(), 0);
  std::vector<bool> var_used(mgr.num_vars(), false);
  std::size_t path_len = 0;
  while (!pending.empty()) {
    const bdd::NodeRef r = pending.back();
    pending.pop_back();
    if (remap[r] != 0) continue;
    remap[r] = 1;
    reach.push_back(r);
    const bdd::BddManager::NodeView nv = mgr.view(r);
    if (!var_used[nv.var]) {
      var_used[nv.var] = true;
      ++path_len;
    }
    if (nv.lo >= 2) pending.push_back(nv.lo);
    if (nv.hi >= 2) pending.push_back(nv.hi);
  }
  if (bdd_always_walks(reach.size(), path_len)) {
    reach = reverse_postorder(mgr, root, reach.size());
  } else {
    std::stable_sort(reach.begin(), reach.end(),
                     [&mgr](bdd::NodeRef a, bdd::NodeRef b) {
                       return mgr.view(a).var < mgr.view(b).var;
                     });
  }
  for (std::size_t i = 0; i < reach.size(); ++i) {
    remap[reach[i]] = static_cast<std::uint32_t>(i + 2);
  }
  const auto flat_ref = [&remap](bdd::NodeRef r) {
    return r < 2 ? static_cast<std::uint32_t>(r) : remap[r];
  };
  p.nodes.resize(reach.size());
  for (std::size_t i = 0; i < reach.size(); ++i) {
    const bdd::BddManager::NodeView nv = mgr.view(reach[i]);
    p.nodes[i].var = nv.var;
    p.nodes[i].child[0] = flat_ref(nv.lo);
    p.nodes[i].child[1] = flat_ref(nv.hi);
  }
  p.root = flat_ref(root);
  return p;
}

}  // namespace

std::unique_ptr<CompiledUnit> lower_bdd_set(const bdd::BddManager& mgr,
                                            bdd::NodeRef root,
                                            const ThresholdSpec& spec) {
  auto unit = std::make_unique<CompiledUnit>();
  unit->coding = spec;
  if (extract_cubes(mgr, root, spec.num_vars(), spec.num_words(),
                    unit->cube)) {
    unit->kind = ProgramKind::kCube;
  } else {
    unit->cube = CubeProgram{};
    unit->kind = ProgramKind::kBdd;
    unit->bdd = flatten_bdd(mgr, root);
  }
  unit->finalize();
  return unit;
}

CompiledMonitor compile_monitor(const Monitor& monitor) {
  // A compiled monitor's program is its own, so it would recompile to
  // itself; refuse rather than pretend it was lowered again.
  std::shared_ptr<const Program> program =
      dynamic_cast<const CompiledMonitor*>(&monitor) != nullptr
          ? nullptr
          : monitor.lower_program();
  if (program == nullptr) {
    throw std::invalid_argument("compile_monitor: unsupported monitor type " +
                                monitor.describe());
  }
  return CompiledMonitor(monitor.dimension(), monitor.describe(),
                         std::move(program));
}

}  // namespace ranm::compile
