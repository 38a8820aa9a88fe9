#include "bdd/bdd.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

namespace ranm::bdd {
namespace {

/// Mixes a node triple or an ite key into a table index (the finaliser of
/// splitmix64 over a multiply-xor fold of the three words).
std::size_t hash3(std::uint32_t a, std::uint32_t b, std::uint32_t c) {
  std::uint64_t x = ((std::uint64_t(a) << 32) | b) * 0x9E3779B97F4A7C15ULL;
  x ^= std::uint64_t(c) * 0xC2B2AE3D27D4EB4FULL;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return static_cast<std::size_t>(x);
}

}  // namespace

BddManager::BddManager(std::uint32_t num_vars)
    : num_vars_(num_vars),
      unique_(kInitialSlots),
      cache_(kInitialSlots / kSlotsPerCacheEntry) {
  nodes_.push_back({kTerminalVar, kFalse, kFalse});  // node 0 = FALSE
  nodes_.push_back({kTerminalVar, kTrue, kTrue});    // node 1 = TRUE
}

NodeRef BddManager::make_node(std::uint32_t v, NodeRef lo, NodeRef hi) {
  if (lo == hi) return lo;  // reduction rule
  const std::size_t mask = unique_.size() - 1;
  std::size_t slot = hash3(v, lo, hi) & mask;
  for (NodeRef r = unique_[slot]; r != kFalse; r = unique_[slot]) {
    const Node& n = nodes_[r];
    if (n.var == v && n.lo == lo && n.hi == hi) return r;
    slot = (slot + 1) & mask;
  }
  if (nodes_.size() >= kMaxNodes) {
    throw NodeBudgetError("BddManager: node budget kMaxNodes exhausted");
  }
  const auto ref = static_cast<NodeRef>(nodes_.size());
  nodes_.push_back({v, lo, hi});
  if (2 * (nodes_.size() - 2) > unique_.size()) {
    grow_tables();  // re-inserts the new node with the rest
  } else {
    unique_[slot] = ref;
  }
  return ref;
}

void BddManager::grow_tables() {
  unique_.assign(unique_.size() * 2, kFalse);
  const std::size_t mask = unique_.size() - 1;
  for (std::size_t i = 2; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    std::size_t slot = hash3(n.var, n.lo, n.hi) & mask;
    while (unique_[slot] != kFalse) slot = (slot + 1) & mask;
    unique_[slot] = static_cast<NodeRef>(i);
  }
  std::vector<CacheEntry> old(unique_.size() / kSlotsPerCacheEntry);
  old.swap(cache_);
  const std::size_t cache_mask = cache_.size() - 1;
  for (const CacheEntry& e : old) {
    if (e.f != kFalse) cache_[hash3(e.f, e.g, e.h) & cache_mask] = e;
  }
}

NodeRef BddManager::make_node_checked(std::uint32_t v, NodeRef lo,
                                      NodeRef hi) {
  if (v >= num_vars_) {
    throw std::invalid_argument("BddManager: variable index out of range");
  }
  if (lo >= nodes_.size() || hi >= nodes_.size()) {
    throw std::invalid_argument("BddManager: child reference out of range");
  }
  if (level(lo) <= v || level(hi) <= v) {
    // levels: terminals have kTerminalVar (huge), so this rejects children
    // at or above v's level, enforcing the variable order.
    throw std::invalid_argument("BddManager: variable order violated");
  }
  return make_node(v, lo, hi);
}

NodeRef BddManager::var(std::uint32_t v) {
  if (v >= num_vars_) {
    throw std::invalid_argument("BddManager::var: index out of range");
  }
  return make_node(v, kFalse, kTrue);
}

NodeRef BddManager::nvar(std::uint32_t v) {
  if (v >= num_vars_) {
    throw std::invalid_argument("BddManager::nvar: index out of range");
  }
  return make_node(v, kTrue, kFalse);
}

NodeRef BddManager::literal(Literal lit) {
  return lit.positive ? var(lit.var) : nvar(lit.var);
}

NodeRef BddManager::ite(NodeRef f, NodeRef g, NodeRef h) {
  // Terminal cases.
  if (f == kTrue) return g;
  if (f == kFalse) return h;
  if (g == h) return g;
  if (g == kTrue && h == kFalse) return f;

  const CacheEntry& cached = cache_[hash3(f, g, h) & (cache_.size() - 1)];
  if (cached.f == f && cached.g == g && cached.h == h) return cached.r;

  const std::uint32_t top =
      std::min({level(f), level(g), level(h)});
  auto cof = [&](NodeRef n, bool hi) -> NodeRef {
    if (level(n) != top) return n;
    return hi ? nodes_[n].hi : nodes_[n].lo;
  };
  const NodeRef hi = ite(cof(f, true), cof(g, true), cof(h, true));
  const NodeRef lo = ite(cof(f, false), cof(g, false), cof(h, false));
  const NodeRef result = make_node(top, lo, hi);
  // The recursion may have grown the table, so the slot is looked up anew.
  cache_[hash3(f, g, h) & (cache_.size() - 1)] = {f, g, h, result};
  return result;
}

NodeRef BddManager::and_(NodeRef a, NodeRef b) { return ite(a, b, kFalse); }
NodeRef BddManager::or_(NodeRef a, NodeRef b) { return ite(a, kTrue, b); }
NodeRef BddManager::xor_(NodeRef a, NodeRef b) {
  return ite(a, not_(b), b);
}
NodeRef BddManager::not_(NodeRef a) { return ite(a, kFalse, kTrue); }
NodeRef BddManager::implies(NodeRef a, NodeRef b) { return ite(a, b, kTrue); }

NodeRef BddManager::or_all(std::vector<NodeRef> terms) {
  if (terms.empty()) return kFalse;
  for (std::size_t live = terms.size(); live > 1;) {
    const std::size_t half = live / 2;
    for (std::size_t i = 0; i < half; ++i) {
      terms[i] = or_(terms[2 * i], terms[2 * i + 1]);
    }
    if (live % 2 != 0) terms[half] = terms[live - 1];
    live = half + live % 2;
  }
  return terms[0];
}

NodeRef BddManager::cube(std::span<const CubeBit> bits,
                         std::uint32_t first_var, NodeRef below) {
  if (first_var > num_vars_ || bits.size() > num_vars_ - first_var) {
    throw std::invalid_argument("BddManager::cube: more bits than variables");
  }
  if (below >= nodes_.size()) {
    throw std::invalid_argument("BddManager::cube: below out of range");
  }
  // Terminals sit at kTerminalVar, below every variable.
  if (level(below) < first_var + bits.size()) {
    throw std::invalid_argument(
        "BddManager::cube: below depends on a variable above the cube's end");
  }
  // Build bottom-up (highest variable first) for linear node creation.
  NodeRef acc = below;
  for (std::size_t i = bits.size(); i-- > 0;) {
    const auto v = static_cast<std::uint32_t>(first_var + i);
    switch (bits[i]) {
      case CubeBit::kDontCare:
        break;
      case CubeBit::kOne:
        acc = make_node(v, kFalse, acc);
        break;
      case CubeBit::kZero:
        acc = make_node(v, acc, kFalse);
        break;
    }
  }
  return acc;
}

NodeRef BddManager::restrict_(NodeRef f, std::uint32_t v, bool value) {
  // Memoised per call: without a memo the recursion revisits shared
  // sub-DAGs and degrades exponentially on wide pattern sets.
  std::unordered_map<NodeRef, NodeRef> memo;
  auto rec = [&](auto&& self, NodeRef n) -> NodeRef {
    if (level(n) > v) return n;  // n does not depend on v (or terminal)
    if (level(n) == v) return value ? nodes_[n].hi : nodes_[n].lo;
    auto it = memo.find(n);
    if (it != memo.end()) return it->second;
    const NodeRef lo = self(self, nodes_[n].lo);
    const NodeRef hi = self(self, nodes_[n].hi);
    const NodeRef result = make_node(nodes_[n].var, lo, hi);
    memo.emplace(n, result);
    return result;
  };
  return rec(rec, f);
}

NodeRef BddManager::exists(NodeRef f, std::uint32_t v) {
  return or_(restrict_(f, v, false), restrict_(f, v, true));
}

NodeRef BddManager::flip(NodeRef f, std::uint32_t v) {
  const NodeRef f0 = restrict_(f, v, false);
  const NodeRef f1 = restrict_(f, v, true);
  return ite(var(v), f0, f1);
}

NodeRef BddManager::hamming_expand(NodeRef f,
                                   std::span<const std::uint32_t> vars) {
  NodeRef acc = f;
  for (std::uint32_t v : vars) acc = or_(acc, flip(f, v));
  return acc;
}

std::optional<unsigned> BddManager::min_hamming_distance(
    NodeRef f, const std::vector<bool>& point) const {
  if (point.size() < num_vars_) {
    throw std::invalid_argument(
        "BddManager::min_hamming_distance: point too short");
  }
  constexpr unsigned kInf = ~0U;
  std::unordered_map<NodeRef, unsigned> memo;
  auto rec = [&](auto&& self, NodeRef n) -> unsigned {
    if (n == kFalse) return kInf;
    if (n == kTrue) return 0;
    auto it = memo.find(n);
    if (it != memo.end()) return it->second;
    const Node& node = nodes_[n];
    const bool want = point[node.var];
    const unsigned agree = self(self, want ? node.hi : node.lo);
    const unsigned disagree = self(self, want ? node.lo : node.hi);
    unsigned best = agree;
    if (disagree != kInf) best = std::min(best, disagree + 1);
    memo.emplace(n, best);
    return best;
  };
  const unsigned d = rec(rec, f);
  if (d == kInf) return std::nullopt;
  return d;
}

bool BddManager::eval(NodeRef f, const std::vector<bool>& assignment) const {
  while (f != kFalse && f != kTrue) {
    const Node& n = nodes_[f];
    if (n.var >= assignment.size()) {
      throw std::invalid_argument("BddManager::eval: assignment too short");
    }
    f = assignment[n.var] ? n.hi : n.lo;
  }
  return f == kTrue;
}

double BddManager::sat_count(NodeRef f) const {
  // count(n) = number of assignments to variables strictly below n's level
  // that satisfy n, divided appropriately by level gaps. Children precede
  // their parents in the arena, so one ascending pass over the reachable
  // nodes counts bottom-up; an entry keeps its node's level beside its
  // count, so a parent reads one entry per child.
  struct Entry {
    double count;
    std::uint32_t level;
  };
  const std::vector<bool> reach = reachable(f);
  std::vector<Entry> entry(reach.size(), {0.0, num_vars_});
  if (f != kFalse) entry[kTrue].count = 1.0;
  for (NodeRef n = 2; n < reach.size(); ++n) {
    if (!reach[n]) continue;
    const Node& node = nodes_[n];
    const Entry& lo = entry[node.lo];
    const Entry& hi = entry[node.hi];
    entry[n] = {lo.count * std::ldexp(1.0, int(lo.level - node.var) - 1) +
                    hi.count * std::ldexp(1.0, int(hi.level - node.var) - 1),
                node.var};
  }
  return entry[f].count * std::ldexp(1.0, int(entry[f].level));
}

std::vector<bool> BddManager::reachable(NodeRef f) const {
  std::vector<bool> reach(std::size_t(f) + 1, false);
  reach[f] = true;
  for (NodeRef n = f; n >= 2; --n) {
    if (!reach[n]) continue;
    reach[nodes_[n].lo] = true;
    reach[nodes_[n].hi] = true;
  }
  return reach;
}

void BddManager::collect(NodeRef f, std::vector<NodeRef>& order,
                         std::vector<bool>& seen) const {
  if (seen[f]) return;
  seen[f] = true;
  if (f != kFalse && f != kTrue) {
    collect(nodes_[f].lo, order, seen);
    collect(nodes_[f].hi, order, seen);
  }
  order.push_back(f);
}

std::size_t BddManager::node_count(NodeRef f) const {
  const std::vector<bool> reach = reachable(f);
  return std::size_t(std::count(reach.begin(), reach.end(), true));
}

std::vector<std::uint32_t> BddManager::support(NodeRef f) const {
  std::vector<NodeRef> order;
  std::vector<bool> seen(nodes_.size(), false);
  collect(f, order, seen);
  std::set<std::uint32_t> vars;
  for (NodeRef n : order) {
    if (n != kFalse && n != kTrue) vars.insert(nodes_[n].var);
  }
  return {vars.begin(), vars.end()};
}

std::vector<std::vector<CubeBit>> BddManager::enumerate_cubes(
    NodeRef f) const {
  std::vector<std::vector<CubeBit>> cubes;
  std::vector<CubeBit> current(num_vars_, CubeBit::kDontCare);
  auto rec = [&](auto&& self, NodeRef n) -> void {
    if (n == kFalse) return;
    if (n == kTrue) {
      cubes.push_back(current);
      return;
    }
    const Node& node = nodes_[n];
    current[node.var] = CubeBit::kZero;
    self(self, node.lo);
    current[node.var] = CubeBit::kOne;
    self(self, node.hi);
    current[node.var] = CubeBit::kDontCare;
  };
  rec(rec, f);
  return cubes;
}

std::vector<bool> BddManager::any_sat(NodeRef f) const {
  if (f == kFalse) {
    throw std::invalid_argument("BddManager::any_sat: unsatisfiable");
  }
  std::vector<bool> assignment(num_vars_, false);
  while (f != kTrue) {
    const Node& n = nodes_[f];
    if (n.lo != kFalse) {
      assignment[n.var] = false;
      f = n.lo;
    } else {
      assignment[n.var] = true;
      f = n.hi;
    }
  }
  return assignment;
}

std::string BddManager::to_dot(NodeRef f) const {
  std::vector<NodeRef> order;
  std::vector<bool> seen(nodes_.size(), false);
  collect(f, order, seen);
  std::ostringstream out;
  out << "digraph bdd {\n";
  out << "  n0 [label=\"0\", shape=box];\n";
  out << "  n1 [label=\"1\", shape=box];\n";
  for (NodeRef n : order) {
    if (n == kFalse || n == kTrue) continue;
    const Node& node = nodes_[n];
    out << "  n" << n << " [label=\"x" << node.var << "\"];\n";
    out << "  n" << n << " -> n" << node.lo << " [style=dashed];\n";
    out << "  n" << n << " -> n" << node.hi << ";\n";
  }
  out << "}\n";
  return out.str();
}

BddManager::NodeView BddManager::view(NodeRef n) const {
  if (n >= nodes_.size()) throw std::out_of_range("BddManager::view");
  return {nodes_[n].var, nodes_[n].lo, nodes_[n].hi};
}

}  // namespace ranm::bdd
