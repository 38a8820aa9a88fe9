// Reduced Ordered Binary Decision Diagrams (Bryant 1992, ref [12] in the
// paper). The paper stores the set of visited activation patterns in a BDD;
// robust construction inserts words with don't-care bits, which a BDD
// represents without enumerating the exponential word set (footnote 2).
//
// Design: a single arena of nodes owned by a BddManager. Node 0 is the
// FALSE terminal, node 1 the TRUE terminal. Variables are dense integers
// 0..num_vars-1 ordered by index (smaller index nearer the root). Nodes are
// never garbage collected, so a NodeRef stays valid for the manager's
// lifetime; the arena is capped at kMaxNodes. Robust monitors reach
// millions of nodes (BENCH_scalability's 1024-sample robust build holds
// 1.46M reachable ones), so both tables below are flat arrays over arena
// indices, after Brace, Rudell & Bryant, "Efficient implementation of a
// BDD package" (DAC 1990):
//
// - The unique table hash-conses (var, lo, hi) so structural equality is
//   pointer equality: two BDDs are the same function iff they are the same
//   NodeRef. It is open-addressed with linear probing; a slot holds an
//   arena index, and 0 marks an empty slot (FALSE is never hash-consed).
//   When the internal nodes reach half the slots, the table doubles and
//   every arena node is re-inserted.
// - The computed table memoises ite(f, g, h). It is direct-mapped and
//   lossy: a new entry overwrites whatever shared its slot, so its memory
//   is bounded by the arena rather than by the number of operations. An
//   entry with f == 0 is empty, which no real key can be, because ite
//   returns before the cache on a terminal f. It has one entry per two
//   unique-table slots and doubles with that table, keeping the entries
//   that still fit. Dropping an entry costs only a recomputation, which
//   finds the same canonical nodes through the unique table, so results
//   never depend on what the cache happened to keep.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace ranm::bdd {

/// Reference to a BDD node (index into the manager's arena).
using NodeRef = std::uint32_t;

/// The two terminal nodes have fixed references.
inline constexpr NodeRef kFalse = 0;
inline constexpr NodeRef kTrue = 1;

/// The node budget: the most nodes (terminals included) one manager's arena
/// may hold, and so the most a saved BDD may declare. The builder throws
/// NodeBudgetError rather than let a NodeRef wrap, save_bdd refuses a
/// function this large and load_bdd rejects a count above it. 2^30 nodes
/// is 12 GiB of arena, far past any monitor that fits in memory.
inline constexpr std::uint32_t kMaxNodes = 1U << 30;

/// Thrown when an operation would grow an arena past kMaxNodes, or save a
/// function the loader would refuse.
class NodeBudgetError : public std::length_error {
 public:
  using std::length_error::length_error;
};

/// A literal: variable index plus polarity.
struct Literal {
  std::uint32_t var = 0;
  bool positive = true;
};

/// Value of a variable inside a cube: false / true / unconstrained.
enum class CubeBit : std::int8_t { kZero = 0, kOne = 1, kDontCare = 2 };

/// Hash-consing BDD manager. All NodeRefs are owned by and only valid with
/// the manager that created them. Construction is single-threaded; const
/// evaluation is reentrant.
class BddManager {
 public:
  explicit BddManager(std::uint32_t num_vars);

  [[nodiscard]] std::uint32_t num_vars() const noexcept { return num_vars_; }
  /// Total nodes allocated in the arena (including the two terminals).
  [[nodiscard]] std::size_t arena_size() const noexcept {
    return nodes_.size();
  }

  // -- leaf / variable constructors --------------------------------------
  [[nodiscard]] static constexpr NodeRef false_() noexcept { return kFalse; }
  [[nodiscard]] static constexpr NodeRef true_() noexcept { return kTrue; }
  /// The function "variable v".
  [[nodiscard]] NodeRef var(std::uint32_t v);
  /// The function "not variable v".
  [[nodiscard]] NodeRef nvar(std::uint32_t v);
  /// A literal as a function.
  [[nodiscard]] NodeRef literal(Literal lit);

  // -- boolean combinators ------------------------------------------------
  /// If-then-else: the universal ternary combinator all others reduce to.
  [[nodiscard]] NodeRef ite(NodeRef f, NodeRef g, NodeRef h);
  [[nodiscard]] NodeRef and_(NodeRef a, NodeRef b);
  [[nodiscard]] NodeRef or_(NodeRef a, NodeRef b);
  [[nodiscard]] NodeRef xor_(NodeRef a, NodeRef b);
  [[nodiscard]] NodeRef not_(NodeRef a);
  [[nodiscard]] NodeRef implies(NodeRef a, NodeRef b);
  /// Disjunction of every term, combined pairwise in a balanced tree so
  /// each OR joins operands of similar size. Batched inserts reduce a
  /// chunk's words this way before one OR into a large set, instead of
  /// walking the set once per word.
  [[nodiscard]] NodeRef or_all(std::vector<NodeRef> terms);

  /// Conjunction of literals over variables first_var .. first_var +
  /// bits.size() - 1, ANDed onto `below`; bits[i] == kDontCare
  /// contributes nothing. This is exactly the paper's word2set:
  /// constrained bits become literals, don't-cares are simply absent
  /// (footnote 2 — linear size). `below` must depend on no variable before
  /// the cube's last one, so the literals are prepended without an AND.
  [[nodiscard]] NodeRef cube(std::span<const CubeBit> bits,
                             std::uint32_t first_var = 0,
                             NodeRef below = kTrue);

  // -- structural operations ----------------------------------------------
  /// Cofactor: f with variable v fixed to `value`.
  [[nodiscard]] NodeRef restrict_(NodeRef f, std::uint32_t v, bool value);
  /// Existential quantification over one variable.
  [[nodiscard]] NodeRef exists(NodeRef f, std::uint32_t v);
  /// f with variable v's polarity flipped: f[v <- !v].
  [[nodiscard]] NodeRef flip(NodeRef f, std::uint32_t v);
  /// All points at Hamming distance <= 1 from f over the given variables
  /// (f itself included): f OR (flip of f in each var). Iterate for radius
  /// r. NOTE: the expanded BDD can grow combinatorially on large pattern
  /// sets; use min_hamming_distance for distance *queries* (O(nodes)) and
  /// reserve expansion for small-radius set enlargement.
  [[nodiscard]] NodeRef hamming_expand(NodeRef f,
                                       std::span<const std::uint32_t> vars);

  /// Smallest Hamming distance from `point` to any satisfying assignment
  /// of f, or nullopt if f is unsatisfiable. Shortest-path dynamic
  /// program over the BDD: variables skipped on a path are free (cost 0),
  /// a branch disagreeing with `point` costs 1. O(reachable nodes).
  [[nodiscard]] std::optional<unsigned> min_hamming_distance(
      NodeRef f, const std::vector<bool>& point) const;

  // -- queries --------------------------------------------------------------
  /// Evaluates f under a total assignment (indexed by variable).
  [[nodiscard]] bool eval(NodeRef f,
                          const std::vector<bool>& assignment) const;
  /// Evaluates f under an assignment supplied by `lookup(var) -> bool`.
  /// The caller guarantees lookup is defined for every variable in f's
  /// support; no per-node bounds check is paid. This is the scalar query
  /// path of the interval (and so on-off) monitors: the lookup codes a
  /// variable only when the walk reaches it, and no std::vector<bool>
  /// assignment is built.
  template <typename Lookup>
  [[nodiscard]] bool eval_with(NodeRef f, Lookup&& lookup) const {
    while (f != kFalse && f != kTrue) {
      const Node& n = nodes_[f];
      f = lookup(n.var) ? n.hi : n.lo;
    }
    return f == kTrue;
  }

  /// Number of satisfying assignments over all num_vars() variables.
  [[nodiscard]] double sat_count(NodeRef f) const;
  /// Nodes reachable from f (the conventional "BDD size").
  [[nodiscard]] std::size_t node_count(NodeRef f) const;
  /// Variables f actually depends on, ascending.
  [[nodiscard]] std::vector<std::uint32_t> support(NodeRef f) const;
  /// Enumerates the prime-free cube cover obtained by DFS over the graph:
  /// one cube per path to TRUE. Intended for small BDDs (tests,
  /// serialisation of tiny monitors); cost is the number of paths.
  [[nodiscard]] std::vector<std::vector<CubeBit>> enumerate_cubes(
      NodeRef f) const;
  /// Picks one satisfying assignment; f must not be kFalse.
  [[nodiscard]] std::vector<bool> any_sat(NodeRef f) const;

  /// GraphViz dot rendering (debugging aid).
  [[nodiscard]] std::string to_dot(NodeRef f) const;

  // -- raw node access (serialisation) --------------------------------------
  struct NodeView {
    std::uint32_t var;
    NodeRef lo;
    NodeRef hi;
  };
  [[nodiscard]] NodeView view(NodeRef n) const;
  /// Rebuilds a canonical node (used by deserialisation). lo/hi must
  /// already exist; var must be above both children in the order.
  [[nodiscard]] NodeRef make_node_checked(std::uint32_t v, NodeRef lo,
                                          NodeRef hi);

 private:
  struct Node {
    std::uint32_t var;  // kTerminalVar for terminals
    NodeRef lo;
    NodeRef hi;
  };
  static constexpr std::uint32_t kTerminalVar = 0xFFFFFFFFU;

  /// One computed-table entry: ite(f, g, h) == r. f == kFalse marks it
  /// empty.
  struct CacheEntry {
    NodeRef f = kFalse;
    NodeRef g = kFalse;
    NodeRef h = kFalse;
    NodeRef r = kFalse;
  };
  /// Unique-table slots of a new manager (a power of two).
  static constexpr std::size_t kInitialSlots = 1024;
  /// Unique-table slots per computed-table entry: between one and two
  /// entries per internal node, as the unique table is a quarter to half
  /// full. A cache as large as the unique table cost 15 MB more peak RSS
  /// on the race-track robust build and no build speed.
  static constexpr std::size_t kSlotsPerCacheEntry = 2;

  [[nodiscard]] NodeRef make_node(std::uint32_t v, NodeRef lo, NodeRef hi);
  /// Doubles the unique table, re-inserting every arena node, and grows
  /// the computed table to match, keeping what its entries still map to.
  void grow_tables();
  [[nodiscard]] std::uint32_t level(NodeRef n) const noexcept {
    return nodes_[n].var;
  }
  void collect(NodeRef f, std::vector<NodeRef>& order,
               std::vector<bool>& seen) const;
  /// reach[n] for every n <= f: whether node n (terminals included) is
  /// reachable from f. Children are allocated before their parents, so
  /// one sweep down the arena from f marks every node before its
  /// children are read: sequential reads in place of a pointer chase.
  [[nodiscard]] std::vector<bool> reachable(NodeRef f) const;

  std::uint32_t num_vars_;
  std::vector<Node> nodes_;
  // Open-addressed unique table over arena indices (0 = empty slot) and
  // the lossy direct-mapped ite cache; both sizes are powers of two.
  std::vector<NodeRef> unique_;
  std::vector<CacheEntry> cache_;
};

}  // namespace ranm::bdd
