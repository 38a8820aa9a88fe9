// Binary (de)serialisation of a BDD function.
//
// A monitor trained in the lab ships with the vehicle, so the pattern set
// must round-trip through storage. The format is a topologically sorted
// node list (var, lo, hi) with local indices, preceded by variable count.
#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <vector>

#include "bdd/bdd.hpp"

namespace ranm::bdd {

/// Writes the sub-DAG rooted at `f` to the stream. Returns the manager
/// node for each saved local slot (slot 0 = FALSE, 1 = TRUE, then the
/// internal nodes in file order) so callers can serialise per-node
/// side-channel data — e.g. profile counters — aligned with the format.
/// Throws NodeBudgetError when the function has more than kMaxNodes nodes
/// (terminals included), which load_bdd would reject.
std::vector<NodeRef> save_bdd(std::ostream& out, const BddManager& mgr,
                              NodeRef f);

/// Result of load_bdd_nodes: the root plus the manager node each saved
/// local slot deserialised to, in file order (mirrors save_bdd's return).
struct LoadedBdd {
  NodeRef root = kFalse;
  std::vector<NodeRef> nodes;
};

/// Reads a BDD written by save_bdd into `mgr` (which must have at least as
/// many variables as the saved function's largest variable + 1) and returns
/// the root. Throws std::runtime_error on malformed input, including a node
/// count above kMaxNodes.
[[nodiscard]] NodeRef load_bdd(std::istream& in, BddManager& mgr);

/// load_bdd variant that also exposes the per-slot node mapping, for
/// loading per-node side-channel data saved alongside the BDD.
[[nodiscard]] LoadedBdd load_bdd_nodes(std::istream& in, BddManager& mgr);

}  // namespace ranm::bdd
