// Binary (de)serialisation of a BDD function.
//
// A monitor trained in the lab ships with the vehicle, so the pattern set
// must round-trip through storage. The format is a topologically sorted
// node list (var, lo, hi) with local indices, preceded by variable count.
#pragma once

#include <cstdint>
#include <istream>
#include <ostream>

#include "bdd/bdd.hpp"

namespace ranm::bdd {

/// Writes the sub-DAG rooted at `f` to the stream. Throws NodeBudgetError
/// when the function has more than kMaxNodes nodes (terminals included),
/// which load_bdd would reject.
void save_bdd(std::ostream& out, const BddManager& mgr, NodeRef f);

/// Reads a BDD written by save_bdd into `mgr` (which must have at least as
/// many variables as the saved function's largest variable + 1) and returns
/// the root. Throws std::runtime_error on malformed input, including a node
/// count above kMaxNodes.
[[nodiscard]] NodeRef load_bdd(std::istream& in, BddManager& mgr);

}  // namespace ranm::bdd
