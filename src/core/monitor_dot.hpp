// Graphviz rendering of BDD-backed monitors (`ranm_cli info --dot`).
//
// Flat interval monitors (on-off is the 1-bit one) render as one digraph;
// sharded monitors render as one digraph with a subgraph cluster per shard
// (node ids prefixed s<k>_ so the shards' arenas cannot collide). Each
// internal node is labelled with its BDD variable.
#pragma once

#include <string>

#include "core/monitor.hpp"

namespace ranm {

/// Renders the monitor's BDD(s) as a graphviz digraph. Throws
/// std::invalid_argument for families without a BDD (min-max).
[[nodiscard]] std::string monitor_to_dot(const Monitor& monitor);

}  // namespace ranm
