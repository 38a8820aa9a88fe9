#include "core/monitor_dot.hpp"

#include <sstream>
#include <stdexcept>
#include <vector>

#include "bdd/bdd.hpp"
#include "core/interval_monitor.hpp"
#include "core/sharded_monitor.hpp"

namespace ranm {
namespace {

/// Reachable nodes of `root` in deterministic (discovery) order.
std::vector<bdd::NodeRef> reachable(const bdd::BddManager& mgr,
                                    bdd::NodeRef root) {
  std::vector<bdd::NodeRef> order;
  std::vector<bool> seen(mgr.arena_size(), false);
  std::vector<bdd::NodeRef> stack{root};
  while (!stack.empty()) {
    const bdd::NodeRef n = stack.back();
    stack.pop_back();
    if (seen[n]) continue;
    seen[n] = true;
    order.push_back(n);
    if (n != bdd::kFalse && n != bdd::kTrue) {
      const auto v = mgr.view(n);
      stack.push_back(v.hi);
      stack.push_back(v.lo);
    }
  }
  return order;
}

/// Emits one BDD's nodes and edges with every node id prefixed; labels
/// match BddManager::to_dot.
void emit_bdd(std::ostringstream& out, const bdd::BddManager& mgr,
              bdd::NodeRef root, const std::string& prefix,
              const std::string& indent) {
  out << indent << prefix << "0 [label=\"0\", shape=box];\n";
  out << indent << prefix << "1 [label=\"1\", shape=box];\n";
  for (const bdd::NodeRef n : reachable(mgr, root)) {
    if (n == bdd::kFalse || n == bdd::kTrue) continue;
    const auto v = mgr.view(n);
    out << indent << prefix << n << " [label=\"x" << v.var << "\"];\n";
    out << indent << prefix << n << " -> " << prefix << v.lo
        << " [style=dashed];\n";
    out << indent << prefix << n << " -> " << prefix << v.hi << ";\n";
  }
}

}  // namespace

std::string monitor_to_dot(const Monitor& monitor) {
  if (const auto* iv = dynamic_cast<const IntervalMonitor*>(&monitor)) {
    return iv->manager().to_dot(iv->root());
  }
  const auto* sm = dynamic_cast<const ShardedMonitor*>(&monitor);
  if (sm == nullptr) {
    throw std::invalid_argument(
        "monitor_to_dot: monitor family has no BDD to render: " +
        monitor.describe());
  }
  std::ostringstream out;
  out << "digraph bdd {\n";
  for (std::size_t s = 0; s < sm->shard_count(); ++s) {
    const auto* iv = dynamic_cast<const IntervalMonitor*>(&sm->shard(s));
    if (iv == nullptr) {
      throw std::invalid_argument(
          "monitor_to_dot: sharded monitor's inner family has no BDD: " +
          sm->shard(s).describe());
    }
    out << "  subgraph cluster_s" << s << " {\n";
    out << "    label=\"shard " << s << "\";\n";
    std::string prefix = "s";
    prefix += std::to_string(s);
    prefix += "_n";
    emit_bdd(out, iv->manager(), iv->root(), prefix, "    ");
    out << "  }\n";
  }
  out << "}\n";
  return out.str();
}

}  // namespace ranm
