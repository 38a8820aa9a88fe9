#include "bdd/bdd_io.hpp"

#include <cstring>
#include <stdexcept>
#include <unordered_map>
#include <vector>

namespace ranm::bdd {
namespace {

constexpr std::uint32_t kMagic = 0x42444431U;  // "BDD1"

template <typename T>
void write_pod(std::ostream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}

template <typename T>
T read_pod(std::istream& in) {
  T v{};
  in.read(reinterpret_cast<char*>(&v), sizeof v);
  if (!in) throw std::runtime_error("load_bdd: truncated stream");
  return v;
}

void collect_post_order(const BddManager& mgr, NodeRef f,
                        std::vector<NodeRef>& order,
                        std::unordered_map<NodeRef, std::uint32_t>& index) {
  if (index.contains(f)) return;
  if (f != kFalse && f != kTrue) {
    const auto nv = mgr.view(f);
    collect_post_order(mgr, nv.lo, order, index);
    collect_post_order(mgr, nv.hi, order, index);
  }
  index.emplace(f, static_cast<std::uint32_t>(order.size()));
  order.push_back(f);
}

}  // namespace

void save_bdd(std::ostream& out, const BddManager& mgr, NodeRef f) {
  std::vector<NodeRef> order;
  std::unordered_map<NodeRef, std::uint32_t> index;
  // Terminals always occupy local slots 0 and 1.
  index.emplace(kFalse, 0);
  index.emplace(kTrue, 1);
  order.push_back(kFalse);
  order.push_back(kTrue);
  collect_post_order(mgr, f, order, index);
  if (order.size() > kMaxNodes) {
    throw NodeBudgetError("save_bdd: node count above kMaxNodes");
  }

  write_pod(out, kMagic);
  write_pod(out, mgr.num_vars());
  write_pod(out, static_cast<std::uint32_t>(order.size()));
  for (std::size_t i = 2; i < order.size(); ++i) {
    const auto nv = mgr.view(order[i]);
    write_pod(out, nv.var);
    write_pod(out, index.at(nv.lo));
    write_pod(out, index.at(nv.hi));
  }
  write_pod(out, index.at(f));
}

NodeRef load_bdd(std::istream& in, BddManager& mgr) {
  if (read_pod<std::uint32_t>(in) != kMagic) {
    throw std::runtime_error("load_bdd: bad magic");
  }
  const auto saved_vars = read_pod<std::uint32_t>(in);
  if (saved_vars > mgr.num_vars()) {
    throw std::runtime_error(
        "load_bdd: manager has fewer variables than saved BDD");
  }
  const auto count = read_pod<std::uint32_t>(in);
  if (count < 2) throw std::runtime_error("load_bdd: node count < 2");
  if (count > kMaxNodes) {
    throw std::runtime_error("load_bdd: implausible node count");
  }
  // The slot vector grows as nodes are actually read, so a corrupted count
  // cannot commit memory before the per-node reads detect truncation.
  std::vector<NodeRef> local{kFalse, kTrue};
  for (std::uint32_t i = 2; i < count; ++i) {
    const auto var = read_pod<std::uint32_t>(in);
    const auto lo = read_pod<std::uint32_t>(in);
    const auto hi = read_pod<std::uint32_t>(in);
    if (lo >= i || hi >= i) {
      throw std::runtime_error("load_bdd: forward reference");
    }
    local.push_back(mgr.make_node_checked(var, local[lo], local[hi]));
  }
  const auto root = read_pod<std::uint32_t>(in);
  if (root >= count) throw std::runtime_error("load_bdd: bad root index");
  return local[root];
}

}  // namespace ranm::bdd
