#include "compile/compiled_io.hpp"

#include <istream>
#include <ostream>
#include <stdexcept>

#include "io/serialize.hpp"
#include "io/wire.hpp"

namespace ranm::compile {
namespace {

constexpr std::uint32_t kCompiledVersion = 1;
constexpr std::uint64_t kMaxSourceLen = 256;
constexpr std::uint64_t kMaxShards = 4096;

using io::bounded_numel;
using io::read_dim_u64;
using io::read_pod;
using io::read_string;
using io::read_u32;
using io::read_u64;
using io::write_pod;
using io::write_string;
using io::write_u32;
using io::write_u64;

[[noreturn]] void fail(const char* what) {
  throw std::runtime_error(std::string("load_compiled_monitor: ") + what);
}

void save_unit(std::ostream& out, const CompiledUnit& unit) {
  write_u32(out, std::uint32_t(unit.kind));
  write_u64(out, unit.dimension());
  switch (unit.kind) {
    case ProgramKind::kBox: {
      const BoxProgram& p = unit.box;
      write_u64(out, p.num_boxes);
      write_pod(out, std::uint8_t(p.reject_nan ? 1 : 0));
      for (const float v : p.lo) write_pod(out, v);
      for (const float v : p.hi) write_pod(out, v);
      return;
    }
    case ProgramKind::kCube:
    case ProgramKind::kBdd: {
      write_u64(out, unit.coding->bits());
      write_threshold_table(out, *unit.coding);
      if (unit.kind == ProgramKind::kCube) {
        const CubeProgram& p = unit.cube;
        const std::size_t W = unit.coding->num_words();
        write_u64(out, p.num_cubes);
        for (std::size_t c = 0; c < p.num_cubes; ++c) {
          for (std::size_t w = 0; w < W; ++w) {
            write_u64(out, p.mask[c * W + w]);
          }
          for (std::size_t w = 0; w < W; ++w) {
            write_u64(out, p.value[c * W + w]);
          }
        }
      } else {
        const BddProgram& p = unit.bdd;
        write_u64(out, p.nodes.size());
        write_u32(out, p.root);
        for (const FlatBddNode& nd : p.nodes) {
          write_u32(out, nd.var);
          write_u32(out, nd.child[0]);
          write_u32(out, nd.child[1]);
        }
      }
      return;
    }
  }
  throw std::invalid_argument("save_compiled_monitor: corrupt program kind");
}

CompiledUnit load_unit(std::istream& in, std::uint64_t expected_dim) {
  const std::uint32_t kind_raw = read_u32(in);
  const std::uint64_t dim = read_dim_u64(in);
  if (dim == 0 || dim != expected_dim) fail("unit dimension mismatch");
  CompiledUnit unit;
  switch (kind_raw) {
    case std::uint32_t(ProgramKind::kBox): {
      unit.kind = ProgramKind::kBox;
      BoxProgram& p = unit.box;
      p.dim = static_cast<std::size_t>(dim);
      const std::uint64_t num_boxes = read_dim_u64(in);
      p.num_boxes = static_cast<std::size_t>(num_boxes);
      p.reject_nan = read_pod<std::uint8_t>(in) != 0;
      const std::uint64_t numel = bounded_numel({num_boxes, dim});
      p.lo.resize(static_cast<std::size_t>(numel));
      p.hi.resize(static_cast<std::size_t>(numel));
      for (auto& v : p.lo) v = read_pod<float>(in);
      for (auto& v : p.hi) v = read_pod<float>(in);
      break;
    }
    case std::uint32_t(ProgramKind::kCube): {
      unit.kind = ProgramKind::kCube;
      unit.coding = read_threshold_table(in, dim, read_u64(in),
                                         "load_compiled_monitor");
      CubeProgram& p = unit.cube;
      // W derives from the coding table, never from the stream — one
      // fewer field that could disagree with the allocation size.
      const std::size_t W = unit.coding->num_words();
      const std::uint64_t num_cubes = read_dim_u64(in);
      p.num_cubes = static_cast<std::size_t>(num_cubes);
      const std::uint64_t numel = bounded_numel({num_cubes, W});
      p.mask.resize(static_cast<std::size_t>(numel));
      p.value.resize(static_cast<std::size_t>(numel));
      for (std::size_t c = 0; c < p.num_cubes; ++c) {
        for (std::size_t w = 0; w < W; ++w) {
          p.mask[c * W + w] = read_u64(in);
        }
        for (std::size_t w = 0; w < W; ++w) {
          p.value[c * W + w] = read_u64(in);
        }
      }
      break;
    }
    case std::uint32_t(ProgramKind::kBdd): {
      unit.kind = ProgramKind::kBdd;
      unit.coding = read_threshold_table(in, dim, read_u64(in),
                                         "load_compiled_monitor");
      BddProgram& p = unit.bdd;
      const std::uint64_t node_count = read_dim_u64(in);
      const std::uint64_t num_vars = unit.coding->num_vars();
      p.root = read_u32(in);
      if (p.root >= 2 && std::uint64_t(p.root) - 2 >= node_count) {
        fail("bdd root out of range");
      }
      p.nodes.resize(static_cast<std::size_t>(node_count));
      for (std::size_t i = 0; i < p.nodes.size(); ++i) {
        FlatBddNode& nd = p.nodes[i];
        nd.var = read_u32(in);
        nd.child[0] = read_u32(in);
        nd.child[1] = read_u32(in);
        if (nd.var >= num_vars) fail("bdd node variable out of range");
        const std::uint32_t self = static_cast<std::uint32_t>(i) + 2;
        for (const std::uint32_t c : {nd.child[0], nd.child[1]}) {
          // Terminals aside, children must point strictly forward: this
          // is the invariant that makes every evaluation walk terminate,
          // so the loader re-establishes it instead of trusting the
          // writer.
          if (c >= 2 && (c <= self || std::uint64_t(c) - 2 >= node_count)) {
            fail("bdd child ref breaks topological order");
          }
        }
      }
      break;
    }
    default:
      fail("unknown program kind");
  }
  unit.finalize();
  return unit;
}

}  // namespace

void save_compiled_monitor(std::ostream& out,
                           const CompiledMonitor& monitor) {
  write_pod(out, kCompiledMagic);
  write_u32(out, kCompiledVersion);
  write_u64(out, monitor.dimension());
  write_u64(out, monitor.shard_count());
  // Provenance is display-only; clamp instead of failing the save.
  std::string source = monitor.source();
  if (source.size() > kMaxSourceLen) source.resize(kMaxSourceLen);
  write_string(out, source);
  for (const Shard& sh : monitor.shards()) {
    write_u64(out, sh.neurons.size());
    for (const std::uint32_t j : sh.neurons) write_u32(out, j);
    save_unit(out, sh.unit);
  }
}

CompiledMonitor load_compiled_body(std::istream& in) {
  if (read_u32(in) != kCompiledVersion) fail("unsupported version");
  const std::uint64_t dim = read_dim_u64(in);
  const std::uint64_t shard_count = read_u64(in);
  if (dim == 0 || shard_count == 0 || shard_count > kMaxShards ||
      shard_count > dim) {
    fail("implausible header");
  }
  std::string source = read_string(in, kMaxSourceLen);
  auto shards =
      std::make_shared<Program>(static_cast<std::size_t>(shard_count));
  for (Shard& sh : *shards) {
    const std::uint64_t neuron_count = read_dim_u64(in);
    if (neuron_count > dim) fail("implausible shard neuron count");
    if (neuron_count == 0 && shard_count != 1) {
      fail("identity shard in a multi-shard artifact");
    }
    sh.neurons.resize(static_cast<std::size_t>(neuron_count));
    for (auto& j : sh.neurons) {
      j = read_u32(in);
      if (j >= dim) fail("shard neuron id out of range");
    }
    sh.unit = load_unit(in, neuron_count == 0 ? dim : neuron_count);
  }
  try {
    return CompiledMonitor(static_cast<std::size_t>(dim), std::move(source),
                           std::move(shards));
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("load_compiled_monitor: ") +
                             e.what());
  }
}

CompiledMonitor load_compiled_monitor(std::istream& in) {
  if (read_u32(in) != kCompiledMagic) fail("bad magic");
  return load_compiled_body(in);
}

}  // namespace ranm::compile
