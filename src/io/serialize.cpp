#include "io/serialize.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bdd/bdd_io.hpp"
#include "compile/compiled_io.hpp"
#include "io/wire.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/flatten.hpp"
#include "nn/normalization.hpp"
#include "nn/pooling.hpp"

namespace ranm {
namespace {

constexpr std::uint32_t kNetMagic = 0x524E4E31U;    // "RNN1"
constexpr std::uint32_t kSpecMagic = 0x52545331U;   // "RTS1"
constexpr std::uint32_t kMonMagic = 0x524D4F31U;    // "RMO1"
constexpr std::uint32_t kShardMagic = 0x52534831U;  // "RSH1"
constexpr std::uint32_t kDataMagic = 0x52445331U;   // "RDS1"

/// Format version of the sharded artifact (header + per-shard payloads).
constexpr std::uint32_t kShardVersion = 1;

enum class LayerTag : std::uint32_t {
  kDense = 1,
  kConv2D = 2,
  kReLU = 3,
  kLeakyReLU = 4,
  kSigmoid = 5,
  kTanh = 6,
  kMaxPool2D = 7,
  kAvgPool2D = 8,
  kFlatten = 9,
  kNormalization = 10,
};

enum class MonitorTag : std::uint32_t {
  kMinMax = 1,
  // Both BDD tags hold an IntervalMonitor body. The tag written is a
  // function of the spec width (kOnOff iff 1 bit), so on-off artifacts
  // keep the tag and bytes that earlier loaders read.
  kOnOff = 2,
  kInterval = 3,
  // Retired: bodies with a custom variable order or per-node profile
  // counts, written by the removed `ranm_cli optimize`. Recognised only
  // to refuse them with a clear message.
  kOnOffV2 = 4,
  kIntervalV2 = 5,
};

// The bounded little-endian primitives live in io/wire.hpp, shared with
// the serving frame protocol; the loaders below are written against them.
using io::bounded_numel;
using io::kMaxMonitorDim;
using io::read_dim_u64;
using io::read_pod;
using io::read_shape;
using io::read_tensor;
using io::read_u64;
using io::write_pod;
using io::write_shape;
using io::write_tensor;
using io::write_u64;

void copy_params(Layer& layer, std::istream& in) {
  for (Tensor* p : layer.parameters()) {
    Tensor loaded = read_tensor(in);
    if (loaded.shape() != p->shape()) {
      throw std::runtime_error("ranm::io: parameter shape mismatch");
    }
    *p = std::move(loaded);
  }
}

}  // namespace

void save_network(std::ostream& out, const Network& net) {
  write_pod(out, kNetMagic);
  write_u64(out, net.num_layers());
  for (std::size_t k = 1; k <= net.num_layers(); ++k) {
    const Layer& layer = net.layer(k);
    if (auto* d = dynamic_cast<const Dense*>(&layer)) {
      write_pod(out, LayerTag::kDense);
      write_u64(out, d->input_size());
      write_u64(out, d->output_size());
      write_tensor(out, d->weights());
      write_tensor(out, d->bias());
    } else if (auto* c = dynamic_cast<const Conv2D*>(&layer)) {
      write_pod(out, LayerTag::kConv2D);
      const Conv2D::Config& cfg = c->config();
      write_u64(out, cfg.in_channels);
      write_u64(out, cfg.in_height);
      write_u64(out, cfg.in_width);
      write_u64(out, cfg.out_channels);
      write_u64(out, cfg.kernel_h);
      write_u64(out, cfg.kernel_w);
      write_u64(out, cfg.stride);
      write_u64(out, cfg.padding);
      write_tensor(out, c->weights());
      write_tensor(out, c->bias());
    } else if (dynamic_cast<const ReLU*>(&layer)) {
      write_pod(out, LayerTag::kReLU);
      write_shape(out, layer.input_shape());
    } else if (auto* lr = dynamic_cast<const LeakyReLU*>(&layer)) {
      write_pod(out, LayerTag::kLeakyReLU);
      write_shape(out, layer.input_shape());
      write_pod(out, lr->alpha());
    } else if (dynamic_cast<const Sigmoid*>(&layer)) {
      write_pod(out, LayerTag::kSigmoid);
      write_shape(out, layer.input_shape());
    } else if (dynamic_cast<const Tanh*>(&layer)) {
      write_pod(out, LayerTag::kTanh);
      write_shape(out, layer.input_shape());
    } else if (auto* mp = dynamic_cast<const MaxPool2D*>(&layer)) {
      write_pod(out, LayerTag::kMaxPool2D);
      const Pooling::Config& cfg = mp->config();
      write_u64(out, cfg.channels);
      write_u64(out, cfg.in_height);
      write_u64(out, cfg.in_width);
      write_u64(out, cfg.window);
      write_u64(out, cfg.stride);
    } else if (auto* ap = dynamic_cast<const AvgPool2D*>(&layer)) {
      write_pod(out, LayerTag::kAvgPool2D);
      const Pooling::Config& cfg = ap->config();
      write_u64(out, cfg.channels);
      write_u64(out, cfg.in_height);
      write_u64(out, cfg.in_width);
      write_u64(out, cfg.window);
      write_u64(out, cfg.stride);
    } else if (dynamic_cast<const Flatten*>(&layer)) {
      write_pod(out, LayerTag::kFlatten);
      write_shape(out, layer.input_shape());
    } else if (auto* nz = dynamic_cast<const Normalization*>(&layer)) {
      write_pod(out, LayerTag::kNormalization);
      write_shape(out, layer.input_shape());
      for (float v : nz->mean()) write_pod(out, v);
      for (float v : nz->inv_std()) write_pod(out, v);
    } else {
      throw std::invalid_argument("save_network: unsupported layer " +
                                  layer.name());
    }
  }
}

Network load_network(std::istream& in) {
  if (read_pod<std::uint32_t>(in) != kNetMagic) {
    throw std::runtime_error("load_network: bad magic");
  }
  const std::uint64_t n = read_u64(in);
  Network net;
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto tag = read_pod<LayerTag>(in);
    switch (tag) {
      case LayerTag::kDense: {
        const auto din = static_cast<std::size_t>(read_dim_u64(in));
        const auto dout = static_cast<std::size_t>(read_dim_u64(in));
        (void)bounded_numel({din, dout});  // weight matrix allocation bound
        auto& layer = net.emplace<Dense>(din, dout);
        copy_params(layer, in);
        break;
      }
      case LayerTag::kReLU: {
        auto& layer = net.emplace<ReLU>(read_shape(in));
        copy_params(layer, in);
        break;
      }
      case LayerTag::kLeakyReLU: {
        Shape shape = read_shape(in);
        const float alpha = read_pod<float>(in);
        auto& layer = net.emplace<LeakyReLU>(std::move(shape), alpha);
        copy_params(layer, in);
        break;
      }
      case LayerTag::kSigmoid: {
        auto& layer = net.emplace<Sigmoid>(read_shape(in));
        copy_params(layer, in);
        break;
      }
      case LayerTag::kTanh: {
        auto& layer = net.emplace<Tanh>(read_shape(in));
        copy_params(layer, in);
        break;
      }
      case LayerTag::kFlatten: {
        auto& layer = net.emplace<Flatten>(read_shape(in));
        copy_params(layer, in);
        break;
      }
      case LayerTag::kConv2D: {
        Conv2D::Config cfg;
        cfg.in_channels = static_cast<std::size_t>(read_dim_u64(in));
        cfg.in_height = static_cast<std::size_t>(read_dim_u64(in));
        cfg.in_width = static_cast<std::size_t>(read_dim_u64(in));
        cfg.out_channels = static_cast<std::size_t>(read_dim_u64(in));
        cfg.kernel_h = static_cast<std::size_t>(read_dim_u64(in));
        cfg.kernel_w = static_cast<std::size_t>(read_dim_u64(in));
        cfg.stride = static_cast<std::size_t>(read_dim_u64(in));
        cfg.padding = static_cast<std::size_t>(read_dim_u64(in));
        (void)bounded_numel({cfg.out_channels, cfg.in_channels, cfg.kernel_h,
                             cfg.kernel_w});  // weight allocation bound
        (void)bounded_numel({cfg.in_channels, cfg.in_height, cfg.in_width});
        auto& layer = net.emplace<Conv2D>(cfg);
        copy_params(layer, in);
        break;
      }
      case LayerTag::kNormalization: {
        Shape shape = read_shape(in);
        const std::size_t count = shape_numel(shape);
        if (count == 0 || count > io::kMaxMonitorDim) {
          throw std::runtime_error("load_network: implausible layer size");
        }
        std::vector<float> mean(count), inv_std(count);
        for (auto& v : mean) v = read_pod<float>(in);
        for (auto& v : inv_std) v = read_pod<float>(in);
        try {
          copy_params(net.emplace<Normalization>(std::move(shape),
                                                 std::move(mean),
                                                 std::move(inv_std)),
                      in);
        } catch (const std::invalid_argument& e) {
          throw std::runtime_error(std::string("load_network: ") + e.what());
        }
        break;
      }
      case LayerTag::kMaxPool2D:
      case LayerTag::kAvgPool2D: {
        Pooling::Config cfg;
        cfg.channels = static_cast<std::size_t>(read_dim_u64(in));
        cfg.in_height = static_cast<std::size_t>(read_dim_u64(in));
        cfg.in_width = static_cast<std::size_t>(read_dim_u64(in));
        cfg.window = static_cast<std::size_t>(read_dim_u64(in));
        cfg.stride = static_cast<std::size_t>(read_dim_u64(in));
        (void)bounded_numel({cfg.channels, cfg.in_height, cfg.in_width});
        if (tag == LayerTag::kMaxPool2D) {
          copy_params(net.emplace<MaxPool2D>(cfg), in);
        } else {
          copy_params(net.emplace<AvgPool2D>(cfg), in);
        }
        break;
      }
      default:
        throw std::runtime_error("load_network: unsupported layer tag");
    }
  }
  return net;
}

void save_network_file(const std::string& path, const Network& net) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("save_network_file: cannot open " + path);
  save_network(out, net);
}

Network load_network_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_network_file: cannot open " + path);
  return load_network(in);
}

void write_threshold_table(std::ostream& out, const ThresholdSpec& spec) {
  const auto values = spec.values();
  const auto inclusive = spec.inclusive();
  for (std::size_t k = 0; k < values.size(); ++k) {
    write_pod(out, values[k]);
    write_pod(out, inclusive[k]);
  }
}

ThresholdSpec read_threshold_table(std::istream& in, std::uint64_t dim,
                                   std::uint64_t bits, const char* who) {
  if (bits == 0 || bits > 16) {
    throw std::runtime_error(std::string(who) + ": implausible coding bits");
  }
  const std::uint64_t numel = bounded_numel({dim, (1ULL << bits) - 1});
  // Grown as the pairs arrive, so a truncated stream fails before a
  // hostile header's whole table is allocated.
  std::vector<float> values;
  std::vector<std::uint8_t> inclusive;
  for (std::uint64_t k = 0; k < numel; ++k) {
    values.push_back(read_pod<float>(in));
    inclusive.push_back(read_pod<std::uint8_t>(in));
  }
  try {
    return ThresholdSpec(static_cast<std::size_t>(bits), std::move(values),
                         std::move(inclusive));
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string(who) + ": " + e.what());
  }
}

void save_threshold_spec(std::ostream& out, const ThresholdSpec& spec) {
  write_pod(out, kSpecMagic);
  write_u64(out, spec.dimension());
  write_u64(out, spec.bits());
  write_threshold_table(out, spec);
}

ThresholdSpec load_threshold_spec(std::istream& in) {
  if (read_pod<std::uint32_t>(in) != kSpecMagic) {
    throw std::runtime_error("load_threshold_spec: bad magic");
  }
  const std::uint64_t dim = read_u64(in);
  if (dim == 0 || dim > kMaxMonitorDim) {
    throw std::runtime_error("load_threshold_spec: implausible header");
  }
  return read_threshold_table(in, dim, read_u64(in), "load_threshold_spec");
}

void save_monitor(std::ostream& out, const MinMaxMonitor& monitor) {
  write_pod(out, kMonMagic);
  write_pod(out, MonitorTag::kMinMax);
  write_u64(out, monitor.dimension());
  write_u64(out, monitor.observation_count());
  for (std::size_t j = 0; j < monitor.dimension(); ++j) {
    write_pod(out, monitor.lower(j));
    write_pod(out, monitor.upper(j));
  }
}

namespace {

MinMaxMonitor load_minmax_body(std::istream& in) {
  const auto dim = static_cast<std::size_t>(read_u64(in));
  // Guard before the vector allocations below: a corrupted dimension field
  // would otherwise zero-fill gigabytes (Linux overcommit makes the
  // allocation itself succeed) and hang instead of failing loudly.
  if (dim > kMaxMonitorDim) {
    throw std::runtime_error("load_minmax_monitor: implausible dimension");
  }
  const auto count = static_cast<std::size_t>(read_u64(in));
  std::vector<float> lower(dim), upper(dim);
  for (std::size_t j = 0; j < dim; ++j) {
    lower[j] = read_pod<float>(in);
    upper[j] = read_pod<float>(in);
  }
  return MinMaxMonitor::from_bounds(std::move(lower), std::move(upper),
                                    count);
}

/// Body of a kOnOff or kInterval artifact; `tag` is the one read.
IntervalMonitor load_interval_body(std::istream& in, MonitorTag tag) {
  ThresholdSpec spec = load_threshold_spec(in);
  if (tag == MonitorTag::kOnOff && spec.bits() != 1) {
    throw std::runtime_error(
        "load monitor: on-off artifact with a multi-bit threshold spec");
  }
  IntervalMonitor monitor(std::move(spec));
  monitor.set_root(bdd::load_bdd(in, monitor.manager()));
  return monitor;
}

/// Reads a monitor tag, refusing the retired V2 tags.
MonitorTag read_monitor_tag(std::istream& in) {
  const auto tag = read_pod<MonitorTag>(in);
  if (tag == MonitorTag::kOnOffV2 || tag == MonitorTag::kIntervalV2) {
    throw std::runtime_error(
        "load monitor: artifacts with a custom variable order or profile "
        "counts (written by `ranm_cli optimize`) are no longer supported; "
        "rebuild the monitor");
  }
  return tag;
}

MonitorTag read_monitor_header(std::istream& in) {
  if (read_pod<std::uint32_t>(in) != kMonMagic) {
    throw std::runtime_error("load monitor: bad magic");
  }
  return read_monitor_tag(in);
}

/// Tag-dispatched body of a legacy single-monitor stream (the kMonMagic
/// header word has already been consumed). The single switch serving
/// every flat-monitor entry point.
std::unique_ptr<Monitor> load_tagged_monitor_body(std::istream& in) {
  switch (const MonitorTag tag = read_monitor_tag(in)) {
    case MonitorTag::kMinMax:
      return std::make_unique<MinMaxMonitor>(load_minmax_body(in));
    case MonitorTag::kOnOff:
    case MonitorTag::kInterval:
      return std::make_unique<IntervalMonitor>(load_interval_body(in, tag));
    default:
      break;
  }
  throw std::runtime_error("load monitor: unknown monitor tag");
}

/// Loads one legacy single-monitor stream (magic + tag + body). Shard
/// payloads go through this too, so a corrupted sharded artifact cannot
/// recurse into nested sharded headers.
std::unique_ptr<Monitor> load_flat_monitor(std::istream& in) {
  if (read_pod<std::uint32_t>(in) != kMonMagic) {
    throw std::runtime_error("load monitor: bad magic");
  }
  return load_tagged_monitor_body(in);
}

ShardedMonitor load_sharded_body(std::istream& in) {
  if (read_pod<std::uint32_t>(in) != kShardVersion) {
    throw std::runtime_error("load_sharded_monitor: unsupported version");
  }
  const auto dim = static_cast<std::size_t>(read_u64(in));
  const auto shard_count = static_cast<std::size_t>(read_u64(in));
  // Bound both before any per-shard allocation: the neuron-id vectors
  // below are sized from these fields. The shard cap is far above any
  // real deployment but keeps a corrupted header from provoking a
  // half-gigabyte vector-of-vectors allocation up front.
  if (dim == 0 || dim > io::kMaxMonitorDim || shard_count == 0 ||
      shard_count > dim || shard_count > 4096) {
    throw std::runtime_error("load_sharded_monitor: implausible header");
  }
  const auto strategy_raw = read_pod<std::uint32_t>(in);
  if (strategy_raw > std::uint32_t(ShardStrategy::kShuffled)) {
    throw std::runtime_error("load_sharded_monitor: unknown strategy");
  }
  const std::uint64_t seed = read_u64(in);
  const auto observations = static_cast<std::size_t>(read_u64(in));

  std::vector<std::vector<std::uint32_t>> groups(shard_count);
  std::vector<std::unique_ptr<Monitor>> shards;
  shards.reserve(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    const auto count = static_cast<std::size_t>(read_u64(in));
    if (count == 0 || count > dim) {
      throw std::runtime_error("load_sharded_monitor: implausible shard");
    }
    groups[s].resize(count);
    for (auto& j : groups[s]) j = read_pod<std::uint32_t>(in);
    shards.push_back(load_flat_monitor(in));
  }
  // ShardPlan validates the partition; the ShardedMonitor constructor
  // validates per-shard monitor dimensions. Report both as stream errors.
  try {
    ShardPlan plan = ShardPlan::from_groups(
        dim, std::move(groups), ShardStrategy(strategy_raw), seed);
    return ShardedMonitor(std::move(plan), std::move(shards), observations);
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("load_sharded_monitor: ") +
                             e.what());
  }
}

}  // namespace

MinMaxMonitor load_minmax_monitor(std::istream& in) {
  if (read_monitor_header(in) != MonitorTag::kMinMax) {
    throw std::runtime_error("load_minmax_monitor: bad header");
  }
  return load_minmax_body(in);
}

void save_monitor(std::ostream& out, const IntervalMonitor& monitor) {
  write_pod(out, kMonMagic);
  write_pod(out,
            monitor.bits() == 1 ? MonitorTag::kOnOff : MonitorTag::kInterval);
  save_threshold_spec(out, monitor.spec());
  bdd::save_bdd(out, monitor.manager(), monitor.root());
}

IntervalMonitor load_interval_monitor(std::istream& in) {
  const MonitorTag tag = read_monitor_header(in);
  if (tag != MonitorTag::kOnOff && tag != MonitorTag::kInterval) {
    throw std::runtime_error("load_interval_monitor: bad header");
  }
  return load_interval_body(in, tag);
}

void save_monitor(std::ostream& out, const ShardedMonitor& monitor) {
  const ShardPlan& plan = monitor.plan();
  // Reject unsupported shapes before the first byte goes out, so a
  // failed save cannot leave a truncated artifact behind.
  for (std::size_t s = 0; s < plan.shard_count(); ++s) {
    if (dynamic_cast<const ShardedMonitor*>(&monitor.shard(s)) != nullptr) {
      throw std::invalid_argument(
          "save_monitor: nested sharded monitors are not serialisable");
    }
  }
  write_pod(out, kShardMagic);
  write_pod(out, kShardVersion);
  write_u64(out, plan.dimension());
  write_u64(out, plan.shard_count());
  write_pod(out, std::uint32_t(plan.strategy()));
  write_u64(out, plan.seed());
  write_u64(out, monitor.observation_count());
  for (std::size_t s = 0; s < plan.shard_count(); ++s) {
    const auto neurons = plan.neurons(s);
    write_u64(out, neurons.size());
    for (const std::uint32_t j : neurons) write_pod(out, j);
    save_any_monitor(out, monitor.shard(s));
  }
}

ShardedMonitor load_sharded_monitor(std::istream& in) {
  if (read_pod<std::uint32_t>(in) != kShardMagic) {
    throw std::runtime_error("load_sharded_monitor: bad magic");
  }
  return load_sharded_body(in);
}

void save_any_monitor(std::ostream& out, const Monitor& monitor) {
  if (const auto* mm = dynamic_cast<const MinMaxMonitor*>(&monitor)) {
    save_monitor(out, *mm);
  } else if (const auto* iv =
                 dynamic_cast<const IntervalMonitor*>(&monitor)) {
    save_monitor(out, *iv);
  } else if (const auto* sh =
                 dynamic_cast<const ShardedMonitor*>(&monitor)) {
    save_monitor(out, *sh);
  } else if (const auto* cm =
                 dynamic_cast<const compile::CompiledMonitor*>(&monitor)) {
    compile::save_compiled_monitor(out, *cm);
  } else {
    throw std::invalid_argument("save_any_monitor: unsupported type " +
                                monitor.describe());
  }
}

std::unique_ptr<Monitor> load_any_monitor(std::istream& in) {
  const auto magic = read_pod<std::uint32_t>(in);
  if (magic == kShardMagic) {
    return std::make_unique<ShardedMonitor>(load_sharded_body(in));
  }
  if (magic == compile::kCompiledMagic) {
    return std::make_unique<compile::CompiledMonitor>(
        compile::load_compiled_body(in));
  }
  if (magic != kMonMagic) {
    throw std::runtime_error("load_any_monitor: bad magic");
  }
  return load_tagged_monitor_body(in);
}

void save_dataset(std::ostream& out, const Dataset& ds) {
  write_pod(out, kDataMagic);
  write_u64(out, ds.size());
  for (std::size_t i = 0; i < ds.size(); ++i) {
    write_tensor(out, ds.inputs[i]);
    write_tensor(out, ds.targets[i]);
  }
}

Dataset load_dataset(std::istream& in) {
  if (read_pod<std::uint32_t>(in) != kDataMagic) {
    throw std::runtime_error("load_dataset: bad magic");
  }
  const std::uint64_t n = read_u64(in);
  Dataset ds;
  // Cap the up-front reservation: `n` is attacker/corruption-controlled and a
  // huge value must fail on the first short tensor read, not on reserve().
  const auto reserve_n = static_cast<std::size_t>(std::min<std::uint64_t>(n, 1U << 16));
  ds.inputs.reserve(reserve_n);
  ds.targets.reserve(reserve_n);
  for (std::uint64_t i = 0; i < n; ++i) {
    ds.inputs.push_back(read_tensor(in));
    ds.targets.push_back(read_tensor(in));
  }
  return ds;
}

}  // namespace ranm
