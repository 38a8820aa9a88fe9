// Binary serialisation of networks, monitors, and datasets.
//
// Monitors built in the lab are deployed on the vehicle, so every monitor
// (and the network it watches) must round-trip through storage. The format
// is a simple tagged little-endian stream with a magic/version header; all
// loaders validate structure and throw std::runtime_error on malformed
// input.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>

#include "core/interval_monitor.hpp"
#include "core/minmax_monitor.hpp"
#include "core/sharded_monitor.hpp"
#include "data/dataset.hpp"
#include "nn/network.hpp"

namespace ranm {

// ---- networks -----------------------------------------------------------

/// Saves layer structure plus all parameters. Supported layer types:
/// Dense, Conv2D, ReLU, LeakyReLU, Sigmoid, Tanh, MaxPool2D, AvgPool2D,
/// Flatten. Throws std::invalid_argument on an unsupported layer.
void save_network(std::ostream& out, const Network& net);
[[nodiscard]] Network load_network(std::istream& in);

void save_network_file(const std::string& path, const Network& net);
[[nodiscard]] Network load_network_file(const std::string& path);

// ---- threshold specs ------------------------------------------------------

/// RTS1: magic, u64 dim, u64 bits, then the threshold table.
void save_threshold_spec(std::ostream& out, const ThresholdSpec& spec);
[[nodiscard]] ThresholdSpec load_threshold_spec(std::istream& in);

/// The threshold table's bytes, shared by RTS1 specs (and so every
/// interval and on-off monitor artifact) and RCM1 compiled units: per
/// neuron, 2^bits - 1 (f32 value, u8 inclusive flag) pairs, neuron-major.
void write_threshold_table(std::ostream& out, const ThresholdSpec& spec);
/// Reads the table of a `dim`-neuron, `bits`-bit spec. Throws
/// std::runtime_error (prefixed with `who`) on a truncated stream, an
/// oversized table, a flag other than 0 or 1, or values that do not
/// ascend strictly (NaN included).
[[nodiscard]] ThresholdSpec read_threshold_table(std::istream& in,
                                                 std::uint64_t dim,
                                                 std::uint64_t bits,
                                                 const char* who);

// ---- monitors ---------------------------------------------------------------

void save_monitor(std::ostream& out, const MinMaxMonitor& monitor);
[[nodiscard]] MinMaxMonitor load_minmax_monitor(std::istream& in);

/// Writes the on-off tag for a 1-bit spec (the on-off monitor) and the
/// interval tag otherwise; both tags load back as an IntervalMonitor, and
/// an on-off artifact whose spec is not 1 bit is refused.
void save_monitor(std::ostream& out, const IntervalMonitor& monitor);
[[nodiscard]] IntervalMonitor load_interval_monitor(std::istream& in);

/// Sharded artifact: a versioned header (magic "RSH1", format version,
/// dimension, shard count, plan strategy/seed, observation count) followed
/// by each shard's explicit neuron list and its inner monitor payload in
/// the legacy single-monitor format. The plan's stored neuron lists are
/// authoritative on load, so artifacts survive strategy changes, and
/// save -> load -> save round-trips byte-identically. Inner monitors must
/// be of the serialisable families above.
void save_monitor(std::ostream& out, const ShardedMonitor& monitor);
[[nodiscard]] ShardedMonitor load_sharded_monitor(std::istream& in);

/// Type-erased save: dispatches on the monitor's dynamic type.
/// Supported: MinMaxMonitor, IntervalMonitor (on-off included),
/// ShardedMonitor, and compile::CompiledMonitor (as an RCM1 artifact).
/// Throws std::invalid_argument for other types (BoxClusterMonitor is a
/// baseline that only deploys in compiled form).
void save_any_monitor(std::ostream& out, const Monitor& monitor);
/// Type-erased load: returns whichever monitor type the stream contains
/// (legacy single-shard streams, sharded artifacts, and compiled RCM1
/// artifacts all load).
[[nodiscard]] std::unique_ptr<Monitor> load_any_monitor(std::istream& in);

// ---- datasets ---------------------------------------------------------------

void save_dataset(std::ostream& out, const Dataset& ds);
[[nodiscard]] Dataset load_dataset(std::istream& in);

}  // namespace ranm
