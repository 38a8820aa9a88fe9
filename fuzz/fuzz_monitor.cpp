// libFuzzer harness for the type-erased monitor loader — the widest
// untrusted-input surface in the repo. One byte stream may dispatch into
// any artifact family: legacy flat monitors (min-max, and interval
// monitors under the on-off tag at 1 bit or the interval tag otherwise;
// an on-off tag over a wider spec is refused), sharded RSH1 artifacts
// (per-shard neuron lists + nested flat payloads), and compiled RCM1
// artifacts (box/cube/BDD programs). The corpus also
// keeps the retired V2 bodies (custom variable order, profile counts)
// and their mutants, which the loader must now refuse cleanly.
//
// Invariant: load_any_monitor either throws cleanly, or yields a monitor
// whose save -> load -> save is byte-identical (the serialisers are
// deterministic, so double serialisation is a structural-equality
// probe). Anything else — crash, hang, overcommit, unstable bytes — is a
// finding.
#include <cstddef>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>

#include "core/monitor.hpp"
#include "io/serialize.hpp"

#include "fuzz_util.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  std::istringstream in(
      std::string(reinterpret_cast<const char*>(data), size));
  std::unique_ptr<ranm::Monitor> monitor;
  try {
    monitor = ranm::load_any_monitor(in);
  } catch (const std::exception&) {
    return 0;  // clean rejection is the expected path for hostile bytes
  }
  ranm::fuzz::require(monitor != nullptr, "fuzz_monitor",
                      "loader returned null without throwing");
  ranm::fuzz::require(monitor->dimension() > 0, "fuzz_monitor",
                      "loaded monitor has dimension 0");

  // From here on, throwing IS the bug: a monitor that loaded must both
  // serialise and round-trip stably.
  std::ostringstream first;
  ranm::save_any_monitor(first, *monitor);
  std::istringstream again(first.str());
  const std::unique_ptr<ranm::Monitor> reloaded =
      ranm::load_any_monitor(again);
  std::ostringstream second;
  ranm::save_any_monitor(second, *reloaded);
  ranm::fuzz::require(first.str() == second.str(), "fuzz_monitor",
                      "save -> load -> save is not byte-identical");
  return 0;
}
