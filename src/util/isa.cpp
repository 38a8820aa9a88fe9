#include "util/isa.hpp"

#include <atomic>
#include <stdexcept>
#include <string>

namespace ranm {
namespace {

Isa detect() noexcept {
#if RANM_KERNEL_DISPATCH
  // libgcc and compiler-rt report a feature only when the OS also saves
  // its register state (XCR0), so a level found here is usable.
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512vl")) {
    return Isa::kAvx512;
  }
  if (__builtin_cpu_supports("avx2")) return Isa::kAvx2;
#endif
  return Isa::kBaseline;
}

/// The ScopedKernelIsa level, or -1 for none.
std::atomic<int> g_forced{-1};

}  // namespace

std::string_view isa_name(Isa level) noexcept {
  switch (level) {
    case Isa::kBaseline:
      return "baseline";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512";
  }
  return "?";
}

Isa cpu_isa() noexcept {
  static const Isa level = detect();
  return level;
}

Isa kernel_isa() noexcept {
  const int forced = g_forced.load(std::memory_order_relaxed);
  return forced < 0 ? cpu_isa() : static_cast<Isa>(forced);
}

ScopedKernelIsa::ScopedKernelIsa(Isa level) {
  if (!isa_supported(level)) {
    throw std::invalid_argument("ScopedKernelIsa: this CPU lacks " +
                                std::string(isa_name(level)));
  }
  previous_ = g_forced.exchange(static_cast<int>(level));
}

ScopedKernelIsa::~ScopedKernelIsa() { g_forced.store(previous_); }

}  // namespace ranm
