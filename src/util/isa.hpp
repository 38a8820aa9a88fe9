// Runtime choice of the instruction set the batched kernels run at.
//
// The library builds for baseline x86-64 (SSE2: two doubles per vector
// register), and its artifacts and binaries must run on any such host, so
// nothing is built with -march=native. Instead each batched forward and
// box kernel (src/nn/{conv2d,dense,pooling,activations}.cpp,
// src/absint/backend_vectorized.cpp) writes its body once, as a lambda,
// and hands it to dispatch_kernel(). That compiles the body three times:
// for the baseline target, for AVX2 and for AVX-512 (F + VL), each from a
// thin entry point carrying the target attribute and `flatten`, so the
// body and its tile lambdas are inlined into, and vectorised for, each
// entry. The CPU is checked once; each call switches on the level.
//
// Every level computes the same bits. The kernels vectorise across
// independent outputs only: across the samples of a batch, or, for a
// single sample of Conv2D and MaxPool2D, across consecutive outputs along
// one row (util/tile.hpp). Each output accumulates its own terms in a
// fixed order, in double, and FP contraction is off (the build passes
// -ffp-contract=off; the dispatched sources also pin it for clang), so no
// multiply-add is ever fused. A wider vector only does more outputs at
// once.
#pragma once

#include <cstdint>
#include <string_view>

#if defined(__x86_64__) || defined(__i386__)
#define RANM_KERNEL_DISPATCH 1
#else
#define RANM_KERNEL_DISPATCH 0
#endif

namespace ranm {

/// Instruction-set levels of the dispatched kernels, in increasing order.
enum class Isa : std::uint8_t { kBaseline, kAvx2, kAvx512 };

inline constexpr Isa kAllIsas[] = {Isa::kBaseline, Isa::kAvx2, Isa::kAvx512};

/// "baseline", "avx2" or "avx512".
[[nodiscard]] std::string_view isa_name(Isa level) noexcept;

/// The highest level this CPU and its OS support (AVX-512 needs both F and
/// VL). Checked on the first call, cached after.
[[nodiscard]] Isa cpu_isa() noexcept;

/// True when the kernels can run at `level` on this CPU.
[[nodiscard]] inline bool isa_supported(Isa level) noexcept {
  return level <= cpu_isa();
}

/// The level dispatch_kernel() runs at: cpu_isa(), unless a
/// ScopedKernelIsa is alive.
[[nodiscard]] Isa kernel_isa() noexcept;

/// For tests: runs every dispatched kernel at `level` while alive, on all
/// threads, then restores the previous level. Throws
/// std::invalid_argument when the CPU does not support `level`.
class ScopedKernelIsa {
 public:
  explicit ScopedKernelIsa(Isa level);
  ~ScopedKernelIsa();
  ScopedKernelIsa(const ScopedKernelIsa&) = delete;
  ScopedKernelIsa& operator=(const ScopedKernelIsa&) = delete;

 private:
  int previous_ = -1;
};

// An entry point inlines the whole kernel into itself (flatten), so the
// kernel is compiled, and vectorised, for the entry's target. GCC contracts
// a*b + c into an FMA by default even in ISO C++ mode, and the AVX-512
// target has FMA, so the entries turn contraction off themselves: the
// contraction pass runs on the entry, where the inlined kernel ends up.
// clang contracts while it emits each expression, so the kernel sources pin
// it with `#pragma clang fp contract(off)` instead. The GCC entries also
// turn predictive commoning off: in a one-sample row tile each tap reads
// the previous tap's inputs shifted by one, and GCC kept them in scalar
// registers from tap to tap and rebuilt each vector from them, which made
// the lab convnet's Conv2D at batch 1 about 1.5× slower than loading the
// vector again.
#if defined(__clang__)
#define RANM_KERNEL_ENTRY [[gnu::flatten]]
#else
#define RANM_KERNEL_ENTRY \
  [[gnu::flatten, gnu::optimize("fp-contract=off", "no-predictive-commoning")]]
#endif

namespace detail {

template <typename Kernel>
RANM_KERNEL_ENTRY void run_kernel_baseline(Kernel& kernel) {
  kernel();
}

#if RANM_KERNEL_DISPATCH
template <typename Kernel>
RANM_KERNEL_ENTRY [[gnu::target("avx2")]] void run_kernel_avx2(
    Kernel& kernel) {
  kernel();
}

template <typename Kernel>
RANM_KERNEL_ENTRY [[gnu::target("avx512f,avx512vl")]] void run_kernel_avx512(
    Kernel& kernel) {
  kernel();
}
#endif

}  // namespace detail

/// Runs `kernel()` at kernel_isa(), from the entry point compiled for that
/// level.
template <typename Kernel>
void dispatch_kernel(Kernel&& kernel) {
#if RANM_KERNEL_DISPATCH
  switch (kernel_isa()) {
    case Isa::kAvx512:
      detail::run_kernel_avx512(kernel);
      return;
    case Isa::kAvx2:
      detail::run_kernel_avx2(kernel);
      return;
    case Isa::kBaseline:
      break;
  }
#endif
  detail::run_kernel_baseline(kernel);
}

}  // namespace ranm
