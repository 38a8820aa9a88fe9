// The elementwise activations the batched passes run, each written once.
//
// ReLU and LeakyReLU run in two places: as their own layer's kernel, and
// as the epilogue of the Conv2D or Dense step before them, which applies
// the activation to its output rows while they are still in L1 instead of
// leaving a whole layer's round trip through memory to a separate pass
// (Network plans those steps). Both places, concrete and box, call the
// expressions below, so a fused step computes the bits of the two-layer
// chain. They are inline and branch-free, so a dispatched kernel
// (util/isa.hpp) inlines and vectorises them for its target.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace ranm {

/// ReLU: v > 0 ? v : +0. NaN and -0 give +0, so ReLU is not LeakyReLU
/// with α = 0 (which keeps -0).
[[nodiscard]] inline float relu(float v) noexcept { return v > 0.0F ? v : 0.0F; }

/// LeakyReLU with α in [0, 1): max(v, αv) is v > 0 ? v : αv, signed zeros
/// included, and computes both operands unconditionally, so a loop over it
/// vectorises under -ftrapping-math.
[[nodiscard]] inline float leaky_relu(float v, float alpha) noexcept {
  return std::max(v, alpha * v);
}

/// The activation a kernel applies to its outputs before they leave it:
/// the identity, ReLU or LeakyReLU(alpha).
struct Epilogue {
  enum class Kind : std::uint8_t { kIdentity, kRelu, kLeakyRelu };
  Kind kind = Kind::kIdentity;
  float alpha = 0.0F;

  [[nodiscard]] bool identity() const noexcept {
    return kind == Kind::kIdentity;
  }

  /// out[e] = act(in[e]) for e < count; `in` may be `out`.
  void apply(const float* in, float* out, std::size_t count) const noexcept {
    switch (kind) {
      case Kind::kIdentity:
        if (in != out) std::copy_n(in, count, out);
        return;
      case Kind::kRelu:
        for (std::size_t e = 0; e < count; ++e) out[e] = relu(in[e]);
        return;
      case Kind::kLeakyRelu: {
        const float a = alpha;
        for (std::size_t e = 0; e < count; ++e) {
          out[e] = leaky_relu(in[e], a);
        }
        return;
      }
    }
  }

  /// The box transfer of the activation over bounds [in_lo[e], in_hi[e]],
  /// e < count: both endpoints mapped (LeakyReLU's then ordered by min and
  /// max). The inputs may be the outputs.
  void apply_box(const float* in_lo, const float* in_hi, float* out_lo,
                 float* out_hi, std::size_t count) const noexcept {
    switch (kind) {
      case Kind::kIdentity:
        if (in_lo != out_lo) std::copy_n(in_lo, count, out_lo);
        if (in_hi != out_hi) std::copy_n(in_hi, count, out_hi);
        return;
      case Kind::kRelu:
        for (std::size_t e = 0; e < count; ++e) {
          out_lo[e] = relu(in_lo[e]);
          out_hi[e] = relu(in_hi[e]);
        }
        return;
      case Kind::kLeakyRelu: {
        const float al = alpha;
        for (std::size_t e = 0; e < count; ++e) {
          const float a = leaky_relu(in_lo[e], al);
          const float b = leaky_relu(in_hi[e], al);
          out_lo[e] = std::min(a, b);
          out_hi[e] = std::max(a, b);
        }
        return;
      }
    }
  }
};

}  // namespace ranm
