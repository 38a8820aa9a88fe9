// Register tiling shared by the batched forward and bound kernels.
//
// The kernels walk a neuron-major batch (row j = neuron j of every
// sample), so a tile of consecutive samples is a contiguous run of each
// input row. A tile computes U output neurons for T samples, with its
// accumulators held in registers while the taps stream past, each
// accumulating in the layer's fixed tap order; a tap's inputs are loaded
// once and feed all U neurons. The samples left over after the full
// sample tiles (all of them at batch 1) run alone, several neurons at a
// time, so that independent accumulation chains overlap instead of one
// chain waiting on each add.
//
// The kernels that tile this way run through dispatch_kernel
// (util/isa.hpp), so one tile shape is compiled for the baseline, AVX2 and
// AVX-512 targets: a wider vector covers a tile's samples in fewer
// registers, and each sample's accumulation stays the same. The shapes
// are the same on every level: more neurons per forward tile on the AVX
// levels measured slower on the race-track convnet.
#pragma once

#include <cstddef>

namespace ranm {

/// Samples per full tile of the concrete forward kernels.
inline constexpr std::size_t kSampleTile = 16;
/// Output neurons per one-sample tile of the forward and bound kernels.
inline constexpr std::size_t kNeuronTile = 4;

/// Covers neurons [0, neurons) × samples [0, n) with calls
/// `tile.template operator()<U', T'>(o0, s0)`, each computing neurons
/// [o0, o0 + U') for samples [s0, s0 + T'): over the full sample tiles,
/// (U, T) and then (1, T) for the neurons left over; per leftover sample,
/// (kNeuronTile, 1), then (2, 1) and (1, 1). The defaults are the forward
/// kernels' shape, one neuron by kSampleTile samples.
template <std::size_t U = 1, std::size_t T = kSampleTile, typename Tile>
void for_each_tile(std::size_t n, std::size_t neurons, Tile&& tile) {
  std::size_t s0 = 0;
  for (; s0 + T <= n; s0 += T) {
    std::size_t o = 0;
    for (; o + U <= neurons; o += U) tile.template operator()<U, T>(o, s0);
    // Compiled only when it can run: a second call site of the (1, T)
    // tile would keep the compiler from inlining the first.
    if constexpr (U > 1) {
      for (; o < neurons; ++o) tile.template operator()<1, T>(o, s0);
    }
  }
  for (; s0 < n; ++s0) {
    std::size_t o = 0;
    for (; o + kNeuronTile <= neurons; o += kNeuronTile) {
      tile.template operator()<kNeuronTile, 1>(o, s0);
    }
    for (; o + 2 <= neurons; o += 2) tile.template operator()<2, 1>(o, s0);
    for (; o < neurons; ++o) tile.template operator()<1, 1>(o, s0);
  }
}

}  // namespace ranm
