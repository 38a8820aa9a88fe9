// Register tiling shared by the batched forward kernels.
//
// The kernels walk a neuron-major batch (row j = neuron j of every
// sample), so a tile of consecutive samples is a contiguous run of each
// input row. A tile computes U output neurons for T samples, with one
// accumulator per (neuron, sample) held in registers while the taps
// stream past, each accumulating in the layer's fixed tap order. Full
// sample tiles take one neuron each; the samples left over (all of them
// at batch 1) run alone, several neurons at a time, so that independent
// accumulation chains overlap instead of one chain waiting on each add.
#pragma once

#include <cstddef>

namespace ranm {

/// Samples per full tile.
inline constexpr std::size_t kSampleTile = 16;
/// Output neurons per one-sample tile.
inline constexpr std::size_t kNeuronTile = 4;

/// Covers neurons [0, neurons) × samples [0, n) with calls
/// `tile.template operator()<U, T>(o0, s0)`, each computing neurons
/// [o0, o0 + U) for samples [s0, s0 + T): (U, T) = (1, kSampleTile) over
/// the full sample tiles, then (kNeuronTile, 1), (2, 1) and (1, 1) per
/// leftover sample.
template <typename Tile>
void for_each_tile(std::size_t n, std::size_t neurons, Tile&& tile) {
  std::size_t s0 = 0;
  for (; s0 + kSampleTile <= n; s0 += kSampleTile) {
    for (std::size_t o = 0; o < neurons; ++o) {
      tile.template operator()<1, kSampleTile>(o, s0);
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
