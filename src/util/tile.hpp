// Register tiling shared by the batched forward and bound kernels.
//
// The kernels walk a neuron-major batch (row j = neuron j of every
// sample), so a tile of consecutive samples is a contiguous run of each
// input row. A tile computes U output neurons for T samples, with its
// accumulators held in registers while the taps stream past, each
// accumulating in the layer's fixed tap order; a tap's inputs are loaded
// once and feed all U neurons, whose accumulation chains are independent
// and overlap. Samples and neurons left over after the full tiles take
// tiles of half the size, then a quarter, and so on; the last single
// samples (all of them at batch 1) run alone, several neurons at a time,
// for the same reason.
//
// Each kernel's full tile (U, T) is a compile-time constant below, chosen
// by measurement. GCC splits a tile's accumulator array into registers
// when it unrolls the tile's U × T loops completely, and its budget for
// that is about 64 elements (or 16 trips of one loop). Past the budget the
// array can stay on the stack, loaded and stored at every tap (a 6 × 16
// Conv2D tile ran 9× slower so), or the loop vectoriser can still keep it
// in vector registers. Which of the two happens, and whether forcing the
// unroll with `#pragma GCC unroll` is faster, is measured per kernel:
// forced on every kernel it made the box kernels 2-3× slower.
//
// The kernels that tile this way run through dispatch_kernel
// (util/isa.hpp), so one tile shape is compiled for the baseline, AVX2 and
// AVX-512 targets: a wider vector covers a tile's samples in fewer
// registers, and each sample's accumulation stays the same, so the
// shapes change the speed and never the bits.
#pragma once

#include <cstddef>

namespace ranm {

/// Output neurons per one-sample tile of the forward and bound kernels.
inline constexpr std::size_t kNeuronTile = 4;

/// A full tile: `neurons` output neurons × `samples` samples.
struct TileShape {
  std::size_t neurons;
  std::size_t samples;
};

// Each kernel's full tile, measured per kernel on the lab convnet at batch
// 32. The forward kernels see at most 32 samples per call (Network's
// block), so a 32-sample tile covers a block.
/// Dense forward: its U × T accumulators are past the unroll budget, and
/// measured faster left to the loop vectoriser than forced to unroll.
inline constexpr TileShape kDenseTile{8, 32};
/// Conv2D forward (neurons: output channels at one position): faster with
/// its tile loops' unroll forced.
inline constexpr TileShape kConvTile{6, 32};
/// MaxPool2D and AvgPool2D forward (neurons: channels at one position).
inline constexpr TileShape kMaxPoolTile{1, 32};
inline constexpr TileShape kAvgPoolTile{1, 16};
/// Box bounds of the affine and conv layers (two accumulators per
/// element); measured faster left to the loop vectoriser.
inline constexpr TileShape kBoxAffineTile{3, 16};
/// Box bounds of AvgPool2D.
inline constexpr TileShape kBoxAvgPoolTile{1, 16};

namespace detail {

// Neurons [o, neurons) for samples [s0, s0 + T): U at a time, then what is
// left in halves of U.
template <std::size_t U, std::size_t T, typename Tile>
void tile_neurons(std::size_t o, std::size_t neurons, std::size_t s0,
                  Tile& tile) {
  for (; o + U <= neurons; o += U) tile.template operator()<U, T>(o, s0);
  if constexpr (U > 1) tile_neurons<U / 2, T>(o, neurons, s0, tile);
}

// Samples [s0, n): full T-sample tiles, then what is left in halves of T,
// and the last single samples kNeuronTile neurons at a time.
template <std::size_t U, std::size_t T, typename Tile>
void tile_samples(std::size_t s0, std::size_t n, std::size_t neurons,
                  Tile& tile) {
  if constexpr (T > 1) {
    for (; s0 + T <= n; s0 += T) tile_neurons<U, T>(0, neurons, s0, tile);
    tile_samples<U, T / 2>(s0, n, neurons, tile);
  } else {
    for (; s0 < n; ++s0) tile_neurons<kNeuronTile, 1>(0, neurons, s0, tile);
  }
}

}  // namespace detail

/// Covers neurons [0, neurons) × samples [0, n) with calls
/// `tile.template operator()<U, T>(o0, s0)`, each computing neurons
/// [o0, o0 + U) for samples [s0, s0 + T). The full tiles of `Shape` come
/// first; the samples left over take tiles of half, a quarter, ... of its
/// samples and the neurons left over in each take half, a quarter, ... of
/// its neurons, down to one sample, which takes kNeuronTile neurons at a
/// time.
template <TileShape Shape, typename Tile>
void for_each_tile(std::size_t n, std::size_t neurons, Tile&& tile) {
  detail::tile_samples<Shape.neurons, Shape.samples>(0, n, neurons, tile);
}

}  // namespace ranm
