// Register tiling shared by the batched forward and bound kernels.
//
// The kernels walk a neuron-major batch (row j = neuron j of every
// sample), so a tile of consecutive samples is a contiguous run of each
// input row. A tile computes U output neurons for T samples, with its
// accumulators held in registers while the taps stream past, each
// accumulating in the layer's fixed tap order; a tap's inputs are loaded
// once and feed all U neurons, whose accumulation chains are independent
// and overlap. Samples and neurons left over after the full tiles take
// tiles of half the size, then a quarter, and so on.
//
// A single sample has no samples to run across. Dense, AvgPool2D and the
// box kernels run it alone, several neurons at a time (the last single
// samples of for_each_tile, all of them at batch 1). Conv2D and MaxPool2D
// instead run it across its own outputs: at batch 1 the neuron-major
// batch is the plain C×H×W tensor, so consecutive outputs along one row
// of an output channel are a run like a run of samples, and a row tile
// computes U channels at T consecutive positions (for_each_row_tile).
// Their batch tiles stop at two samples (for_each_pair_tile), and an odd
// batch's last sample is copied out and run as a batch of one
// (run_one_column).
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
// registers, and each output's accumulation stays the same, so the
// shapes change the speed and never the bits.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace ranm {

/// Output neurons per one-sample tile of for_each_tile.
inline constexpr std::size_t kNeuronTile = 4;

/// A full tile: `neurons` output neurons × `samples` columns. The columns
/// are samples of a batch, or for a row tile consecutive outputs along a
/// row of one sample. `leftover_neurons`, when set, is the neurons of
/// for_each_tile's tiles of fewer samples than the full one.
struct TileShape {
  std::size_t neurons;
  std::size_t samples;
  std::size_t leftover_neurons = 0;
};

// Each kernel's full tile, measured per kernel on the lab convnet at batch
// 32. The forward kernels see at most 32 samples per call (Network's
// block), so a 32-sample tile covers a block.
/// Dense forward: its U × T accumulators are past the unroll budget, and
/// measured faster left to the loop vectoriser than forced to unroll. Its
/// tiles of 16 and 8 samples take 4 neurons: 8 × 16 and 8 × 8 are
/// unrolled completely into more accumulators than there are registers,
/// and ran 3-8× slower per multiply-add than 8 × 32 or 4 × 16 (32 × 256
/// weights, GCC 12, each dispatch level).
inline constexpr TileShape kDenseTile{8, 32, 4};
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

/// Conv2D weight gradient (neurons: taps, the bias one more; columns: 8
/// output channels as one vector).
inline constexpr TileShape kConvGradTile{8, 8};

// The row tiles of one sample, measured on the lab convnet at batch 1.
/// Conv2D (neurons: output channels; columns: positions along a row).
inline constexpr TileShape kConvRowTile{6, 16};
/// MaxPool2D (columns: positions along a row of one channel).
inline constexpr TileShape kMaxPoolRowTile{1, 16};

namespace detail {

// Neurons [o, neurons) for columns [c0, c0 + T): U at a time, then what is
// left in halves of U.
template <std::size_t U, std::size_t T, typename Tile>
void tile_neurons(std::size_t o, std::size_t neurons, std::size_t c0,
                  Tile& tile) {
  for (; o + U <= neurons; o += U) tile.template operator()<U, T>(o, c0);
  if constexpr (U > 1) tile_neurons<U / 2, T>(o, neurons, c0, tile);
}

// Columns [c0, n): full T-column tiles of U neurons, then what is left in
// halves of T, of L neurons, down to tiles of Min columns. Returns the
// first column not covered (fewer than Min are left).
template <std::size_t U, std::size_t T, std::size_t Min, std::size_t L = U,
          typename Tile>
std::size_t tile_columns(std::size_t c0, std::size_t n, std::size_t neurons,
                         Tile& tile) {
  static_assert(T >= Min);
  for (; c0 + T <= n; c0 += T) tile_neurons<U, T>(0, neurons, c0, tile);
  if constexpr (T > Min) {
    return tile_columns<L, T / 2, Min, L>(c0, n, neurons, tile);
  } else {
    return c0;
  }
}

}  // namespace detail

/// Covers neurons [0, neurons) × samples [0, n) with calls
/// `tile.template operator()<U, T>(o0, s0)`, each computing neurons
/// [o0, o0 + U) for samples [s0, s0 + T). The full tiles of `Shape` come
/// first; the samples left over take tiles of half, a quarter, ... of its
/// samples (of Shape.leftover_neurons neurons, if set) and the neurons
/// left over in each take half, a quarter, ... of its neurons, down to
/// one sample, which takes kNeuronTile neurons at a time.
template <TileShape Shape, typename Tile>
void for_each_tile(std::size_t n, std::size_t neurons, Tile&& tile) {
  constexpr std::size_t L =
      Shape.leftover_neurons == 0 ? Shape.neurons : Shape.leftover_neurons;
  std::size_t s0 = detail::tile_columns<Shape.neurons, Shape.samples, 2, L>(
      0, n, neurons, tile);
  for (; s0 < n; ++s0) {
    detail::tile_neurons<kNeuronTile, 1>(0, neurons, s0, tile);
  }
}

/// for_each_tile down to tiles of two samples only: covers samples
/// [0, n - n % 2), leaving an odd batch's last sample to the caller.
template <TileShape Shape, typename Tile>
void for_each_pair_tile(std::size_t n, std::size_t neurons, Tile&& tile) {
  detail::tile_columns<Shape.neurons, Shape.samples, 2>(0, n, neurons, tile);
}

/// The row tiles of one sample: covers neurons [0, neurons) × consecutive
/// outputs [c0, c1) of one row with calls `tile.template operator()<U,
/// T>(o0, x0)`, each computing neurons [o0, o0 + U) at outputs [x0, x0 +
/// T). A row of at least Shape's T outputs takes only full tiles, the last
/// one shifted back to end at c1: an output's arithmetic does not depend on
/// the tile or the column it runs in, so the outputs two tiles overlap on
/// are written twice with the same bits. A shorter row takes tiles of half
/// the columns, or a quarter, and so on; the neurons left over take
/// halves of Shape's neurons.
template <TileShape Shape, typename Tile>
void for_each_row_tile(std::size_t c0, std::size_t c1, std::size_t neurons,
                       Tile&& tile) {
  constexpr std::size_t U = Shape.neurons;
  constexpr std::size_t T = Shape.samples;
  if (c1 - c0 >= T) {
    for (std::size_t x = c0; x < c1; x += T) {
      detail::tile_neurons<U, T>(0, neurons, std::min(x, c1 - T), tile);
    }
  } else if constexpr (T > 1) {
    detail::tile_columns<U, T / 2, 1>(c0, c1, neurons, tile);
  }
}

/// Calls `body.template operator()<Step>()` with Step = `stride` when it is
/// 1 or 2, so that a row tile's loads, Step floats apart, have a
/// compile-time stride the vectoriser can shuffle; Step = 0 for any other
/// stride, which the body then reads at run time.
template <typename Body>
void with_step(std::size_t stride, Body&& body) {
  if (stride == 1) {
    body.template operator()<1>();
  } else if (stride == 2) {
    body.template operator()<2>();
  } else {
    body.template operator()<0>();
  }
}

/// Runs `one(x, y)`, a kernel at batch 1, on column `s` of a neuron-major
/// batch of n samples: x holds that sample's in_dim inputs and y receives
/// its out_dim outputs, both contiguous, and y is copied back into the
/// column. The copies live in per-thread buffers that only grow.
template <typename One>
void run_one_column(const float* in, float* out, std::size_t n,
                    std::size_t s, std::size_t in_dim, std::size_t out_dim,
                    One&& one) {
  thread_local std::vector<float> x, y;
  x.resize(std::max(x.size(), in_dim));
  y.resize(std::max(y.size(), out_dim));
  for (std::size_t j = 0; j < in_dim; ++j) x[j] = in[j * n + s];
  one(x.data(), y.data());
  for (std::size_t j = 0; j < out_dim; ++j) out[j * n + s] = y[j];
}

/// Grows the calling thread's scratch `buffer` to at least `size` floats
/// and returns it; the buffer only grows, so a kernel run again at the
/// same size allocates nothing.
template <typename Buffer>
float* grown(Buffer& buffer, std::size_t size) {
  if (buffer.size() < size) buffer.resize(size);
  return buffer.data();
}

}  // namespace ranm
