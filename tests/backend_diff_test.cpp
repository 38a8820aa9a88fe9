// Backend-differential suite: the vectorized bound backend is compared
// against the scalar reference backend over randomized layer chains
// (Dense / Conv2D / pooling / normalization / activations), random shapes,
// and batch sizes including 0, 1, non-multiples of any SIMD lane width,
// and either side of the register tile and of Network's sample block. The
// backend contract: per element, bounds must be identical to the
// reference bounds or widen only outward — never inward. The two kernels
// evaluate the same per-sample expressions, so on this build (no FP
// contraction) they must in fact agree bit for bit, which is asserted too.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "absint/bound_backend.hpp"
#include "kernel_checks.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/flatten.hpp"
#include "nn/init.hpp"
#include "nn/network.hpp"
#include "nn/normalization.hpp"
#include "nn/pooling.hpp"
#include "one_box.hpp"
#include "util/rng.hpp"

namespace ranm {
namespace {

const ReferenceBoundBackend reference;
const VectorizedBoundBackend vectorized;
const BoundBackend* const kBackends[] = {&reference, &vectorized};

TEST(BackendDiff, RandomMlpChains) { check_random_mlp_chains(); }

TEST(BackendDiff, ConvNormPoolChain) { check_conv_norm_pool_chain(); }

TEST(BackendDiff, StridedConvAvgPoolChain) {
  check_strided_conv_avg_pool_chain();
}

TEST(BackendDiff, SeedConvnet) { check_seed_convnet(); }

TEST(BackendDiff, TileEdgeChain) { check_tile_edge_chain(); }

TEST(BackendDiff, ColumnsDoNotDependOnTheBatch) {
  check_columns_do_not_depend_on_the_batch();
}

TEST(BackendDiff, SubRangePropagation) { check_sub_range_propagation(); }

TEST(BackendDiff, DimensionMismatchThrows) {
  Rng rng(5);
  Network net = make_mlp({6, 4, 3}, rng);
  const BoxBatch wrong =
      BoxBatch::linf_ball(random_centers(5, 2, rng), 0.1F);
  for (const BoundBackend* be : kBackends) {
    EXPECT_THROW(
        net.propagate_box_batch(1, net.num_layers(), wrong, *be),
        std::invalid_argument);
  }
}

TEST(BackendDiff, SliceInputDimensionChecked) {
  // Elementwise and Flatten transfers pass any width through, so a slice
  // that starts at one of them must be checked against its first layer:
  // otherwise a 5-wide batch into the convnet's Flatten (layer 4) or
  // hidden LeakyReLU (layer 6) comes back 5 wide.
  Rng rng(12);
  Network net = make_small_convnet(8, 8, 3, 16, 4, rng);
  const BoxBatch wrong =
      BoxBatch::linf_ball(random_centers(5, 2, rng), 0.1F);
  for (const std::size_t l : {std::size_t(4), std::size_t(6)}) {
    for (const BoundBackend* be : kBackends) {
      EXPECT_THROW((void)net.propagate_box_batch(l, l, wrong, *be),
                   std::invalid_argument)
          << "slice " << l << ".." << l << ", backend " << be->name();
    }
    const BoxBatch right = BoxBatch::linf_ball(
        random_centers(net.layer(l).input_size(), 2, rng), 0.1F);
    EXPECT_EQ(net.propagate_box_batch(l, l, right, vectorized).dimension(),
              net.layer(l).output_size());
  }
}

TEST(BackendDiff, CenterRadiusStagingKeepsEndpoints) {
  // w = {1, -1} on the box {[1, 1 + 2^-23], [1, 1]}: the corner
  // (1 + 2^-23, 1) maps to 2^-23. A centre staged in float,
  // 0.5F * (lo + hi), rounds the 1 + 2^-24 midpoint to 1 and puts the
  // upper bound at 2^-24.
  Network net;
  Dense& dense = net.emplace<Dense>(2, 1);
  dense.weights()[0] = 1.0F;
  dense.weights()[1] = -1.0F;
  const float top = 1.0F + 0x1p-23F;
  const IntervalVector box(
      std::vector<Interval>{Interval(1.0F, top), Interval(1.0F, 1.0F)});
  const float corner = net.forward(Tensor::vector({top, 1.0F}))[0];
  ASSERT_EQ(corner, 0x1p-23F);
  for (const BoundBackend* be : kBackends) {
    BoxBatch out;
    be->affine(dense.weights().span(), 1, 2, dense.bias().span(),
               one_column(box), out);
    EXPECT_LE(out.lo(0, 0), 0.0F) << be->name();
    EXPECT_GE(out.hi(0, 0), corner) << be->name();
  }
}

TEST(BackendDiff, ActivationAndMaxPoolKernelValues) {
  // Exact endpoint values of the elementwise ReLU / LeakyReLU kernels and
  // the interval max of a max-pool window, on both backends.
  BoxBatch in(3, 1);
  const float lo[] = {-2.0F, 1.0F, -1.0F};
  const float hi[] = {-1.0F, 2.0F, 2.0F};
  for (std::size_t j = 0; j < 3; ++j) {
    in.lo(j, 0) = lo[j];
    in.hi(j, 0) = hi[j];
  }
  // One 2x2 window over a single-channel 2x2 input.
  BoxBatch pool_in(4, 1);
  const float pool_lo[] = {0.0F, 2.0F, -1.0F, -3.0F};
  const float pool_hi[] = {5.0F, 3.0F, 1.0F, -2.0F};
  for (std::size_t j = 0; j < 4; ++j) {
    pool_in.lo(j, 0) = pool_lo[j];
    pool_in.hi(j, 0) = pool_hi[j];
  }
  Pool2DGeometry window;
  window.channels = 1;
  window.in_height = 2;
  window.in_width = 2;
  window.out_height = 1;
  window.out_width = 1;
  window.window = 2;
  window.stride = 2;
  for (const BoundBackend* be : kBackends) {
    BoxBatch r, lr, m;
    be->relu(in, r);
    EXPECT_EQ(r.lo(0, 0), 0.0F);
    EXPECT_EQ(r.hi(0, 0), 0.0F);
    EXPECT_EQ(r.lo(1, 0), 1.0F);
    EXPECT_EQ(r.hi(1, 0), 2.0F);
    EXPECT_EQ(r.lo(2, 0), 0.0F);
    EXPECT_EQ(r.hi(2, 0), 2.0F);
    be->leaky_relu(0.1F, in, lr);
    EXPECT_FLOAT_EQ(lr.lo(2, 0), -0.1F);
    EXPECT_FLOAT_EQ(lr.hi(2, 0), 2.0F);
    EXPECT_FLOAT_EQ(lr.lo(0, 0), -0.2F);
    EXPECT_FLOAT_EQ(lr.hi(0, 0), -0.1F);
    be->max_pool(window, pool_in, m);
    EXPECT_EQ(m.lo(0, 0), 2.0F);
    EXPECT_EQ(m.hi(0, 0), 5.0F);
  }
}

TEST(BackendDiff, LeakyReluKernelAtZerosAndSubnormals) {
  // Each bound maps through v > 0 ? v : αv, the select the vectorized
  // kernel computes as max(v, αv), and the mapped pair is ordered with
  // std::min / std::max: bit for bit, signed zeros included, also at
  // α = 0 and where αv underflows.
  const float tiny = std::numeric_limits<float>::denorm_min();
  const float min_normal = std::numeric_limits<float>::min();
  const float lo[] = {-0.0F, 0.0F, -0.0F, -tiny, -tiny, -min_normal,
                      -3.0F, -2.0F, tiny};
  const float hi[] = {-0.0F, 0.0F, 0.0F, -tiny, 0.0F, -0.5F * min_normal,
                      -0.0F, 1.0F, min_normal};
  constexpr std::size_t kCount = std::size(lo);
  BoxBatch in(kCount, 1);
  for (std::size_t j = 0; j < kCount; ++j) {
    in.lo(j, 0) = lo[j];
    in.hi(j, 0) = hi[j];
  }
  auto bits = [](float v) { return std::bit_cast<std::uint32_t>(v); };
  for (const float alpha : {0.0F, 0.01F, 0.5F, 0.99F}) {
    auto f = [alpha](float v) { return v > 0.0F ? v : alpha * v; };
    for (const BoundBackend* be : kBackends) {
      BoxBatch out;
      be->leaky_relu(alpha, in, out);
      for (std::size_t j = 0; j < kCount; ++j) {
        const float a = f(lo[j]), b = f(hi[j]);
        EXPECT_EQ(bits(out.lo(j, 0)), bits(std::min(a, b)))
            << be->name() << " alpha " << alpha << " lo of " << lo[j];
        EXPECT_EQ(bits(out.hi(j, 0)), bits(std::max(a, b)))
            << be->name() << " alpha " << alpha << " hi of " << hi[j];
      }
    }
  }
}

TEST(BackendDiff, KernelOutputMustNotBeItsInput) {
  BoxBatch box(3, 2);
  for (const BoundBackend* be : kBackends) {
    EXPECT_THROW(be->relu(box, box), std::invalid_argument) << be->name();
  }
}

TEST(BackendDiff, BackendValidatesKernelPreconditions) {
  // The public BoundBackend entry points are the seam external backends
  // and callers plug into: an inconsistent pooling geometry (window
  // overrunning the input extent) or a non-positive inv_std must be
  // rejected before any kernel touches memory.
  Rng rng(9);
  const BoxBatch in = BoxBatch::linf_ball(random_centers(16, 2, rng), 0.1F);
  Pool2DGeometry bad;
  bad.channels = 1;
  bad.in_height = 4;
  bad.in_width = 4;
  bad.out_height = 4;  // (4-1)*2 + 2 = 8 > 4: overruns the input
  bad.out_width = 4;
  bad.window = 2;
  bad.stride = 2;
  const std::vector<float> mean(16, 0.0F);
  const std::vector<float> neg_std(16, -1.0F);
  BoxBatch out;
  for (const BoundBackend* be : kBackends) {
    EXPECT_THROW(be->max_pool(bad, in, out), std::invalid_argument);
    EXPECT_THROW(be->avg_pool(bad, in, out), std::invalid_argument);
    EXPECT_THROW(be->normalize(mean, neg_std, in, out),
                 std::invalid_argument);
  }
}

TEST(BackendDiff, BoxBatchContainsRejectsNaN) {
  Rng rng(8);
  const BoxBatch box = BoxBatch::linf_ball(random_centers(3, 2, rng), 0.5F);
  std::vector<float> inside{box.lo(0, 0), box.lo(1, 0), box.lo(2, 0)};
  EXPECT_TRUE(box.contains(0, inside));
  inside[1] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(box.contains(0, inside));
}

TEST(BackendDiff, LinfBallRejectsBadDelta) {
  Rng rng(6);
  const FeatureBatch centers = random_centers(4, 3, rng);
  EXPECT_THROW(BoxBatch::linf_ball(centers, -0.1F), std::invalid_argument);
  EXPECT_THROW(
      BoxBatch::linf_ball(centers, std::numeric_limits<float>::quiet_NaN()),
      std::invalid_argument);
  EXPECT_THROW(
      BoxBatch::linf_ball(centers, std::numeric_limits<float>::infinity()),
      std::invalid_argument);
}

}  // namespace
}  // namespace ranm
