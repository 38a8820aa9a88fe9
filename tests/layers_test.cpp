#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/flatten.hpp"
#include "nn/pooling.hpp"
#include "util/rng.hpp"

namespace ranm {
namespace {

TEST(Dense, ForwardAffine) {
  Dense d(2, 2);
  d.weights()(0, 0) = 1.0F;
  d.weights()(0, 1) = 2.0F;
  d.weights()(1, 0) = -1.0F;
  d.weights()(1, 1) = 0.5F;
  d.bias()[0] = 1.0F;
  d.bias()[1] = -1.0F;
  Tensor y = d.forward(Tensor::vector({3.0F, 4.0F}));
  EXPECT_FLOAT_EQ(y[0], 1 * 3 + 2 * 4 + 1);
  EXPECT_FLOAT_EQ(y[1], -1 * 3 + 0.5F * 4 - 1);
}

TEST(Dense, ShapeValidation) {
  Dense d(3, 2);
  EXPECT_THROW((void)d.forward(Tensor::vector({1, 2})),
               std::invalid_argument);
  EXPECT_THROW(Dense(0, 2), std::invalid_argument);
  EXPECT_EQ(d.input_shape(), (Shape{3}));
  EXPECT_EQ(d.output_shape(), (Shape{2}));
}

TEST(Dense, InitParamsChangesWeights) {
  Dense d(16, 8);
  Rng rng(5);
  d.init_params(rng);
  EXPECT_GT(d.weights().norm2(), 0.0F);
  // He init: weight stddev near sqrt(2/16).
  float sum2 = 0.0F;
  for (std::size_t i = 0; i < d.weights().numel(); ++i) {
    sum2 += d.weights()[i] * d.weights()[i];
  }
  const float stddev = std::sqrt(sum2 / float(d.weights().numel()));
  EXPECT_NEAR(stddev, std::sqrt(2.0F / 16.0F), 0.1F);
}

TEST(Activations, ReluForward) {
  ReLU relu(Shape{4});
  Tensor y = relu.forward(Tensor::vector({-2, -0.5F, 0, 3}));
  EXPECT_EQ(y[0], 0.0F);
  EXPECT_EQ(y[1], 0.0F);
  EXPECT_EQ(y[2], 0.0F);
  EXPECT_EQ(y[3], 3.0F);
}

TEST(Activations, LeakyReluForward) {
  LeakyReLU lr(Shape{2}, 0.1F);
  Tensor y = lr.forward(Tensor::vector({-2, 3}));
  EXPECT_FLOAT_EQ(y[0], -0.2F);
  EXPECT_FLOAT_EQ(y[1], 3.0F);
  EXPECT_THROW(LeakyReLU(Shape{2}, 1.5F), std::invalid_argument);
}

TEST(Activations, SigmoidTanhForward) {
  Sigmoid s(Shape{1});
  EXPECT_NEAR(s.forward(Tensor::vector({0.0F}))[0], 0.5F, 1e-6F);
  Tanh t(Shape{1});
  EXPECT_NEAR(t.forward(Tensor::vector({100.0F}))[0], 1.0F, 1e-4F);
}

TEST(Conv2D, IdentityKernel) {
  Conv2D::Config cfg;
  cfg.in_channels = 1;
  cfg.in_height = 4;
  cfg.in_width = 4;
  cfg.out_channels = 1;
  cfg.kernel_h = 3;
  cfg.kernel_w = 3;
  cfg.stride = 1;
  cfg.padding = 1;
  Conv2D conv(cfg);
  conv.weights()[4] = 1.0F;  // centre tap of the 3x3 kernel
  Rng rng(3);
  Tensor x = Tensor::random_uniform({1, 4, 4}, rng);
  Tensor y = conv.forward(x);
  EXPECT_TRUE(y.allclose(x));
}

TEST(Conv2D, OutputGeometry) {
  Conv2D::Config cfg;
  cfg.in_channels = 2;
  cfg.in_height = 8;
  cfg.in_width = 6;
  cfg.out_channels = 3;
  cfg.kernel_h = 3;
  cfg.kernel_w = 3;
  cfg.stride = 2;
  cfg.padding = 1;
  Conv2D conv(cfg);
  EXPECT_EQ(conv.output_shape(), (Shape{3, 4, 3}));
}

TEST(Conv2D, SumKernelNoPadding) {
  Conv2D::Config cfg;
  cfg.in_channels = 1;
  cfg.in_height = 3;
  cfg.in_width = 3;
  cfg.out_channels = 1;
  cfg.kernel_h = 3;
  cfg.kernel_w = 3;
  Conv2D conv(cfg);
  conv.weights().fill(1.0F);
  conv.bias()[0] = 0.5F;
  Tensor x({1, 3, 3}, 2.0F);
  Tensor y = conv.forward(x);
  ASSERT_EQ(y.numel(), 1U);
  EXPECT_FLOAT_EQ(y[0], 18.0F + 0.5F);
}

TEST(Conv2D, InvalidConfigThrows) {
  Conv2D::Config cfg;
  cfg.in_channels = 1;
  cfg.in_height = 2;
  cfg.in_width = 2;
  cfg.out_channels = 1;
  cfg.kernel_h = 5;
  cfg.kernel_w = 5;
  EXPECT_THROW(Conv2D{cfg}, std::invalid_argument);
}

TEST(MaxPool2D, ForwardPicksMaxima) {
  Pooling::Config cfg;
  cfg.channels = 1;
  cfg.in_height = 4;
  cfg.in_width = 4;
  MaxPool2D pool(cfg);
  Tensor x({1, 4, 4});
  for (std::size_t i = 0; i < 16; ++i) x[i] = float(i);
  Tensor y = pool.forward(x);
  ASSERT_EQ(y.shape(), (Shape{1, 2, 2}));
  EXPECT_FLOAT_EQ(y(0, 0, 0), 5.0F);
  EXPECT_FLOAT_EQ(y(0, 0, 1), 7.0F);
  EXPECT_FLOAT_EQ(y(0, 1, 0), 13.0F);
  EXPECT_FLOAT_EQ(y(0, 1, 1), 15.0F);
}

TEST(MaxPool2D, BackwardRoutesToArgmax) {
  Pooling::Config cfg;
  cfg.channels = 1;
  cfg.in_height = 2;
  cfg.in_width = 2;
  MaxPool2D pool(cfg);
  Tensor x({1, 2, 2}, std::vector<float>{1, 4, 2, 3});
  const Tensor y = pool.forward(x);
  const float grad_out = 10.0F;
  Tensor g(x.shape());
  pool.backward_batch(x.data(), y.data(), &grad_out, g.data(), 1);
  EXPECT_FLOAT_EQ(g[1], 10.0F);  // the max (value 4) received the gradient
  EXPECT_FLOAT_EQ(g[0], 0.0F);
  EXPECT_FLOAT_EQ(g[2], 0.0F);
  EXPECT_FLOAT_EQ(g[3], 0.0F);
}

TEST(MaxPool2D, BackwardOfADegenerateWindowStaysInTheWindow) {
  // A window with no input above -inf, all -inf or all NaN, sends its
  // gradient to its own first tap, never to another window's input.
  Pooling::Config cfg;
  cfg.channels = 1;
  cfg.in_height = 4;
  cfg.in_width = 4;
  MaxPool2D pool(cfg);
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // Windows: top-left ordinary (max at 1), top-right all -inf, bottom-left
  // all NaN, bottom-right NaN and -inf mixed.
  Tensor x({1, 4, 4}, std::vector<float>{1, 4, -inf, -inf,     //
                                         2, 3, -inf, -inf,     //
                                         nan, nan, nan, -inf,  //
                                         nan, nan, -inf, nan});
  const Tensor y = pool.forward(x);
  const std::vector<float> grad_out{1.0F, 10.0F, 100.0F, 1000.0F};
  Tensor g(x.shape());
  pool.backward_batch(x.data(), y.data(), grad_out.data(), g.data(), 1);
  std::vector<float> want(16, 0.0F);
  want[1] = 1.0F;      // the ordinary window's max
  want[2] = 10.0F;     // first tap of the all -inf window
  want[8] = 100.0F;    // first tap of the all-NaN window
  want[10] = 1000.0F;  // first tap of the mixed window
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(g[i], want[i]) << i;
}

TEST(AvgPool2D, ForwardAverages) {
  Pooling::Config cfg;
  cfg.channels = 1;
  cfg.in_height = 2;
  cfg.in_width = 2;
  AvgPool2D pool(cfg);
  Tensor x({1, 2, 2}, std::vector<float>{1, 2, 3, 4});
  Tensor y = pool.forward(x);
  EXPECT_FLOAT_EQ(y[0], 2.5F);
}

TEST(Flatten, RoundTripShape) {
  Flatten f(Shape{2, 3, 4});
  Tensor x({2, 3, 4}, 1.0F);
  Tensor y = f.forward(x);
  EXPECT_EQ(y.shape(), (Shape{24}));
  const Tensor grad_out({24}, 2.0F);
  Tensor g(f.input_shape());
  f.backward_batch(x.data(), y.data(), grad_out.data(), g.data(), 1);
  EXPECT_EQ(g.shape(), (Shape{2, 3, 4}));
  for (std::size_t i = 0; i < g.numel(); ++i) EXPECT_EQ(g[i], 2.0F);
}

TEST(Pooling, WindowLargerThanInputThrows) {
  Pooling::Config cfg;
  cfg.channels = 1;
  cfg.in_height = 1;
  cfg.in_width = 1;
  EXPECT_THROW(MaxPool2D{cfg}, std::invalid_argument);
}

}  // namespace
}  // namespace ranm
