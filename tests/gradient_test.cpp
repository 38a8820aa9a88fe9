// Numerical gradient checking for every trainable layer: the analytic
// backward kernel must match central finite differences on both the input
// gradient and the parameter gradients, on one sample and on the last
// column of a 3-sample batch.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/flatten.hpp"
#include "nn/pooling.hpp"
#include "util/rng.hpp"

namespace ranm {
namespace {

/// Scalar objective over a layer's output: sum of coef[i] * out[i], which
/// gives grad_out = coef and an easy finite-difference target.
float objective(const Layer& layer, const Tensor& x, const Tensor& coef) {
  Tensor y = layer.forward(x);
  float acc = 0.0F;
  for (std::size_t i = 0; i < y.numel(); ++i) acc += coef[i] * y[i];
  return acc;
}

/// Layer's backward_batch with x as column `column` of an n-sample
/// neuron-major batch: the other columns hold other random inputs, with a
/// random output gradient, or a zero one when `others_zero` (so they add
/// nothing to the parameter gradients). Returns that column's input
/// gradient.
Tensor backward_column(Layer& layer, const Tensor& x, const Tensor& coef,
                       Rng& rng, std::size_t n, std::size_t column,
                       bool others_zero) {
  const std::size_t in = layer.input_size();
  const std::size_t out = layer.output_size();
  std::vector<float> xs(in * n), ys(out * n), gs(out * n), gi(in * n);
  for (std::size_t i = 0; i < n; ++i) {
    const Tensor xi = i == column ? x : Tensor::random_uniform({in}, rng);
    const Tensor gv = i == column  ? coef
                      : others_zero ? Tensor({out})
                                    : Tensor::random_uniform({out}, rng);
    for (std::size_t j = 0; j < in; ++j) xs[j * n + i] = xi[j];
    for (std::size_t j = 0; j < out; ++j) gs[j * n + i] = gv[j];
  }
  layer.forward_batch(xs.data(), ys.data(), n);
  layer.backward_batch(xs.data(), ys.data(), gs.data(), gi.data(), n);
  Tensor grad(layer.input_shape());
  for (std::size_t j = 0; j < in; ++j) grad[j] = gi[j * n + column];
  return grad;
}

/// The input gradient on one sample and on column 2 of a 3-sample batch.
void check_input_gradient(Layer& layer, const Tensor& x, Rng& rng,
                          float tol = 2e-2F) {
  Tensor coef = Tensor::random_uniform({layer.output_size()}, rng);
  for (const auto& [n, column] : {std::pair{1U, 0U}, std::pair{3U, 2U}}) {
    const Tensor analytic =
        backward_column(layer, x, coef, rng, n, column, /*others_zero=*/false);

    const float eps = 1e-2F;
    for (std::size_t i = 0; i < x.numel(); ++i) {
      Tensor xp = x, xm = x;
      xp[i] += eps;
      xm[i] -= eps;
      const float fp = objective(layer, xp, coef);
      const float fm = objective(layer, xm, coef);
      const float numeric = (fp - fm) / (2.0F * eps);
      EXPECT_NEAR(analytic[i], numeric, tol)
          << layer.name() << " input gradient at " << i << ", column "
          << column << " of " << n;
    }
  }
}

/// The parameter gradients on one sample and on column 2 of a 3-sample
/// batch whose other columns' output gradients are zero.
void check_param_gradients(Layer& layer, const Tensor& x, Rng& rng,
                           float tol = 2e-2F) {
  Tensor coef = Tensor::random_uniform({layer.output_size()}, rng);
  for (const auto& [n, column] : {std::pair{1U, 0U}, std::pair{3U, 2U}}) {
    for (Tensor* g : layer.gradients()) g->zero();
    (void)backward_column(layer, x, coef, rng, n, column,
                          /*others_zero=*/true);

    auto params = layer.parameters();
    auto grads = layer.gradients();
    ASSERT_EQ(params.size(), grads.size());
    const float eps = 1e-2F;
    for (std::size_t p = 0; p < params.size(); ++p) {
      Tensor& param = *params[p];
      for (std::size_t i = 0; i < param.numel(); ++i) {
        const float orig = param[i];
        param[i] = orig + eps;
        const float fp = objective(layer, x, coef);
        param[i] = orig - eps;
        const float fm = objective(layer, x, coef);
        param[i] = orig;
        const float numeric = (fp - fm) / (2.0F * eps);
        EXPECT_NEAR((*grads[p])[i], numeric, tol)
            << layer.name() << " param " << p << " gradient at " << i
            << ", column " << column << " of " << n;
      }
    }
  }
}

TEST(Gradient, Dense) {
  Rng rng(1);
  Dense d(5, 4);
  d.init_params(rng);
  Tensor x = Tensor::random_uniform({5}, rng);
  check_input_gradient(d, x, rng);
  check_param_gradients(d, x, rng);
}

TEST(Gradient, Conv2D) {
  Rng rng(2);
  Conv2D::Config cfg;
  cfg.in_channels = 2;
  cfg.in_height = 5;
  cfg.in_width = 5;
  cfg.out_channels = 3;
  cfg.kernel_h = 3;
  cfg.kernel_w = 3;
  cfg.stride = 1;
  cfg.padding = 1;
  Conv2D conv(cfg);
  conv.init_params(rng);
  Tensor x = Tensor::random_uniform({2, 5, 5}, rng);
  check_input_gradient(conv, x, rng);
  check_param_gradients(conv, x, rng);
}

TEST(Gradient, Conv2DStridedNoPadding) {
  Rng rng(3);
  Conv2D::Config cfg;
  cfg.in_channels = 1;
  cfg.in_height = 6;
  cfg.in_width = 6;
  cfg.out_channels = 2;
  cfg.kernel_h = 3;
  cfg.kernel_w = 3;
  cfg.stride = 2;
  cfg.padding = 0;
  Conv2D conv(cfg);
  conv.init_params(rng);
  Tensor x = Tensor::random_uniform({1, 6, 6}, rng);
  check_input_gradient(conv, x, rng);
  check_param_gradients(conv, x, rng);
}

TEST(Gradient, ReluAwayFromKink) {
  Rng rng(4);
  ReLU relu(Shape{6});
  // Keep inputs away from 0 where the derivative jumps.
  Tensor x = Tensor::random_uniform({6}, rng, 0.5F, 2.0F);
  check_input_gradient(relu, x, rng);
  Tensor xn = Tensor::random_uniform({6}, rng, -2.0F, -0.5F);
  check_input_gradient(relu, xn, rng);
}

TEST(Gradient, LeakyRelu) {
  Rng rng(5);
  LeakyReLU lr(Shape{6}, 0.1F);
  Tensor x = Tensor::random_uniform({6}, rng, 0.5F, 2.0F);
  check_input_gradient(lr, x, rng);
}

TEST(Gradient, Sigmoid) {
  Rng rng(6);
  Sigmoid s(Shape{5});
  Tensor x = Tensor::random_uniform({5}, rng, -2.0F, 2.0F);
  check_input_gradient(s, x, rng);
}

TEST(Gradient, Tanh) {
  Rng rng(7);
  Tanh t(Shape{5});
  Tensor x = Tensor::random_uniform({5}, rng, -2.0F, 2.0F);
  check_input_gradient(t, x, rng);
}

TEST(Gradient, AvgPool) {
  Rng rng(8);
  Pooling::Config cfg;
  cfg.channels = 2;
  cfg.in_height = 4;
  cfg.in_width = 4;
  AvgPool2D pool(cfg);
  Tensor x = Tensor::random_uniform({2, 4, 4}, rng);
  check_input_gradient(pool, x, rng);
}

TEST(Gradient, MaxPoolAwayFromTies) {
  Rng rng(9);
  Pooling::Config cfg;
  cfg.channels = 1;
  cfg.in_height = 4;
  cfg.in_width = 4;
  MaxPool2D pool(cfg);
  // Distinct values avoid argmax ties under the finite-difference step.
  Tensor x({1, 4, 4});
  for (std::size_t i = 0; i < 16; ++i) x[i] = float(i) * 0.37F;
  check_input_gradient(pool, x, rng);
}

TEST(Gradient, Flatten) {
  Rng rng(10);
  Flatten f(Shape{2, 3, 2});
  Tensor x = Tensor::random_uniform({2, 3, 2}, rng);
  check_input_gradient(f, x, rng);
}

}  // namespace
}  // namespace ranm
