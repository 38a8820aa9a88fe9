#include "nn/trainer.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "eval/experiment.hpp"
#include "kernel_checks.hpp"
#include "nn/init.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"

namespace ranm {
namespace {

TEST(Loss, MSEValueAndGradient) {
  MSELoss loss;
  const auto r =
      loss.evaluate(Tensor::vector({1.0F, 2.0F}), Tensor::vector({0.0F, 4.0F}));
  EXPECT_FLOAT_EQ(r.value, (1.0F + 4.0F) / 2.0F);
  EXPECT_FLOAT_EQ(r.grad[0], 2.0F * 1.0F / 2.0F);
  EXPECT_FLOAT_EQ(r.grad[1], 2.0F * -2.0F / 2.0F);
  EXPECT_THROW((void)loss.evaluate(Tensor::vector({1.0F}),
                                   Tensor::vector({1.0F, 2.0F})),
               std::invalid_argument);
}

TEST(Loss, SoftmaxNormalises) {
  Tensor p = softmax(Tensor::vector({1.0F, 2.0F, 3.0F}));
  EXPECT_NEAR(p.sum(), 1.0F, 1e-5F);
  EXPECT_GT(p[2], p[1]);
  EXPECT_GT(p[1], p[0]);
}

TEST(Loss, SoftmaxStableForLargeLogits) {
  Tensor p = softmax(Tensor::vector({1000.0F, 1000.0F}));
  EXPECT_NEAR(p[0], 0.5F, 1e-5F);
}

TEST(Loss, CrossEntropyGradientSumsToZero) {
  SoftmaxCrossEntropyLoss loss;
  Tensor target({1});
  target[0] = 2.0F;
  const auto r = loss.evaluate(Tensor::vector({0.1F, -0.2F, 0.5F}), target);
  EXPECT_GT(r.value, 0.0F);
  EXPECT_NEAR(r.grad.sum(), 0.0F, 1e-5F);
  EXPECT_LT(r.grad[2], 0.0F);  // true class pushes logit up
}

TEST(Loss, CrossEntropyRejectsBadClass) {
  SoftmaxCrossEntropyLoss loss;
  Tensor target({1});
  target[0] = 9.0F;
  EXPECT_THROW((void)loss.evaluate(Tensor::vector({0.0F, 1.0F}), target),
               std::invalid_argument);
}

TEST(Optimizer, ValidatesBinding) {
  Tensor p({2}), g({3});
  EXPECT_THROW(SGD({&p}, {&g}, SGD::Config{}), std::invalid_argument);
  EXPECT_THROW(SGD({&p}, {}, SGD::Config{}), std::invalid_argument);
}

TEST(Optimizer, SGDStepMovesAgainstGradient) {
  Tensor p = Tensor::vector({1.0F, -1.0F});
  Tensor g = Tensor::vector({0.5F, -0.5F});
  SGD::Config cfg;
  cfg.learning_rate = 0.1F;
  cfg.momentum = 0.0F;
  SGD opt({&p}, {&g}, cfg);
  opt.step();
  EXPECT_FLOAT_EQ(p[0], 1.0F - 0.05F);
  EXPECT_FLOAT_EQ(p[1], -1.0F + 0.05F);
  // Gradients are cleared after the step.
  EXPECT_EQ(g.norm2(), 0.0F);
}

TEST(Optimizer, AdamConvergesOnQuadratic) {
  // Minimise f(p) = ||p - target||^2 with explicit gradients.
  Tensor p = Tensor::vector({5.0F, -3.0F});
  Tensor g({2});
  const Tensor target = Tensor::vector({1.0F, 2.0F});
  Adam::Config cfg;
  cfg.learning_rate = 0.05F;
  Adam opt({&p}, {&g}, cfg);
  for (int it = 0; it < 2000; ++it) {
    for (std::size_t i = 0; i < 2; ++i) g[i] = 2.0F * (p[i] - target[i]);
    opt.step();
  }
  EXPECT_NEAR(p[0], 1.0F, 1e-2F);
  EXPECT_NEAR(p[1], 2.0F, 1e-2F);
}

TEST(Trainer, LossDecreasesOnRegression) {
  Rng rng(1);
  Network net = make_mlp({3, 16, 2}, rng);
  // Learn a fixed affine map.
  std::vector<Tensor> inputs, targets;
  for (int i = 0; i < 128; ++i) {
    Tensor x = Tensor::random_uniform({3}, rng);
    Tensor y({2});
    y[0] = x[0] + 0.5F * x[1];
    y[1] = -x[2];
    inputs.push_back(std::move(x));
    targets.push_back(std::move(y));
  }
  Adam::Config adam_cfg;
  adam_cfg.learning_rate = 5e-3F;
  Adam opt(net.parameters(), net.gradients(), adam_cfg);
  MSELoss loss;
  TrainConfig cfg;
  cfg.epochs = 40;
  cfg.batch_size = 16;
  const auto history = train(net, opt, loss, inputs, targets, cfg, rng);
  ASSERT_EQ(history.size(), 40U);
  EXPECT_LT(history.back().mean_loss, 0.25F * history.front().mean_loss);
  EXPECT_LT(evaluate_loss(net, loss, inputs, targets), 0.05F);
}

TEST(Trainer, OverfitsTinyClassificationSet) {
  Rng rng(2);
  Network net = make_mlp({4, 24, 3}, rng);
  std::vector<Tensor> inputs, targets;
  for (int i = 0; i < 12; ++i) {
    inputs.push_back(Tensor::random_uniform({4}, rng));
    Tensor t({1});
    t[0] = float(i % 3);
    targets.push_back(std::move(t));
  }
  Adam::Config adam_cfg;
  adam_cfg.learning_rate = 1e-2F;
  Adam opt(net.parameters(), net.gradients(), adam_cfg);
  SoftmaxCrossEntropyLoss loss;
  TrainConfig cfg;
  cfg.epochs = 300;
  cfg.batch_size = 4;
  (void)train(net, opt, loss, inputs, targets, cfg, rng);
  EXPECT_EQ(evaluate_accuracy(net, inputs, targets), 1.0F);
}

TEST(Trainer, EpochCallbackFires) {
  Rng rng(3);
  Network net = make_mlp({2, 4, 1}, rng);
  std::vector<Tensor> inputs{Tensor::vector({0.0F, 1.0F})};
  std::vector<Tensor> targets{Tensor::vector({1.0F})};
  SGD opt(net.parameters(), net.gradients(), SGD::Config{});
  MSELoss loss;
  TrainConfig cfg;
  cfg.epochs = 5;
  int calls = 0;
  cfg.on_epoch = [&](const EpochStats& s) {
    EXPECT_EQ(s.epoch, std::size_t(calls));
    ++calls;
  };
  (void)train(net, opt, loss, inputs, targets, cfg, rng);
  EXPECT_EQ(calls, 5);
}

TEST(Trainer, RejectsBadInput) {
  Rng rng(4);
  Network net = make_mlp({2, 2}, rng);
  SGD opt(net.parameters(), net.gradients(), SGD::Config{});
  MSELoss loss;
  TrainConfig cfg;
  std::vector<Tensor> one{Tensor::vector({0.0F, 0.0F})};
  std::vector<Tensor> none;
  EXPECT_THROW((void)train(net, opt, loss, one, none, cfg, rng),
               std::invalid_argument);
  EXPECT_THROW((void)train(net, opt, loss, none, none, cfg, rng),
               std::invalid_argument);
  cfg.batch_size = 0;
  std::vector<Tensor> t{Tensor::vector({1.0F, 0.0F})};
  EXPECT_THROW((void)train(net, opt, loss, one, t, cfg, rng),
               std::invalid_argument);
}

// One epoch of the lab convnet reproduces golden weights
// (kernel_checks.hpp).
TEST(Trainer, LabConvnetOneEpochWeightsAreGolden) {
  check_lab_convnet_training_golden();
}

// The same at the lab convnet's full shape, and on a chain with every
// backward kind under both optimisers and losses (kernel_checks.hpp).
TEST(Trainer, LabConvnetFullShapeWeightsAreGolden) {
  check_lab_convnet_full_shape_golden();
}

TEST(Trainer, BackwardChainWeightsAreGolden) {
  check_backward_chain_training_golden();
}

}  // namespace
}  // namespace ranm
