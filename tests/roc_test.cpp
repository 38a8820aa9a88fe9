#include "eval/roc.hpp"

#include <gtest/gtest.h>

#include "nn/init.hpp"
#include "util/rng.hpp"

namespace ranm {
namespace {

TEST(Roc, PerfectSeparationAucOne) {
  const std::vector<double> in{0, 0, 1, 1};
  const std::vector<double> ood{2, 3, 4};
  const RocCurve curve = compute_roc(in, ood);
  EXPECT_DOUBLE_EQ(curve.auc, 1.0);
  // Some threshold achieves fpr 0 / tpr 1.
  bool perfect = false;
  for (const auto& p : curve.points) {
    perfect |= (p.fpr == 0.0 && p.tpr == 1.0);
  }
  EXPECT_TRUE(perfect);
}

TEST(Roc, IdenticalDistributionsAucHalf) {
  const std::vector<double> in{1, 2, 3, 4};
  const std::vector<double> ood{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(compute_roc(in, ood).auc, 0.5);
}

TEST(Roc, InvertedScoresAucZero) {
  const std::vector<double> in{5, 6};
  const std::vector<double> ood{1, 2};
  EXPECT_DOUBLE_EQ(compute_roc(in, ood).auc, 0.0);
}

TEST(Roc, CurveEndpoints) {
  const std::vector<double> in{0, 1};
  const std::vector<double> ood{2};
  const RocCurve curve = compute_roc(in, ood);
  // Lowest threshold warns on everything; the extra top threshold on
  // nothing.
  EXPECT_DOUBLE_EQ(curve.points.front().fpr, 1.0);
  EXPECT_DOUBLE_EQ(curve.points.front().tpr, 1.0);
  EXPECT_DOUBLE_EQ(curve.points.back().fpr, 0.0);
  EXPECT_DOUBLE_EQ(curve.points.back().tpr, 0.0);
}

TEST(Roc, MonotoneInThreshold) {
  Rng rng(3);
  std::vector<double> in, ood;
  for (int i = 0; i < 50; ++i) {
    in.push_back(rng.normal(0.0, 1.0));
    ood.push_back(rng.normal(1.0, 1.0));
  }
  const RocCurve curve = compute_roc(in, ood);
  EXPECT_GT(curve.auc, 0.5);
  for (std::size_t i = 1; i < curve.points.size(); ++i) {
    EXPECT_GT(curve.points[i].threshold, curve.points[i - 1].threshold);
    EXPECT_LE(curve.points[i].fpr, curve.points[i - 1].fpr);
    EXPECT_LE(curve.points[i].tpr, curve.points[i - 1].tpr);
  }
}

TEST(Roc, RejectsEmpty) {
  const std::vector<double> some{1.0};
  EXPECT_THROW((void)compute_roc({}, some), std::invalid_argument);
  EXPECT_THROW((void)compute_roc(some, {}), std::invalid_argument);
}

TEST(Roc, HammingScoresSeparateFarInputs) {
  Rng rng(4);
  Network net = make_mlp({4, 12, 6}, rng);
  MonitorBuilder builder(net, net.num_layers());
  std::vector<Tensor> train, far;
  for (int i = 0; i < 40; ++i) {
    train.push_back(Tensor::random_uniform({4}, rng));
  }
  for (int i = 0; i < 20; ++i) {
    far.push_back(Tensor::random_uniform({4}, rng, 4.0F, 6.0F));
  }
  NeuronStats stats = builder.collect_stats(train, true);
  IntervalMonitor monitor(ThresholdSpec::from_means(stats));
  builder.build_standard(monitor, train);

  const auto in_scores = hamming_scores(builder, monitor, train, 6);
  const auto far_scores = hamming_scores(builder, monitor, far, 6);
  // Training inputs are in the set: score 0.
  for (double s : in_scores) EXPECT_DOUBLE_EQ(s, 0.0);
  // Far inputs rank above training inputs on average. (The margin is
  // modest: extreme inputs saturate every neuron to one pattern, which
  // may be Hamming-close to some accepted word.)
  const RocCurve curve = compute_roc(in_scores, far_scores);
  EXPECT_GT(curve.auc, 0.55);
  double far_mean = 0.0;
  for (double s : far_scores) far_mean += s;
  EXPECT_GT(far_mean / double(far_scores.size()), 0.0);
}

}  // namespace
}  // namespace ranm
