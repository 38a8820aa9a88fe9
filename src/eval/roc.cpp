#include "eval/roc.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

namespace ranm {

RocCurve compute_roc(std::span<const double> in_dist_scores,
                     std::span<const double> ood_scores) {
  if (in_dist_scores.empty() || ood_scores.empty()) {
    throw std::invalid_argument("compute_roc: empty score set");
  }
  // Candidate thresholds: every distinct score, plus one above the max so
  // the curve includes the (0, 0) operating point.
  std::set<double> thresholds(in_dist_scores.begin(), in_dist_scores.end());
  thresholds.insert(ood_scores.begin(), ood_scores.end());
  const double top = *thresholds.rbegin() + 1.0;
  thresholds.insert(top);

  RocCurve curve;
  curve.points.reserve(thresholds.size());
  for (double t : thresholds) {
    RocPoint p;
    p.threshold = t;
    std::size_t fp = 0, tp = 0;
    for (double s : in_dist_scores) fp += s >= t;
    for (double s : ood_scores) tp += s >= t;
    p.fpr = double(fp) / double(in_dist_scores.size());
    p.tpr = double(tp) / double(ood_scores.size());
    curve.points.push_back(p);
  }

  // AUC as the Mann-Whitney U statistic: P(ood > in) + 0.5 P(tie).
  double wins = 0.0;
  for (double o : ood_scores) {
    for (double i : in_dist_scores) {
      if (o > i) {
        wins += 1.0;
      } else if (o == i) {
        wins += 0.5;
      }
    }
  }
  curve.auc = wins / (double(ood_scores.size()) * double(in_dist_scores.size()));
  return curve;
}

std::vector<double> hamming_scores(const MonitorBuilder& builder,
                                   const IntervalMonitor& monitor,
                                   const std::vector<Tensor>& inputs,
                                   unsigned max_radius) {
  std::vector<double> scores;
  scores.reserve(inputs.size());
  // Features are extracted through the batched pipeline; the Hamming DP
  // itself is per-sample, fed from one reused gather buffer.
  constexpr std::size_t kChunk = MonitorBuilder::kDefaultBatch;
  std::vector<float> feat(builder.feature_dim());
  for (std::size_t start = 0; start < inputs.size(); start += kChunk) {
    const std::size_t n = std::min(kChunk, inputs.size() - start);
    const FeatureBatch batch =
        builder.features_batch({inputs.data() + start, n});
    for (std::size_t i = 0; i < n; ++i) {
      batch.copy_sample(i, feat);
      const std::optional<unsigned> d =
          monitor.hamming_distance(feat, max_radius);
      scores.push_back(d ? double(*d) : double(max_radius) + 1.0);
    }
  }
  return scores;
}

}  // namespace ranm
