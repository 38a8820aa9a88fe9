// Quantitative monitoring evaluation (in the spirit of ref [11], "Into
// the unknown: active monitoring of neural networks").
//
// A binary warn/no-warn monitor gives one operating point; a *score*
// (e.g. the Hamming distance of the operation pattern to the accepted
// set) gives a whole ROC curve. Higher score = more anomalous.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "core/interval_monitor.hpp"
#include "core/monitor_builder.hpp"

namespace ranm {

/// One ROC operating point: warn iff score >= threshold.
struct RocPoint {
  double threshold = 0.0;
  double fpr = 0.0;  // fraction of in-distribution inputs warned
  double tpr = 0.0;  // fraction of out-of-distribution inputs warned
};

/// ROC curve plus its area under curve.
struct RocCurve {
  std::vector<RocPoint> points;  // ascending threshold
  double auc = 0.0;
};

/// Computes the ROC of a score where in-distribution inputs should score
/// low and out-of-distribution inputs high. AUC is the Mann-Whitney
/// statistic (ties count half), so 0.5 = chance, 1.0 = perfect.
[[nodiscard]] RocCurve compute_roc(std::span<const double> in_dist_scores,
                                   std::span<const double> ood_scores);

/// Hamming-distance scores (in code bits) of inputs against a BDD
/// monitor's accepted pattern set, capped at `max_radius` (scores beyond
/// the cap saturate to max_radius + 1). One score per input.
[[nodiscard]] std::vector<double> hamming_scores(
    const MonitorBuilder& builder, const IntervalMonitor& monitor,
    const std::vector<Tensor>& inputs, unsigned max_radius);

}  // namespace ranm
