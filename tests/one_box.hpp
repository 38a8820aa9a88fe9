// Single-box helpers for tests. The interval transfer function is batched
// only, so one box is a one-column BoxBatch.
#pragma once

#include <cstddef>
#include <span>

#include "absint/bound_backend.hpp"
#include "nn/network.hpp"

namespace ranm {

/// The one-column batch holding `box`.
inline BoxBatch one_column(const IntervalVector& box) {
  BoxBatch batch(box.size(), 1);
  batch.set_box(0, box);
  return batch;
}

/// Box propagation of one box through layers l..k on `backend` (the
/// production backend by default).
inline IntervalVector propagate_one(
    const Network& net, std::size_t l, std::size_t k,
    const IntervalVector& box,
    const BoundBackend& backend = VectorizedBoundBackend{}) {
  return net.propagate_box_batch(l, k, one_column(box), backend).box(0);
}

/// Box propagation of the L-infinity ball of radius `delta` around
/// `center` through layers 1..k.
inline IntervalVector propagate_ball(const Network& net, std::size_t k,
                                     std::span<const float> center,
                                     float delta) {
  return propagate_one(net, 1, k, IntervalVector::linf_ball(center, delta));
}

}  // namespace ranm
