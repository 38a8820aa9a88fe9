#include "core/multi_layer_monitor.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>

#include "util/aligned.hpp"

namespace ranm {

std::string_view warn_policy_name(WarnPolicy policy) noexcept {
  switch (policy) {
    case WarnPolicy::kAny:
      return "any";
    case WarnPolicy::kAll:
      return "all";
    case WarnPolicy::kMajority:
      return "majority";
  }
  return "?";
}

MultiLayerMonitor::MultiLayerMonitor(const Network& net, WarnPolicy policy)
    : net_(net), policy_(policy) {}

void MultiLayerMonitor::attach(std::size_t layer_k, NeuronSelection selection,
                               std::unique_ptr<Monitor> monitor) {
  if (!monitor) {
    throw std::invalid_argument("MultiLayerMonitor::attach: null monitor");
  }
  if (layer_k == 0 || layer_k > net_.num_layers()) {
    throw std::invalid_argument(
        "MultiLayerMonitor::attach: layer out of range");
  }
  if (selection.input_dim() != net_.layer(layer_k).output_size()) {
    throw std::invalid_argument(
        "MultiLayerMonitor::attach: selection dimension does not match "
        "layer output size");
  }
  if (monitor->dimension() != selection.output_dim()) {
    throw std::invalid_argument(
        "MultiLayerMonitor::attach: monitor dimension does not match "
        "selection");
  }
  max_layer_ = std::max(max_layer_, layer_k);
  entries_.push_back(Entry{layer_k, std::move(selection), std::move(monitor)});
}

const Monitor& MultiLayerMonitor::monitor(std::size_t i) const {
  if (i >= entries_.size()) {
    throw std::out_of_range("MultiLayerMonitor::monitor");
  }
  return *entries_[i].monitor;
}

Monitor& MultiLayerMonitor::monitor(std::size_t i) {
  if (i >= entries_.size()) {
    throw std::out_of_range("MultiLayerMonitor::monitor");
  }
  return *entries_[i].monitor;
}

std::size_t MultiLayerMonitor::layer_of(std::size_t i) const {
  if (i >= entries_.size()) {
    throw std::out_of_range("MultiLayerMonitor::layer_of");
  }
  return entries_[i].layer_k;
}

template <typename Visit>
void MultiLayerMonitor::for_each_layer_features(const Tensor& input,
                                                Visit&& visit) const {
  Tensor v = input;
  for (std::size_t k = 1; k <= max_layer_; ++k) {
    v = net_.layer(k).forward(v);
    for (const Entry& e : entries_) {
      if (e.layer_k != k) continue;
      const std::vector<float> full(v.data(), v.data() + v.numel());
      visit(e, e.selection.project(full));
    }
  }
}

template <typename Visit>
void MultiLayerMonitor::for_each_layer_features_batch(
    std::span<const Tensor> inputs, Visit&& visit) const {
  // Network::forward_batch's block: each block of samples is packed
  // neuron-major and runs through the network's steps in two block-sized
  // buffers, one segment (Network::forward_steps) per attached layer, so
  // that no step fuses across one and every attached layer's activations
  // are its own. Each segment ends by copying the layer's selected rows
  // into the block's columns of the entries' batches.
  constexpr std::size_t kBlock = 32;
  const std::size_t n = inputs.size();
  const std::size_t in_dim = net_.layer(1).input_size();
  for (const Tensor& x : inputs) {
    if (x.numel() != in_dim) {
      throw std::invalid_argument(
          "MultiLayerMonitor: inputs do not match the network input size");
    }
  }
  std::vector<FeatureBatch> features;
  features.reserve(entries_.size());
  for (const Entry& e : entries_) {
    features.emplace_back(e.selection.output_dim(), n);
  }
  std::vector<std::size_t> attached;  // the segments' last layers, ascending
  for (const Entry& e : entries_) attached.push_back(e.layer_k);
  std::sort(attached.begin(), attached.end());
  attached.erase(std::unique(attached.begin(), attached.end()),
                 attached.end());
  std::size_t width = in_dim;
  for (std::size_t k = 1; k <= max_layer_; ++k) {
    width = std::max(width, net_.layer(k).output_size());
  }
  const std::size_t block = std::min(n, kBlock);
  AlignedFloats ping(width * block), pong(width * block);
  for (std::size_t c0 = 0; c0 < n; c0 += block) {
    const std::size_t b = std::min(block, n - c0);
    float* cur = ping.data();
    pack_neuron_major(inputs.subspan(c0, b), in_dim, b, cur);
    std::size_t done = 0;  // cur holds layer done's activations
    for (const std::size_t k : attached) {
      float* spare = cur == ping.data() ? pong.data() : ping.data();
      cur = net_.forward_steps(done + 1, k, cur, spare, b, nullptr);
      done = k;
      for (std::size_t e = 0; e < entries_.size(); ++e) {
        if (entries_[e].layer_k != k) continue;
        const std::vector<std::size_t>& kept = entries_[e].selection.kept();
        for (std::size_t j = 0; j < kept.size(); ++j) {
          std::copy_n(cur + kept[j] * b, b,
                      features[e].neuron(j).begin() + std::ptrdiff_t(c0));
        }
      }
    }
  }
  for (std::size_t e = 0; e < entries_.size(); ++e) {
    visit(entries_[e], features[e]);
  }
}

void MultiLayerMonitor::build_standard(const std::vector<Tensor>& data,
                                       std::size_t batch_size) {
  if (entries_.empty()) {
    throw std::logic_error("MultiLayerMonitor: no monitors attached");
  }
  if (batch_size == 0) {
    throw std::invalid_argument(
        "MultiLayerMonitor::build_standard: zero batch size");
  }
  for (std::size_t start = 0; start < data.size(); start += batch_size) {
    const std::size_t n = std::min(batch_size, data.size() - start);
    for_each_layer_features_batch(
        {data.data() + start, n},
        [](const Entry& e, const FeatureBatch& batch) {
          e.monitor->observe_batch(batch);
        });
  }
}

void MultiLayerMonitor::build_robust(const std::vector<Tensor>& data,
                                     const PerturbationSpec& spec,
                                     std::size_t batch_size) {
  if (entries_.empty()) {
    throw std::logic_error("MultiLayerMonitor: no monitors attached");
  }
  std::size_t min_layer = max_layer_;
  for (const Entry& e : entries_) min_layer = std::min(min_layer, e.layer_k);
  if (spec.kp >= min_layer) {
    throw std::invalid_argument(
        "MultiLayerMonitor::build_robust: kp must be below every attached "
        "layer (Definition 1 requires kp < k)");
  }
  if (!std::isfinite(spec.delta) || spec.delta < 0.0F) {
    throw std::invalid_argument(
        "MultiLayerMonitor::build_robust: delta must be finite and >= 0");
  }
  if (batch_size == 0) {
    throw std::invalid_argument(
        "MultiLayerMonitor::build_robust: zero batch size");
  }

  // Both domains propagate one segment per attached layer, in ascending
  // order: the network's steps run between attached layers and never fuse
  // across one, so every attached layer's bounds are its own, and only
  // attached layers are concretised. The box domain propagates whole
  // chunks on the vectorized backend's batched kernels, the zonotope
  // domain one sample at a time (its generators are the batch its affine
  // kernels run). Either way the bounds are folded into each attached
  // monitor one batched call per chunk, so the monitors' per-call setup
  // amortises over the chunk.
  std::vector<std::size_t> attached;
  for (const Entry& e : entries_) attached.push_back(e.layer_k);
  std::sort(attached.begin(), attached.end());
  attached.erase(std::unique(attached.begin(), attached.end()),
                 attached.end());
  for (std::size_t start = 0; start < data.size(); start += batch_size) {
    const std::size_t n = std::min(batch_size, data.size() - start);
    const std::span<const Tensor> chunk(data.data() + start, n);
    std::vector<FeatureBatch> lo_batches, hi_batches;
    lo_batches.reserve(entries_.size());
    hi_batches.reserve(entries_.size());
    for (const Entry& e : entries_) {
      lo_batches.emplace_back(e.selection.output_dim(), n);
      hi_batches.emplace_back(e.selection.output_dim(), n);
    }
    if (spec.domain == BoundDomain::kBox) {
      const VectorizedBoundBackend backend;
      BoxBatch box;
      std::size_t done = spec.kp;  // box holds layer done's bounds
      for (const std::size_t k : attached) {
        box = done == spec.kp
                  ? net_.propagate_ball_batch(spec.kp, k, chunk, spec.delta,
                                              backend)
                  : net_.propagate_box_batch(done + 1, k, box, backend);
        done = k;
        for (std::size_t e = 0; e < entries_.size(); ++e) {
          if (entries_[e].layer_k != k) continue;
          // Batched projection: selected source rows copy straight into
          // the entry's bound matrices.
          const std::vector<std::size_t>& kept = entries_[e].selection.kept();
          for (std::size_t j = 0; j < kept.size(); ++j) {
            const std::span<const float> lo_src = box.lo_row(kept[j]);
            const std::span<const float> hi_src = box.hi_row(kept[j]);
            std::copy(lo_src.begin(), lo_src.end(),
                      lo_batches[e].neuron(j).begin());
            std::copy(hi_src.begin(), hi_src.end(),
                      hi_batches[e].neuron(j).begin());
          }
        }
      }
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        const Tensor at_kp = net_.forward_to(spec.kp, chunk[i]);
        Zonotope zono = Zonotope::linf_ball(at_kp.span(), spec.delta);
        std::size_t done = spec.kp;  // zono is layer done's zonotope
        for (const std::size_t k : attached) {
          zono = net_.propagate_zonotope(done + 1, k, zono);
          done = k;
          const IntervalVector box = zono.to_box();
          for (std::size_t e = 0; e < entries_.size(); ++e) {
            if (entries_[e].layer_k != k) continue;
            auto [lo, hi] = entries_[e].selection.project_bounds(
                box.lowers(), box.uppers());
            lo_batches[e].set_sample(i, lo);
            hi_batches[e].set_sample(i, hi);
          }
        }
      }
    }
    for (std::size_t e = 0; e < entries_.size(); ++e) {
      entries_[e].monitor->observe_bounds_batch(lo_batches[e],
                                                hi_batches[e]);
    }
  }
}

void MultiLayerMonitor::warns_batch(std::span<const Tensor> inputs,
                                    std::span<bool> out) const {
  if (entries_.empty()) {
    throw std::logic_error("MultiLayerMonitor: no monitors attached");
  }
  if (out.size() != inputs.size()) {
    throw std::invalid_argument(
        "MultiLayerMonitor::warns_batch: output size does not match "
        "inputs");
  }
  const std::size_t n = inputs.size();
  if (n == 0) return;
  // warn_count[i] = number of attached monitors warning on sample i.
  std::vector<std::size_t> warn_count(n, 0);
  auto member_out = std::make_unique<bool[]>(n);
  for_each_layer_features_batch(
      inputs, [&](const Entry& e, const FeatureBatch& batch) {
        std::span<bool> votes(member_out.get(), n);
        e.monitor->contains_batch(batch, votes);
        for (std::size_t i = 0; i < n; ++i) warn_count[i] += !votes[i];
      });
  for (std::size_t i = 0; i < n; ++i) {
    switch (policy_) {
      case WarnPolicy::kAny:
        out[i] = warn_count[i] > 0;
        break;
      case WarnPolicy::kAll:
        out[i] = warn_count[i] == entries_.size();
        break;
      case WarnPolicy::kMajority:
        out[i] = 2 * warn_count[i] > entries_.size();
        break;
    }
  }
}

bool MultiLayerMonitor::combine(const std::vector<bool>& votes) const {
  std::size_t warn_count = 0;
  for (bool v : votes) warn_count += v;
  switch (policy_) {
    case WarnPolicy::kAny:
      return warn_count > 0;
    case WarnPolicy::kAll:
      return warn_count == votes.size();
    case WarnPolicy::kMajority:
      return 2 * warn_count > votes.size();
  }
  return false;
}

std::vector<bool> MultiLayerMonitor::warns_each(const Tensor& input) const {
  if (entries_.empty()) {
    throw std::logic_error("MultiLayerMonitor: no monitors attached");
  }
  std::vector<bool> votes(entries_.size(), false);
  for_each_layer_features(
      input, [&](const Entry& e, const std::vector<float>& feat) {
        const std::size_t idx = std::size_t(&e - entries_.data());
        votes[idx] = e.monitor->warn(feat);
      });
  return votes;
}

bool MultiLayerMonitor::warns(const Tensor& input) const {
  return combine(warns_each(input));
}

}  // namespace ranm
