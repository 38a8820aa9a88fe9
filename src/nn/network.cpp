#include "nn/network.hpp"

#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace ranm {

void Network::add(std::unique_ptr<Layer> layer) {
  if (!layer) throw std::invalid_argument("Network::add: null layer");
  if (!layers_.empty()) {
    const std::size_t expected = layers_.back()->output_size();
    if (layer->input_size() != expected) {
      throw std::invalid_argument(
          "Network::add: layer " + layer->name() + " expects input size " +
          std::to_string(layer->input_size()) + " but previous layer " +
          layers_.back()->name() + " produces " + std::to_string(expected));
    }
  }
  layers_.push_back(std::move(layer));
}

void Network::check_layer_index(std::size_t k, const char* what) const {
  if (k == 0 || k > layers_.size()) {
    throw std::invalid_argument(std::string("Network::") + what +
                                ": layer index " + std::to_string(k) +
                                " out of range 1.." +
                                std::to_string(layers_.size()));
  }
}

Layer& Network::layer(std::size_t k) {
  check_layer_index(k, "layer");
  return *layers_[k - 1];
}

const Layer& Network::layer(std::size_t k) const {
  check_layer_index(k, "layer");
  return *layers_[k - 1];
}

Shape Network::input_shape() const {
  if (layers_.empty()) throw std::logic_error("Network: no layers");
  return layers_.front()->input_shape();
}

Shape Network::output_shape() const {
  if (layers_.empty()) throw std::logic_error("Network: no layers");
  return layers_.back()->output_shape();
}

Tensor Network::forward(const Tensor& x) const {
  return forward_to(layers_.size(), x);
}

Tensor Network::forward_to(std::size_t k, const Tensor& x) const {
  if (k == 0) return x;
  check_layer_index(k, "forward_to");
  Tensor v = x;
  for (std::size_t i = 0; i < k; ++i) v = layers_[i]->forward(v);
  return v;
}

Tensor Network::forward_range(std::size_t l, std::size_t k,
                              const Tensor& x) const {
  check_layer_index(l, "forward_range");
  check_layer_index(k, "forward_range");
  if (l > k) throw std::invalid_argument("Network::forward_range: l > k");
  Tensor v = x;
  for (std::size_t i = l - 1; i < k; ++i) v = layers_[i]->forward(v);
  return v;
}

namespace {

/// Samples per block of forward_batch and propagate_box_batch. The
/// ping-pong scratch holds one block's activations or bounds, so its size
/// is bounded by the widest layer, not by the batch.
constexpr std::size_t kForwardBlock = 32;

/// Ping-pong activation buffers of the calling thread, grown to the
/// high-water size and reused. Never zero-filled: every kernel writes all
/// of its output.
struct ForwardScratch {
  std::unique_ptr<float[]> ping, pong;
  std::size_t capacity = 0;

  void reserve(std::size_t size) {
    if (capacity >= size) return;
    ping = std::make_unique_for_overwrite<float[]>(size);
    pong = std::make_unique_for_overwrite<float[]>(size);
    capacity = size;
  }
};

/// Scatters sample-major inputs into neuron-major rows of the given
/// stride: element j of input i lands at out[j * stride + i].
void pack(std::span<const Tensor> inputs, std::size_t dim, std::size_t stride,
          float* out) noexcept {
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const float* x = inputs[i].data();
    for (std::size_t j = 0; j < dim; ++j) out[j * stride + i] = x[j];
  }
}

}  // namespace

FeatureBatch Network::forward_batch(std::size_t k,
                                    std::span<const Tensor> inputs) const {
  if (k != 0) check_layer_index(k, "forward_batch");
  const std::size_t n = inputs.size();
  if (n == 0) {
    return FeatureBatch(k == 0 ? 0 : layers_[k - 1]->output_size(), 0);
  }
  // The kernels read raw pointers, so every input is checked before any
  // of them runs.
  const std::size_t in_dim =
      k == 0 ? inputs.front().numel() : layers_.front()->input_size();
  for (std::size_t i = 0; i < n; ++i) {
    if (inputs[i].numel() != in_dim) {
      throw std::invalid_argument(
          "Network::forward_batch: input " + std::to_string(i) + " has " +
          std::to_string(inputs[i].numel()) + " elements, expected " +
          std::to_string(in_dim));
    }
  }
  const std::size_t out_dim = k == 0 ? in_dim : layers_[k - 1]->output_size();
  FeatureBatch out(out_dim, n);
  float* dst = out.storage().data();
  if (k == 0) {
    pack(inputs, in_dim, n, dst);
    return out;
  }

  // Blocks of samples ping-pong through layers 1..k-1 in this thread's
  // scratch; layer k writes straight into the result when one block
  // covers the batch, and through the scratch into its columns otherwise.
  std::size_t width = out_dim;
  for (std::size_t l = 0; l < k; ++l) {
    width = std::max(width, layers_[l]->input_size());
  }
  const std::size_t block = std::min(n, kForwardBlock);
  thread_local ForwardScratch scratch;
  scratch.reserve(width * block);
  for (std::size_t c0 = 0; c0 < n; c0 += block) {
    const std::size_t b = std::min(block, n - c0);
    float* src = scratch.ping.get();
    float* tmp = scratch.pong.get();
    pack(inputs.subspan(c0, b), in_dim, b, src);
    for (std::size_t l = 0; l + 1 < k; ++l) {
      layers_[l]->forward_batch(src, tmp, b);
      std::swap(src, tmp);
    }
    if (b == n) {
      layers_[k - 1]->forward_batch(src, dst, n);
      break;
    }
    layers_[k - 1]->forward_batch(src, tmp, b);
    for (std::size_t j = 0; j < out_dim; ++j) {
      std::copy_n(tmp + j * b, b, dst + j * n + c0);
    }
  }
  return out;
}

FeatureBatch Network::forward_batch(std::span<const Tensor> inputs) const {
  return forward_batch(layers_.size(), inputs);
}

void Network::forward_trace(const Tensor& x, std::vector<Tensor>& acts) const {
  if (layers_.empty()) throw std::logic_error("Network: no layers");
  acts.resize(layers_.size() + 1);
  acts[0] = x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    acts[i + 1] = layers_[i]->forward(acts[i]);
  }
}

Tensor Network::backward(std::span<const Tensor> acts,
                         const Tensor& grad_out) {
  if (layers_.empty()) throw std::logic_error("Network: no layers");
  if (acts.size() != layers_.size() + 1) {
    throw std::invalid_argument(
        "Network::backward: need one activation per layer plus the input");
  }
  Tensor g = grad_out;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    g = layers_[i]->backward(acts[i], acts[i + 1], g);
  }
  return g;
}

namespace {

/// Ping-pong bound batches of the calling thread for propagate_box_batch,
/// reshaped per layer. Their storage only grows, to one block times the
/// widest layer the thread has propagated through; after that a reshape
/// neither allocates nor zero-fills.
struct BoxScratch {
  BoxBatch ping, pong;
};

/// Copies `count` columns of every bound row of `from`, starting at column
/// `from_col`, to `to`'s rows starting at column `to_col`.
void copy_columns(const BoxBatch& from, std::size_t from_col, BoxBatch& to,
                  std::size_t to_col, std::size_t count) {
  for (std::size_t j = 0; j < from.dimension(); ++j) {
    std::copy_n(from.lo_row(j).data() + from_col, count,
                to.lo_row(j).data() + to_col);
    std::copy_n(from.hi_row(j).data() + from_col, count,
                to.hi_row(j).data() + to_col);
  }
}

}  // namespace

BoxBatch Network::propagate_box_batch(std::size_t l, std::size_t k,
                                      const BoxBatch& in,
                                      const BoundBackend& backend) const {
  check_layer_index(l, "propagate_box_batch");
  check_layer_index(k, "propagate_box_batch");
  if (l > k) {
    throw std::invalid_argument("Network::propagate_box_batch: l > k");
  }
  // Checked once here: the elementwise and Flatten transfers pass any
  // width through, so a slice starting at one would not catch it.
  if (in.dimension() != layers_[l - 1]->input_size()) {
    throw std::invalid_argument(
        "Network::propagate_box_batch: input dimension " +
        std::to_string(in.dimension()) + " does not match layer " +
        std::to_string(l) + " input size " +
        std::to_string(layers_[l - 1]->input_size()));
  }
  // Blocks of samples ping-pong through layers l..k-1 in this thread's
  // scratch, like forward_batch. One block covering the batch reads `in`
  // and has layer k write the result directly; a larger batch gathers
  // each block's columns into the scratch and scatters layer k's rows
  // into the result's columns.
  const std::size_t n = in.size();
  const bool blocked = n > kForwardBlock;
  thread_local BoxScratch scratch;
  BoxBatch out;
  if (blocked) out.reshape(layers_[k - 1]->output_size(), n);
  // One pass even for an empty batch, so the result still gets its shape.
  for (std::size_t c0 = 0; c0 == 0 || c0 < n; c0 += kForwardBlock) {
    const std::size_t b = blocked ? std::min(kForwardBlock, n - c0) : n;
    // `next` is the scratch batch the next layer writes; `spare` holds
    // its input when that came from the scratch.
    BoxBatch* next = &scratch.ping;
    BoxBatch* spare = &scratch.pong;
    const BoxBatch* src = &in;
    if (blocked) {
      next->reshape(in.dimension(), b);
      copy_columns(in, c0, *next, 0, b);
      src = next;
      std::swap(next, spare);
    }
    for (std::size_t i = l - 1; i + 1 < k; ++i) {
      layers_[i]->propagate_batch(backend, *src, *next);
      src = next;
      std::swap(next, spare);
    }
    if (!blocked) {
      layers_[k - 1]->propagate_batch(backend, *src, out);
      break;
    }
    layers_[k - 1]->propagate_batch(backend, *src, *next);
    copy_columns(*next, 0, out, c0, b);
  }
  return out;
}

Zonotope Network::propagate_zonotope(std::size_t l, std::size_t k,
                                     const Zonotope& in) const {
  check_layer_index(l, "propagate_zonotope");
  check_layer_index(k, "propagate_zonotope");
  if (l > k) {
    throw std::invalid_argument("Network::propagate_zonotope: l > k");
  }
  Zonotope v = in;
  for (std::size_t i = l - 1; i < k; ++i) v = layers_[i]->propagate(v);
  return v;
}

std::vector<Tensor*> Network::parameters() {
  std::vector<Tensor*> out;
  for (auto& layer : layers_) {
    for (Tensor* p : layer->parameters()) out.push_back(p);
  }
  return out;
}

std::vector<Tensor*> Network::gradients() {
  std::vector<Tensor*> out;
  for (auto& layer : layers_) {
    for (Tensor* g : layer->gradients()) out.push_back(g);
  }
  return out;
}

std::size_t Network::num_parameters() {
  std::size_t n = 0;
  for (Tensor* p : parameters()) n += p->numel();
  return n;
}

void Network::zero_gradients() {
  for (Tensor* g : gradients()) g->zero();
}

void Network::init_params(Rng& rng) {
  for (auto& layer : layers_) layer->init_params(rng);
}

std::string Network::summary() const {
  std::ostringstream out;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    out << "  g" << (i + 1) << ": " << layers_[i]->name() << "  "
        << shape_str(layers_[i]->input_shape()) << " -> "
        << shape_str(layers_[i]->output_shape()) << '\n';
  }
  return out.str();
}

}  // namespace ranm
