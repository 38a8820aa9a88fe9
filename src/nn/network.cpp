#include "nn/network.hpp"

#include <sstream>
#include <stdexcept>
#include <string>

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

FeatureBatch Network::forward_batch(std::size_t k,
                                    std::span<const Tensor> inputs) const {
  if (k != 0) check_layer_index(k, "forward_batch");
  if (inputs.empty()) {
    const std::size_t dim =
        k == 0 ? 0 : layers_[k - 1]->output_size();
    return FeatureBatch(dim, 0);
  }
  if (k == 0) {
    FeatureBatch out(inputs.front().numel(), inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      out.set_sample(i, inputs[i].span());
    }
    return out;
  }
  FeatureBatch out(layers_[k - 1]->output_size(), inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    Tensor v = inputs[i];
    for (std::size_t l = 0; l < k; ++l) v = layers_[l]->forward(v);
    out.set_sample(i, v.span());
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
  BoxBatch v = layers_[l - 1]->propagate_batch(backend, in);
  for (std::size_t i = l; i < k; ++i) {
    v = layers_[i]->propagate_batch(backend, v);
  }
  return v;
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
