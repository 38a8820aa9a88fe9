// The batched passes, forward_batch and propagate_box_batch (and
// propagate_ball_batch, which starts the box pass from the inputs), run a
// batch in blocks of 32 samples through two reused per-thread scratch
// buffers, one step per kernel call; train_step runs a whole minibatch
// through the same steps and keeps every step's output for the backward
// kernels. add() plans the steps once: a Conv2D
// or Dense layer and the ReLU or LeakyReLU after it are one step, whose
// kernel applies the activation as an epilogue (util/epilogue.hpp) before
// its outputs leave it, and Flatten is a view step that runs nothing. A
// step never reaches past the pass's last layer, so a pass that ends at
// an affine layer returns that layer's own outputs. Each block's inputs
// are packed neuron-major by a blocked transpose (pack_neuron_major); the
// box estimate forms the block's Δ-ball in the same store. forward_to and
// the per-layer kernels run no fused steps: they are the reference every
// pass is bit-identical to.
#include "nn/network.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "nn/activations.hpp"
#include "nn/flatten.hpp"
#include "util/tile.hpp"

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
  layers_.reserve(layers_.size() + 1);
  plan_.reserve(plan_.size() + 1);
  // The passes' steps (step()) are planned here, once per layer.
  LayerPlan plan;
  plan.affine = dynamic_cast<const AffineLayer*>(layer.get());
  plan.view = dynamic_cast<const Flatten*>(layer.get()) != nullptr;
  if (!plan_.empty() && plan_.back().affine != nullptr) {
    if (dynamic_cast<const ReLU*>(layer.get()) != nullptr) {
      plan_.back().next = ReLU::epilogue();
    } else if (const auto* leaky =
                   dynamic_cast<const LeakyReLU*>(layer.get())) {
      plan_.back().next = leaky->epilogue();
    }
  }
  layers_.push_back(std::move(layer));
  plan_.push_back(plan);
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

/// Elements per block of pack_neuron_major: the block's rows of one
/// block of samples stay in L1 however long the inputs are.
constexpr std::size_t kPackBlock = 16;
/// Samples whose values of one element pack_neuron_major gathers and
/// stores as one run of a row.
constexpr std::size_t kPackSamples = 4;

/// Ping-pong activation buffers of the calling thread, grown to the
/// high-water size and reused; zero-filled only as they grow. Every
/// kernel writes all of its output.
struct ForwardScratch {
  AlignedFloats ping, pong;

  void reserve(std::size_t size) {
    if (ping.size() >= size) return;
    ping.resize(size);
    pong.resize(size);
  }
};

ForwardScratch& forward_scratch() {
  thread_local ForwardScratch scratch;
  return scratch;
}

/// Ping-pong bound batches of the calling thread, reshaped per step.
/// Their storage only grows, to one block times the widest layer the
/// thread has propagated through; after that a reshape neither allocates
/// nor zero-fills.
using BoxScratch = BoxBatch[2];

BoxScratch& box_scratch() {
  thread_local BoxScratch scratch;
  return scratch;
}

/// The blocked transpose behind pack_neuron_major, the balls of
/// propagate_ball_batch and the minibatch of train_step, over the n
/// samples sample(0), ..., sample(n - 1). For each block of kPackBlock
/// elements, every group of kPackSamples samples gathers its values of one
/// element into a run that store(offset, values, count) writes at the
/// run's neuron-major offset; the samples left over store runs of one.
template <typename Sample, typename Store>
void pack_blocked(std::size_t n, Sample&& sample, std::size_t dim,
                  std::size_t stride, Store&& store) noexcept {
  for (std::size_t j0 = 0; j0 < dim; j0 += kPackBlock) {
    const std::size_t j1 = std::min(dim, j0 + kPackBlock);
    std::size_t i = 0;
    for (; i + kPackSamples <= n; i += kPackSamples) {
      const float* x[kPackSamples];
      for (std::size_t t = 0; t < kPackSamples; ++t) x[t] = sample(i + t);
      for (std::size_t j = j0; j < j1; ++j) {
        float run[kPackSamples];
        for (std::size_t t = 0; t < kPackSamples; ++t) run[t] = x[t][j];
        store(j * stride + i, run, kPackSamples);
      }
    }
    for (; i < n; ++i) {
      const float* x = sample(i);
      for (std::size_t j = j0; j < j1; ++j) store(j * stride + i, x + j, 1);
    }
  }
}

/// Throws unless every input has `dim` elements. The kernels read raw
/// pointers, so every input is checked before any of them runs.
void check_inputs(std::span<const Tensor> inputs, std::size_t dim,
                  const char* what) {
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (inputs[i].numel() != dim) {
      throw std::invalid_argument(
          std::string("Network::") + what + ": input " + std::to_string(i) +
          " has " + std::to_string(inputs[i].numel()) +
          " elements, expected " + std::to_string(dim));
    }
  }
}

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

void pack_neuron_major(std::span<const Tensor> inputs, std::size_t dim,
                       std::size_t stride, float* out) noexcept {
  pack_blocked(
      inputs.size(), [inputs](std::size_t i) { return inputs[i].data(); },
      dim, stride, [out](std::size_t at, const float* v, std::size_t count) {
        std::copy_n(v, count, out + at);
      });
}

Network::Step Network::step(std::size_t first, std::size_t k) const noexcept {
  const LayerPlan& p = plan_[first - 1];
  if (p.view) return {first, first, true};
  if (!p.next.identity() && first < k) return {first, first + 1, false};
  return {first, first, false};
}

void Network::forward_step(const Step& s, const float* in, float* out,
                           std::size_t n) const noexcept {
  const LayerPlan& p = plan_[s.first - 1];
  if (s.last > s.first) {
    p.affine->forward_fused(in, out, n, p.next);
  } else {
    layers_[s.first - 1]->forward_batch(in, out, n);
  }
}

float* Network::forward_steps(std::size_t l, std::size_t k, float* cur,
                              float* spare, std::size_t n,
                              float* out) const noexcept {
  for (std::size_t i = l; i <= k;) {
    const Step s = step(i, k);
    i = s.last + 1;
    if (s.view) continue;
    float* to = i > k && out != nullptr ? out : spare;
    forward_step(s, cur, to, n);
    spare = cur;
    cur = to;
  }
  return cur;
}

const BoxBatch* Network::propagate_steps(std::size_t l, std::size_t k,
                                         const BoxBatch* cur,
                                         BoxBatch (&scratch)[2], BoxBatch* out,
                                         const BoundBackend& backend) const {
  for (std::size_t i = l; i <= k;) {
    const Step s = step(i, k);
    i = s.last + 1;
    if (s.view) continue;
    BoxBatch* to = i > k && out != nullptr ? out
                   : cur == &scratch[0]    ? &scratch[1]
                                           : &scratch[0];
    const LayerPlan& p = plan_[s.first - 1];
    if (s.last > s.first) {
      p.affine->propagate_fused(backend, *cur, *to, p.next);
    } else {
      layers_[s.first - 1]->propagate_batch(backend, *cur, *to);
    }
    cur = to;
  }
  return cur;
}

FeatureBatch Network::forward_batch(std::size_t k,
                                    std::span<const Tensor> inputs) const {
  if (k != 0) check_layer_index(k, "forward_batch");
  const std::size_t n = inputs.size();
  if (n == 0) {
    return FeatureBatch(k == 0 ? 0 : layers_[k - 1]->output_size(), 0);
  }
  const std::size_t in_dim =
      k == 0 ? inputs.front().numel() : layers_.front()->input_size();
  check_inputs(inputs, in_dim, "forward_batch");
  const std::size_t out_dim = k == 0 ? in_dim : layers_[k - 1]->output_size();
  FeatureBatch out(out_dim, n);
  float* dst = out.storage().data();
  if (k == 0) {
    pack_neuron_major(inputs, in_dim, n, dst);
    return out;
  }

  // Blocks of samples ping-pong through the steps of layers 1..k in this
  // thread's scratch; the last step writes straight into the result when
  // one block covers the batch, and through the scratch into its columns
  // otherwise.
  std::size_t width = out_dim;
  for (std::size_t l = 0; l < k; ++l) {
    width = std::max(width, layers_[l]->input_size());
  }
  const std::size_t block = std::min(n, kForwardBlock);
  ForwardScratch& scratch = forward_scratch();
  scratch.reserve(width * block);
  for (std::size_t c0 = 0; c0 < n; c0 += block) {
    const std::size_t b = std::min(block, n - c0);
    float* src = scratch.ping.data();
    pack_neuron_major(inputs.subspan(c0, b), in_dim, b, src);
    const float* res = forward_steps(1, k, src, scratch.pong.data(), b,
                                     b == n ? dst : nullptr);
    if (res == dst) break;
    for (std::size_t j = 0; j < out_dim; ++j) {
      std::copy_n(res + j * b, b, dst + j * n + c0);
    }
  }
  return out;
}

FeatureBatch Network::forward_batch(std::span<const Tensor> inputs) const {
  return forward_batch(layers_.size(), inputs);
}

void Network::train_step(std::span<const Tensor> inputs,
                         std::span<const Tensor> targets,
                         std::span<const std::size_t> rows, const Loss& loss,
                         float grad_scale, double& loss_sum) {
  if (layers_.empty()) throw std::logic_error("Network: no layers");
  const std::size_t n = rows.size();
  const std::size_t in_dim = layers_.front()->input_size();
  for (const std::size_t r : rows) {
    if (r >= inputs.size() || r >= targets.size()) {
      throw std::invalid_argument("Network::train_step: row " +
                                  std::to_string(r) + " out of range");
    }
    if (inputs[r].numel() != in_dim) {
      throw std::invalid_argument(
          "Network::train_step: input " + std::to_string(r) + " has " +
          std::to_string(inputs[r].numel()) + " elements, expected " +
          std::to_string(in_dim));
    }
  }
  if (n == 0) return;

  // The forward pass keeps the packed minibatch and every step's output in
  // one buffer: layer l's output rows start at at[l] (at[0]: the input),
  // a view's are its input's, and kept[l] is false for the affine layer
  // of a fused step, whose own output no kernel writes.
  const std::size_t count = layers_.size();
  std::vector<std::size_t> at(count + 1, 0);
  std::vector<bool> kept(count + 1, true);
  std::size_t size = in_dim * n;
  std::size_t width = in_dim;
  for (std::size_t i = 1; i <= count;) {
    const Step s = step(i, count);
    width = std::max(width, layers_[s.first - 1]->output_size());
    if (s.view) {
      at[s.first] = at[s.first - 1];
    } else {
      at[s.last] = size;
      size += layers_[s.last - 1]->output_size() * n;
      kept[s.first] = s.first == s.last;
    }
    i = s.last + 1;
  }
  thread_local AlignedFloats acts_buffer, grads_buffer;
  float* acts = grown(acts_buffer, size);
  float* grads = grown(grads_buffer, 2 * width * n);
  pack_blocked(
      n, [&](std::size_t i) { return inputs[rows[i]].data(); }, in_dim, n,
      [acts](std::size_t to, const float* v, std::size_t len) {
        std::copy_n(v, len, acts + to);
      });
  for (std::size_t i = 1; i <= count;) {
    const Step s = step(i, count);
    if (!s.view) forward_step(s, acts + at[s.first - 1], acts + at[s.last], n);
    i = s.last + 1;
  }

  // The loss per sample in order, its gradient into the column.
  const float* out = acts + at[count];
  const std::size_t out_dim = layers_.back()->output_size();
  float* grad = grads;
  float* spare = grads + width * n;
  Tensor prediction(layers_.back()->output_shape());
  std::vector<float> values(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < out_dim; ++j) prediction[j] = out[j * n + i];
    LossResult lr = loss.evaluate(prediction, targets[rows[i]]);
    if (lr.grad.numel() != out_dim) {
      throw std::invalid_argument(
          "Network::train_step: loss gradient size mismatch");
    }
    values[i] = lr.value;
    lr.grad *= grad_scale;
    for (std::size_t j = 0; j < out_dim; ++j) grad[j * n + i] = lr.grad[j];
  }
  for (const float v : values) loss_sum += v;

  // Backward from the last layer down to the first with parameters: the
  // layers before it train nothing, so it computes no input gradient.
  std::size_t first_trained = count + 1;
  for (std::size_t l = 1; l <= count && first_trained > count; ++l) {
    if (!layers_[l - 1]->parameters().empty()) first_trained = l;
  }
  for (std::size_t l = count; l >= first_trained; --l) {
    // An affine layer reads only its input and an activation only its
    // output, so the output a fused step drops is never read.
    layers_[l - 1]->backward_batch(kept[l - 1] ? acts + at[l - 1] : nullptr,
                                   kept[l] ? acts + at[l] : nullptr, grad,
                                   l == first_trained ? nullptr : spare, n);
    std::swap(grad, spare);
  }
}

BoxBatch Network::propagate_box_batch(std::size_t l, std::size_t k,
                                      const BoxBatch& in,
                                      const BoundBackend& backend) const {
  check_layer_index(l, "propagate_box_batch");
  check_layer_index(k, "propagate_box_batch");
  if (l > k) {
    throw std::invalid_argument("Network::propagate_box_batch: l > k");
  }
  // Checked once here: the elementwise transfers pass any width through,
  // and Flatten runs nothing, so a slice starting at one would not catch
  // it.
  if (in.dimension() != layers_[l - 1]->input_size()) {
    throw std::invalid_argument(
        "Network::propagate_box_batch: input dimension " +
        std::to_string(in.dimension()) + " does not match layer " +
        std::to_string(l) + " input size " +
        std::to_string(layers_[l - 1]->input_size()));
  }
  // Blocks of samples ping-pong through the steps of layers l..k in this
  // thread's scratch, like forward_batch. One block covering the batch
  // reads `in` and has the last step write the result directly; a larger
  // batch gathers each block's columns into the scratch and scatters
  // layer k's rows into the result's columns.
  const std::size_t n = in.size();
  const bool blocked = n > kForwardBlock;
  BoxScratch& scratch = box_scratch();
  BoxBatch out;
  if (blocked) out.reshape(layers_[k - 1]->output_size(), n);
  // One pass even for an empty batch, so the result still gets its shape.
  for (std::size_t c0 = 0; c0 == 0 || c0 < n; c0 += kForwardBlock) {
    const BoxBatch* src = &in;
    if (blocked) {
      const std::size_t b = std::min(kForwardBlock, n - c0);
      scratch[0].reshape(in.dimension(), b);
      copy_columns(in, c0, scratch[0], 0, b);
      src = &scratch[0];
    }
    const BoxBatch* res = propagate_steps(l, k, src, scratch,
                                          blocked ? nullptr : &out, backend);
    if (blocked) {
      copy_columns(*res, 0, out, c0, res->size());
    } else if (res != &out) {
      out = *res;  // the last steps were views: no kernel wrote `out`
    }
  }
  return out;
}

BoxBatch Network::propagate_ball_batch(std::size_t kp, std::size_t k,
                                       std::span<const Tensor> inputs,
                                       float delta,
                                       const BoundBackend& backend) const {
  check_layer_index(k, "propagate_ball_batch");
  if (kp >= k) {
    throw std::invalid_argument(
        "Network::propagate_ball_batch: requires kp < k");
  }
  if (!std::isfinite(delta) || delta < 0.0F) {
    throw std::invalid_argument(
        "Network::propagate_ball_batch: delta must be finite and >= 0, "
        "got " +
        std::to_string(delta));
  }
  const std::size_t in_dim = layers_.front()->input_size();
  check_inputs(inputs, in_dim, "propagate_ball_batch");
  const std::size_t n = inputs.size();
  if (n == 0) return BoxBatch(layers_[k - 1]->output_size(), 0);
  const std::size_t ball_dim =
      kp == 0 ? in_dim : layers_[kp - 1]->output_size();
  // Each block's ball is formed in the bound scratch, from the pack itself
  // at kp = 0 and from the concrete steps of layers 1..kp otherwise, and
  // then propagated like a block of propagate_box_batch.
  const bool blocked = n > kForwardBlock;
  BoxScratch& boxes = box_scratch();
  ForwardScratch& concrete = forward_scratch();
  if (kp > 0) {
    std::size_t width = ball_dim;
    for (std::size_t l = 0; l < kp; ++l) {
      width = std::max(width, layers_[l]->input_size());
    }
    concrete.reserve(width * std::min(n, kForwardBlock));
  }
  BoxBatch out;
  if (blocked) out.reshape(layers_[k - 1]->output_size(), n);
  for (std::size_t c0 = 0; c0 < n; c0 += kForwardBlock) {
    const std::size_t b = blocked ? std::min(kForwardBlock, n - c0) : n;
    BoxBatch& ball = boxes[0];
    ball.reshape(ball_dim, b);
    float* lo = ball.lower().storage().data();
    float* hi = ball.upper().storage().data();
    // The expressions of BoxBatch::linf_ball.
    const auto ball_around = [=](std::size_t at, const float* v,
                                 std::size_t count) {
      for (std::size_t t = 0; t < count; ++t) {
        lo[at + t] = v[t] - delta;
        hi[at + t] = v[t] + delta;
      }
    };
    const std::span<const Tensor> block = inputs.subspan(c0, b);
    if (kp == 0) {
      pack_blocked(
          b, [block](std::size_t i) { return block[i].data(); }, in_dim, b,
          ball_around);
    } else {
      float* src = concrete.ping.data();
      pack_neuron_major(block, in_dim, b, src);
      ball_around(0, forward_steps(1, kp, src, concrete.pong.data(), b, nullptr),
                  ball_dim * b);
    }
    const BoxBatch* res = propagate_steps(kp + 1, k, &ball, boxes,
                                          blocked ? nullptr : &out, backend);
    if (blocked) {
      copy_columns(*res, 0, out, c0, b);
    } else if (res != &out) {
      out = *res;  // the last steps were views: no kernel wrote `out`
    }
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
