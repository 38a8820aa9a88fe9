#include "nn/layer.hpp"

#include <stdexcept>

namespace ranm {

Tensor Layer::forward(const Tensor& x) const {
  if (x.numel() != input_size()) {
    throw std::invalid_argument(name() + ": input has " +
                                std::to_string(x.numel()) +
                                " elements, expected " +
                                std::to_string(input_size()));
  }
  Tensor y(output_shape());
  forward_batch(x.data(), y.data(), 1);
  return y;
}

}  // namespace ranm
