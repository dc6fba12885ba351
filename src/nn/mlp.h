#pragma once

#include <memory>
#include <vector>

#include "nn/linear.h"

namespace taser::nn {

/// Two-layer perceptron with GeLU: out = W2·gelu(W1·x + b1) + b2.
class Mlp : public Module {
 public:
  Mlp(std::int64_t in, std::int64_t hidden, std::int64_t out, util::Rng& rng)
      : fc1_(in, hidden, rng), fc2_(hidden, out, rng) {
    register_module("fc1", fc1_);
    register_module("fc2", fc2_);
  }

  Tensor forward(const Tensor& x) const {
    return fc2_.forward(fc1_.forward_gelu(x));
  }

  const Linear& fc1() const { return fc1_; }
  const Linear& fc2() const { return fc2_; }

 private:
  Linear fc1_, fc2_;
};

}  // namespace taser::nn
