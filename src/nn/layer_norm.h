#pragma once

#include "nn/module.h"
#include "tensor/ops.h"

namespace taser::nn {

/// Layer normalisation over the last dimension with learnable affine.
class LayerNorm : public Module {
 public:
  explicit LayerNorm(std::int64_t dim, float eps = 1e-5f) : eps_(eps) {
    gamma_ = register_parameter("gamma", Tensor::ones({dim}));
    beta_ = register_parameter("beta", Tensor::zeros({dim}));
  }

  Tensor forward(const Tensor& x) const {
    return tensor::layer_norm_lastdim(x, gamma_, beta_, eps_);
  }

  Tensor gamma() const { return gamma_; }
  Tensor beta() const { return beta_; }
  float eps() const { return eps_; }

 private:
  float eps_;
  Tensor gamma_, beta_;
};

}  // namespace taser::nn
