#pragma once

#include "nn/init.h"
#include "nn/module.h"
#include "tensor/ops.h"

namespace taser::nn {

/// y = x·W + b with W:[in, out]. x may have any leading shape.
class Linear : public Module {
 public:
  Linear(std::int64_t in_features, std::int64_t out_features, util::Rng& rng,
         bool bias = true)
      : in_features_(in_features), out_features_(out_features) {
    weight_ = register_parameter("weight", xavier_uniform(in_features, out_features, rng));
    if (bias) bias_ = register_parameter("bias", Tensor::zeros({out_features}));
  }

  Tensor forward(const Tensor& x) const { return tensor::linear(x, weight_, bias_); }

  /// gelu(x·W + b) fused into one node (GEMM-epilogue GELU).
  Tensor forward_gelu(const Tensor& x) const {
    return tensor::linear_gelu(x, weight_, bias_);
  }

  std::int64_t in_features() const { return in_features_; }
  std::int64_t out_features() const { return out_features_; }
  Tensor weight() const { return weight_; }
  Tensor bias() const { return bias_; }

 private:
  std::int64_t in_features_, out_features_;
  Tensor weight_;
  Tensor bias_;  // undefined when bias=false
};

}  // namespace taser::nn
