#pragma once

#include <vector>

#include "tensor/tensor.h"

namespace taser::nn {

/// Adam optimizer (Kingma & Ba). The paper trains both the TGNN and the
/// adaptive sampler with Adam; the cache study (§III-D) relies on Adam's
/// stabilising effect on the access pattern, so the real algorithm
/// matters here, not just any SGD.
class Adam {
 public:
  explicit Adam(std::vector<tensor::Tensor> params, float lr = 1e-4f, float beta1 = 0.9f,
                float beta2 = 0.999f, float eps = 1e-8f, float weight_decay = 0.f);

  /// Applies one update from the gradients accumulated by backward().
  /// Parameters whose grad buffer was never touched are skipped.
  void step();
  void zero_grad();

  std::int64_t steps_taken() const { return t_; }

 private:
  std::vector<tensor::Tensor> params_;
  std::vector<std::vector<float>> m_, v_;
  float lr_, beta1_, beta2_, eps_, weight_decay_;
  std::int64_t t_ = 0;
};

/// Scales gradients so their global L2 norm is at most `max_norm`.
/// Returns the pre-clip norm.
float clip_grad_norm(const std::vector<tensor::Tensor>& params, float max_norm);

}  // namespace taser::nn
