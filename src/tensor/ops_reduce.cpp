#include <cmath>

#include "tensor/layer_norm_kernel.h"
#include "tensor/ops.h"

namespace taser::tensor {

namespace {

struct DimSplit {
  std::int64_t outer = 1, nd = 1, inner = 1;
};

DimSplit split_at(const Shape& shape, std::int64_t dim) {
  std::int64_t d = dim < 0 ? dim + static_cast<std::int64_t>(shape.size()) : dim;
  TASER_CHECK_MSG(d >= 0 && d < static_cast<std::int64_t>(shape.size()),
                  "reduce dim " << dim << " for shape " << shape_str(shape));
  DimSplit s;
  for (std::int64_t i = 0; i < d; ++i) s.outer *= shape[static_cast<std::size_t>(i)];
  s.nd = shape[static_cast<std::size_t>(d)];
  for (std::size_t i = static_cast<std::size_t>(d) + 1; i < shape.size(); ++i)
    s.inner *= shape[i];
  return s;
}

Shape reduced_shape(const Shape& shape, std::int64_t dim, bool keepdim) {
  std::int64_t d = dim < 0 ? dim + static_cast<std::int64_t>(shape.size()) : dim;
  Shape out;
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(shape.size()); ++i) {
    if (i == d) {
      if (keepdim) out.push_back(1);
    } else {
      out.push_back(shape[static_cast<std::size_t>(i)]);
    }
  }
  return out;
}

}  // namespace

Tensor sum_all(const Tensor& a) {
  Tensor out = make_result({}, {a});
  const float* av = a.data();
  double acc = 0;  // double accumulator: loss sums over big batches
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) acc += av[i];
  out.data()[0] = static_cast<float>(acc);

  if (out.requires_grad()) {
    ImplPtr ia = a.impl();
    out.node().backward_fn = [ia](TensorImpl& self) {
      if (!ia->requires_grad) return;
      ia->ensure_grad();
      const float g = self.grad[0];
      for (auto& gi : ia->grad) gi += g;
    };
  }
  return out;
}

Tensor mean_all(const Tensor& a) {
  TASER_CHECK(a.numel() > 0);
  return mul_scalar(sum_all(a), 1.f / static_cast<float>(a.numel()));
}

Tensor sum_dim(const Tensor& a, std::int64_t dim, bool keepdim) {
  const DimSplit s = split_at(a.shape(), dim);
  Tensor out = make_result(reduced_shape(a.shape(), dim, keepdim), {a});
  const float* av = a.data();
  float* ov = out.data();
  for (std::int64_t o = 0; o < s.outer; ++o)
    for (std::int64_t j = 0; j < s.nd; ++j) {
      const float* row = av + (o * s.nd + j) * s.inner;
      float* orow = ov + o * s.inner;
      for (std::int64_t i = 0; i < s.inner; ++i) orow[i] += row[i];
    }

  if (out.requires_grad()) {
    ImplPtr ia = a.impl();
    out.node().backward_fn = [ia, s](TensorImpl& self) {
      if (!ia->requires_grad) return;
      ia->ensure_grad();
      const float* g = self.grad.data();
      float* gi = ia->grad.data();
      for (std::int64_t o = 0; o < s.outer; ++o)
        for (std::int64_t j = 0; j < s.nd; ++j) {
          float* row = gi + (o * s.nd + j) * s.inner;
          const float* grow = g + o * s.inner;
          for (std::int64_t i = 0; i < s.inner; ++i) row[i] += grow[i];
        }
    };
  }
  return out;
}

Tensor mean_dim(const Tensor& a, std::int64_t dim, bool keepdim) {
  const DimSplit s = split_at(a.shape(), dim);
  return mul_scalar(sum_dim(a, dim, keepdim), 1.f / static_cast<float>(s.nd));
}

Tensor softmax_lastdim(const Tensor& a) {
  TASER_CHECK(a.dim() >= 1);
  const std::int64_t d = a.size(-1);
  const std::int64_t rows = a.numel() / d;
  Tensor out = make_result(a.shape(), {a});
  const float* av = a.data();
  float* ov = out.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* x = av + r * d;
    float* y = ov + r * d;
    float mx = x[0];
    for (std::int64_t i = 1; i < d; ++i) mx = std::max(mx, x[i]);
    float z = 0.f;
    for (std::int64_t i = 0; i < d; ++i) {
      y[i] = std::exp(x[i] - mx);
      z += y[i];
    }
    const float inv = 1.f / z;
    for (std::int64_t i = 0; i < d; ++i) y[i] *= inv;
  }

  if (out.requires_grad()) {
    ImplPtr ia = a.impl();
    out.node().backward_fn = [ia, rows, d](TensorImpl& self) {
      if (!ia->requires_grad) return;
      ia->ensure_grad();
      const float* g = self.grad.data();
      const float* y = self.data.data();
      float* gi = ia->grad.data();
      for (std::int64_t r = 0; r < rows; ++r) {
        const float* gr = g + r * d;
        const float* yr = y + r * d;
        float dot = 0.f;
        for (std::int64_t i = 0; i < d; ++i) dot += gr[i] * yr[i];
        float* gir = gi + r * d;
        for (std::int64_t i = 0; i < d; ++i) gir[i] += yr[i] * (gr[i] - dot);
      }
    };
  }
  return out;
}

Tensor log_softmax_lastdim(const Tensor& a) {
  TASER_CHECK(a.dim() >= 1);
  const std::int64_t d = a.size(-1);
  const std::int64_t rows = a.numel() / d;
  Tensor out = make_result(a.shape(), {a});
  const float* av = a.data();
  float* ov = out.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* x = av + r * d;
    float* y = ov + r * d;
    float mx = x[0];
    for (std::int64_t i = 1; i < d; ++i) mx = std::max(mx, x[i]);
    float z = 0.f;
    for (std::int64_t i = 0; i < d; ++i) z += std::exp(x[i] - mx);
    const float lz = std::log(z) + mx;
    for (std::int64_t i = 0; i < d; ++i) y[i] = x[i] - lz;
  }

  if (out.requires_grad()) {
    ImplPtr ia = a.impl();
    out.node().backward_fn = [ia, rows, d](TensorImpl& self) {
      if (!ia->requires_grad) return;
      ia->ensure_grad();
      const float* g = self.grad.data();
      const float* y = self.data.data();
      float* gi = ia->grad.data();
      for (std::int64_t r = 0; r < rows; ++r) {
        const float* gr = g + r * d;
        const float* yr = y + r * d;
        float gsum = 0.f;
        for (std::int64_t i = 0; i < d; ++i) gsum += gr[i];
        float* gir = gi + r * d;
        for (std::int64_t i = 0; i < d; ++i) gir[i] += gr[i] - std::exp(yr[i]) * gsum;
      }
    };
  }
  return out;
}

Tensor layer_norm_lastdim(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                          float eps) {
  const std::int64_t d = x.size(-1);
  TASER_CHECK(gamma.dim() == 1 && gamma.size(0) == d);
  TASER_CHECK(beta.dim() == 1 && beta.size(0) == d);
  const std::int64_t rows = x.numel() / d;

  Tensor out = make_result(x.shape(), {x, gamma, beta});
  // Cache per-row mean and inverse stddev for the backward pass.
  std::shared_ptr<std::vector<float>> stats;
  if (out.requires_grad())
    stats = std::make_shared<std::vector<float>>(static_cast<std::size_t>(rows * 2));
  kernels::layer_norm(x.data(), gamma.data(), beta.data(), out.data(),
                      stats ? stats->data() : nullptr, rows, d, eps);

  if (out.requires_grad()) {
    ImplPtr ix = x.impl(), ig = gamma.impl(), ib = beta.impl();
    out.node().backward_fn = [ix, ig, ib, stats, rows, d](TensorImpl& self) {
      if (ix->requires_grad) ix->ensure_grad();
      if (ig->requires_grad) ig->ensure_grad();
      if (ib->requires_grad) ib->ensure_grad();
      kernels::layer_norm_grad(self.grad.data(), ix->data.data(), ig->data.data(),
                               stats->data(), ix->requires_grad ? ix->grad.data() : nullptr,
                               ig->requires_grad ? ig->grad.data() : nullptr,
                               ib->requires_grad ? ib->grad.data() : nullptr, rows, d);
    };
  }
  return out;
}

}  // namespace taser::tensor
