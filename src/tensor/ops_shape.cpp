#include <cstring>

#include "tensor/ops.h"

namespace taser::tensor {

Tensor reshape(const Tensor& a, Shape new_shape) {
  // Allow a single -1 wildcard dimension.
  std::int64_t wild = -1, known = 1;
  for (std::size_t i = 0; i < new_shape.size(); ++i) {
    if (new_shape[i] == -1) {
      TASER_CHECK_MSG(wild == -1, "reshape: more than one -1");
      wild = static_cast<std::int64_t>(i);
    } else {
      known *= new_shape[i];
    }
  }
  if (wild >= 0) {
    TASER_CHECK(known > 0 && a.numel() % known == 0);
    new_shape[static_cast<std::size_t>(wild)] = a.numel() / known;
  }
  TASER_CHECK_MSG(numel_of(new_shape) == a.numel(),
                  "reshape " << shape_str(a.shape()) << " -> " << shape_str(new_shape));

  Tensor out = make_result(new_shape, {a});
  std::memcpy(out.data(), a.data(), static_cast<std::size_t>(a.numel()) * sizeof(float));

  if (out.requires_grad()) {
    ImplPtr ia = a.impl();
    out.node().backward_fn = [ia](TensorImpl& self) {
      if (!ia->requires_grad) return;
      ia->accumulate_grad(self.grad.data(), self.numel());
    };
  }
  return out;
}

Tensor transpose2d(const Tensor& a) {
  TASER_CHECK(a.dim() == 2);
  const std::int64_t m = a.size(0), n = a.size(1);
  Tensor out = make_result({n, m}, {a});
  const float* av = a.data();
  float* ov = out.data();
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) ov[j * m + i] = av[i * n + j];

  if (out.requires_grad()) {
    ImplPtr ia = a.impl();
    out.node().backward_fn = [ia, m, n](TensorImpl& self) {
      if (!ia->requires_grad) return;
      ia->ensure_grad();
      const float* g = self.grad.data();
      float* gi = ia->grad.data();
      for (std::int64_t j = 0; j < n; ++j)
        for (std::int64_t i = 0; i < m; ++i) gi[i * n + j] += g[j * m + i];
    };
  }
  return out;
}

Tensor permute_021(const Tensor& a) {
  TASER_CHECK(a.dim() == 3);
  const std::int64_t B = a.size(0), m = a.size(1), n = a.size(2);
  Tensor out = make_result({B, n, m}, {a});
  const float* av = a.data();
  float* ov = out.data();
  for (std::int64_t b = 0; b < B; ++b) {
    const float* ab = av + b * m * n;
    float* ob = ov + b * m * n;
    for (std::int64_t i = 0; i < m; ++i)
      for (std::int64_t j = 0; j < n; ++j) ob[j * m + i] = ab[i * n + j];
  }

  if (out.requires_grad()) {
    ImplPtr ia = a.impl();
    out.node().backward_fn = [ia, B, m, n](TensorImpl& self) {
      if (!ia->requires_grad) return;
      ia->ensure_grad();
      const float* g = self.grad.data();
      float* gi = ia->grad.data();
      for (std::int64_t b = 0; b < B; ++b) {
        const float* gb = g + b * m * n;
        float* gib = gi + b * m * n;
        for (std::int64_t j = 0; j < n; ++j)
          for (std::int64_t i = 0; i < m; ++i) gib[i * n + j] += gb[j * m + i];
      }
    };
  }
  return out;
}

Tensor concat_lastdim(const std::vector<Tensor>& parts) {
  TASER_CHECK(!parts.empty());
  Shape lead = parts[0].shape();
  lead.pop_back();
  std::int64_t total_last = 0;
  for (const auto& p : parts) {
    Shape pl = p.shape();
    TASER_CHECK_MSG(!pl.empty(), "concat_lastdim on scalar");
    const std::int64_t last = pl.back();
    pl.pop_back();
    TASER_CHECK_MSG(pl == lead, "concat_lastdim shape mismatch");
    total_last += last;
  }
  Shape out_shape = lead;
  out_shape.push_back(total_last);
  const std::int64_t rows = numel_of(lead);

  Tensor out = make_result(out_shape, parts);
  float* ov = out.data();
  std::int64_t col = 0;
  for (const auto& p : parts) {
    const std::int64_t w = p.size(-1);
    const float* pv = p.data();
    for (std::int64_t r = 0; r < rows; ++r)
      std::memcpy(ov + r * total_last + col, pv + r * w,
                  static_cast<std::size_t>(w) * sizeof(float));
    col += w;
  }

  if (out.requires_grad()) {
    // The backward reads no part's data: it keeps only the parts that
    // take a grad (null for the others).
    std::vector<ImplPtr> impls;
    std::vector<std::int64_t> widths;
    for (const auto& p : parts) {
      impls.push_back(p.requires_grad() ? p.impl() : nullptr);
      widths.push_back(p.size(-1));
    }
    out.node().backward_fn = [impls, widths, rows, total_last](TensorImpl& self) {
      const float* g = self.grad.data();
      std::int64_t col2 = 0;
      for (std::size_t k = 0; k < impls.size(); ++k) {
        const std::int64_t w = widths[k];
        if (impls[k]) {
          impls[k]->ensure_grad();
          float* gi = impls[k]->grad.data();
          for (std::int64_t r = 0; r < rows; ++r)
            for (std::int64_t j = 0; j < w; ++j)
              gi[r * w + j] += g[r * total_last + col2 + j];
        }
        col2 += w;
      }
    };
  }
  return out;
}

Tensor slice_lastdim(const Tensor& a, std::int64_t start, std::int64_t len) {
  const std::int64_t d = a.size(-1);
  TASER_CHECK_MSG(start >= 0 && len > 0 && start + len <= d,
                  "slice_lastdim [" << start << ", " << start + len << ") of width " << d);
  Shape out_shape = a.shape();
  out_shape.back() = len;
  const std::int64_t rows = a.numel() / d;

  Tensor out = make_result(out_shape, {a});
  const float* av = a.data();
  float* ov = out.data();
  for (std::int64_t r = 0; r < rows; ++r)
    std::memcpy(ov + r * len, av + r * d + start,
                static_cast<std::size_t>(len) * sizeof(float));

  if (out.requires_grad()) {
    ImplPtr ia = a.impl();
    out.node().backward_fn = [ia, start, len, d, rows](TensorImpl& self) {
      if (!ia->requires_grad) return;
      ia->ensure_grad();
      const float* g = self.grad.data();
      float* gi = ia->grad.data();
      for (std::int64_t r = 0; r < rows; ++r)
        for (std::int64_t j = 0; j < len; ++j) gi[r * d + start + j] += g[r * len + j];
    };
  }
  return out;
}

Tensor index_select0(const Tensor& a, const std::vector<std::int64_t>& idx) {
  TASER_CHECK(a.dim() >= 1);
  const std::int64_t n0 = a.size(0);
  const std::int64_t row = a.numel() / std::max<std::int64_t>(n0, 1);
  Shape out_shape = a.shape();
  out_shape[0] = static_cast<std::int64_t>(idx.size());

  Tensor out = make_result(out_shape, {a});
  const float* av = a.data();
  float* ov = out.data();
  for (std::size_t i = 0; i < idx.size(); ++i) {
    TASER_CHECK_MSG(idx[i] >= 0 && idx[i] < n0,
                    "index_select0: index " << idx[i] << " out of " << n0);
    std::memcpy(ov + static_cast<std::int64_t>(i) * row, av + idx[i] * row,
                static_cast<std::size_t>(row) * sizeof(float));
  }

  if (out.requires_grad()) {
    ImplPtr ia = a.impl();
    auto idx_copy = std::make_shared<std::vector<std::int64_t>>(idx);
    out.node().backward_fn = [ia, idx_copy, row](TensorImpl& self) {
      if (!ia->requires_grad) return;
      ia->ensure_grad();
      const float* g = self.grad.data();
      float* gi = ia->grad.data();
      for (std::size_t i = 0; i < idx_copy->size(); ++i) {
        float* dst = gi + (*idx_copy)[i] * row;
        const float* src = g + static_cast<std::int64_t>(i) * row;
        for (std::int64_t j = 0; j < row; ++j) dst[j] += src[j];
      }
    };
  }
  return out;
}

Tensor concat_dim0(const std::vector<Tensor>& parts) {
  TASER_CHECK(!parts.empty());
  Shape tail = parts[0].shape();
  TASER_CHECK_MSG(!tail.empty(), "concat_dim0 on scalars");
  tail.erase(tail.begin());
  std::int64_t total0 = 0;
  for (const auto& p : parts) {
    Shape pt = p.shape();
    pt.erase(pt.begin());
    TASER_CHECK_MSG(pt == tail, "concat_dim0 shape mismatch");
    total0 += p.size(0);
  }
  Shape out_shape = {total0};
  out_shape.insert(out_shape.end(), tail.begin(), tail.end());

  Tensor out = make_result(out_shape, parts);
  float* ov = out.data();
  std::int64_t off = 0;
  for (const auto& p : parts) {
    std::memcpy(ov + off, p.data(), static_cast<std::size_t>(p.numel()) * sizeof(float));
    off += p.numel();
  }

  if (out.requires_grad()) {
    // As concat_lastdim: only the parts that take a grad are kept.
    std::vector<ImplPtr> impls;
    std::vector<std::int64_t> sizes;
    for (const auto& p : parts) {
      impls.push_back(p.requires_grad() ? p.impl() : nullptr);
      sizes.push_back(p.numel());
    }
    out.node().backward_fn = [impls, sizes](TensorImpl& self) {
      const float* g = self.grad.data();
      std::int64_t off2 = 0;
      for (std::size_t k = 0; k < impls.size(); ++k) {
        if (impls[k]) impls[k]->accumulate_grad(g + off2, sizes[k]);
        off2 += sizes[k];
      }
    };
  }
  return out;
}

Tensor bce_with_logits_mean(const Tensor& logits, const Tensor& targets) {
  TASER_CHECK_MSG(!targets.requires_grad(), "targets must not require grad");
  TASER_CHECK_MSG(logits.numel() == targets.numel(),
                  "bce: " << shape_str(logits.shape()) << " vs "
                          << shape_str(targets.shape()));
  const std::int64_t n = logits.numel();
  TASER_CHECK(n > 0);

  Tensor out = make_result({}, {logits});
  const float* z = logits.data();
  const float* y = targets.data();
  double acc = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    // max(z,0) - z*y + log(1 + exp(-|z|))  — the standard stable form.
    const float zi = z[i];
    acc += (zi > 0 ? zi : 0.f) - zi * y[i] + std::log1p(std::exp(-std::abs(zi)));
  }
  out.data()[0] = static_cast<float>(acc / static_cast<double>(n));

  if (out.requires_grad()) {
    ImplPtr il = logits.impl();
    ImplPtr it = targets.impl();
    out.node().backward_fn = [il, it, n](TensorImpl& self) {
      if (!il->requires_grad) return;
      il->ensure_grad();
      const float g = self.grad[0] / static_cast<float>(n);
      const float* z2 = il->data.data();
      const float* y2 = it->data.data();
      float* gi = il->grad.data();
      for (std::int64_t i = 0; i < n; ++i) {
        const float zi = z2[i];
        const float s = zi >= 0 ? 1.f / (1.f + std::exp(-zi))
                                : std::exp(zi) / (1.f + std::exp(zi));
        gi[i] += g * (s - y2[i]);
      }
    };
  }
  return out;
}

}  // namespace taser::tensor
