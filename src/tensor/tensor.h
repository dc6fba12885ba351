#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "util/check.h"
#include "util/rng.h"

namespace taser::tensor {

/// Row-major shape. Rank ≤ 4 in practice (we use 0-d scalars, 1-d, 2-d
/// matrices and 3-d [batch, token, channel] blocks).
using Shape = std::vector<std::int64_t>;

std::int64_t numel_of(const Shape& shape);
std::string shape_str(const Shape& shape);

struct TensorImpl;
using ImplPtr = std::shared_ptr<TensorImpl>;

/// A dense float32 tensor with reverse-mode autodiff.
///
/// Semantics follow the familiar define-by-run model: every op records
/// its parents and a backward closure on the produced node; calling
/// `backward()` on a scalar loss runs the tape in reverse topological
/// order. `Tensor` itself is a cheap shared handle — copying it aliases
/// storage (like torch.Tensor), `clone()` deep-copies.
class Tensor {
 public:
  /// Empty (null) tensor; `defined()` is false.
  Tensor() = default;
  explicit Tensor(ImplPtr impl) : impl_(std::move(impl)) {}

  // ---- constructors -------------------------------------------------
  static Tensor zeros(Shape shape, bool requires_grad = false);
  static Tensor ones(Shape shape, bool requires_grad = false);
  static Tensor full(Shape shape, float value, bool requires_grad = false);
  static Tensor from_vector(Shape shape, std::vector<float> values,
                            bool requires_grad = false);
  static Tensor scalar(float value, bool requires_grad = false);
  /// i.i.d. N(0, stddev^2).
  static Tensor randn(Shape shape, util::Rng& rng, float stddev = 1.f,
                      bool requires_grad = false);
  /// i.i.d. U(lo, hi).
  static Tensor rand_uniform(Shape shape, util::Rng& rng, float lo, float hi,
                             bool requires_grad = false);

  // ---- metadata ------------------------------------------------------
  bool defined() const { return impl_ != nullptr; }
  const Shape& shape() const;
  std::int64_t dim() const { return static_cast<std::int64_t>(shape().size()); }
  std::int64_t size(std::int64_t d) const;
  std::int64_t numel() const;

  // ---- storage access -------------------------------------------------
  float* data();
  const float* data() const;
  float item() const;  ///< value of a 1-element tensor
  float at(std::initializer_list<std::int64_t> idx) const;
  std::vector<float> to_vector() const;

  // ---- autograd --------------------------------------------------------
  bool requires_grad() const;
  Tensor& set_requires_grad(bool value);
  /// Gradient accumulated by the last backward(); empty Tensor if none.
  Tensor grad() const;
  void zero_grad();
  /// Run reverse-mode AD from this scalar (numel()==1) tensor.
  void backward();
  /// A copy of the data cut off from the autograd graph. Not a view: it
  /// deep-copies, so later writes to either tensor do not show in the
  /// other.
  Tensor detach() const;
  /// Deep copy (does not copy the autograd history).
  Tensor clone() const;

  ImplPtr impl() const { return impl_; }
  TensorImpl& node() const;

 private:
  ImplPtr impl_;
};

/// Autograd node. `backward_fn`, when set, reads `grad` of this node and
/// accumulates into the `grad` buffers of `parents`.
struct TensorImpl {
  Shape shape;
  std::vector<float> data;
  bool requires_grad = false;

  std::vector<float> grad;  ///< allocated lazily, same length as data
  std::vector<ImplPtr> parents;
  std::function<void(TensorImpl&)> backward_fn;

  std::int64_t numel() const { return static_cast<std::int64_t>(data.size()); }
  void ensure_grad();
  void accumulate_grad(const float* g, std::int64_t n);
};

/// Creates the result node of an op: shape, parents, requires_grad
/// inferred from parents. The caller fills `data` and sets `backward_fn`.
Tensor make_result(Shape shape, std::vector<Tensor> inputs);

/// True if any input requires grad (i.e. the op must record a tape node).
/// Always false while grad mode is disabled on this thread (NoGradGuard):
/// make_result then produces a plain constant — no parents retained, and
/// every op skips installing its backward_fn — so an inference forward
/// allocates zero tape nodes and keeps no reference to its inputs.
bool any_requires_grad(const std::vector<Tensor>& inputs);

/// Thread-local autograd switch, the single gate any_requires_grad /
/// make_result consult. Thread-local on purpose: a serving worker can run
/// no-grad forwards while a training thread keeps taping, with no shared
/// state between them. Prefer the RAII NoGradGuard over toggling directly.
class GradMode {
 public:
  static bool enabled() { return tl_enabled_; }
  static void set_enabled(bool enabled) { tl_enabled_ = enabled; }

 private:
  static inline thread_local bool tl_enabled_ = true;
};

/// RAII scope disabling tape recording on the current thread — the
/// inference path's no-autograd contract (restores the previous mode on
/// exit, so guards nest).
class NoGradGuard {
 public:
  NoGradGuard() : prev_(GradMode::enabled()) { GradMode::set_enabled(false); }
  ~NoGradGuard() { GradMode::set_enabled(prev_); }
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool prev_;
};

}  // namespace taser::tensor
