#include "tensor/tensor.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "tensor/counters.h"

namespace taser::tensor {

std::int64_t numel_of(const Shape& shape) {
  std::int64_t n = 1;
  for (auto d : shape) {
    TASER_CHECK_MSG(d >= 0, "negative dimension in shape " << shape_str(shape));
    n *= d;
  }
  return n;
}

std::string shape_str(const Shape& shape) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i) os << ", ";
    os << shape[i];
  }
  os << ']';
  return os.str();
}

void TensorImpl::ensure_grad() {
  if (grad.size() != data.size()) grad.assign(data.size(), 0.f);
}

void TensorImpl::accumulate_grad(const float* g, std::int64_t n) {
  TASER_CHECK(n == numel());
  ensure_grad();
  for (std::int64_t i = 0; i < n; ++i) grad[static_cast<std::size_t>(i)] += g[i];
}

// ---- constructors ------------------------------------------------------

static ImplPtr new_impl(Shape shape, bool requires_grad) {
  auto impl = std::make_shared<TensorImpl>();
  impl->data.assign(static_cast<std::size_t>(numel_of(shape)), 0.f);
  impl->shape = std::move(shape);
  impl->requires_grad = requires_grad;
  return impl;
}

Tensor Tensor::zeros(Shape shape, bool requires_grad) {
  return Tensor(new_impl(std::move(shape), requires_grad));
}

Tensor Tensor::ones(Shape shape, bool requires_grad) {
  return full(std::move(shape), 1.f, requires_grad);
}

Tensor Tensor::full(Shape shape, float value, bool requires_grad) {
  auto impl = new_impl(std::move(shape), requires_grad);
  std::fill(impl->data.begin(), impl->data.end(), value);
  return Tensor(std::move(impl));
}

Tensor Tensor::from_vector(Shape shape, std::vector<float> values, bool requires_grad) {
  TASER_CHECK_MSG(static_cast<std::int64_t>(values.size()) == numel_of(shape),
                  "from_vector: " << values.size() << " values for shape "
                                  << shape_str(shape));
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = std::move(shape);
  impl->data = std::move(values);
  impl->requires_grad = requires_grad;
  return Tensor(std::move(impl));
}

Tensor Tensor::scalar(float value, bool requires_grad) {
  return from_vector({}, {value}, requires_grad);
}

Tensor Tensor::randn(Shape shape, util::Rng& rng, float stddev, bool requires_grad) {
  auto impl = new_impl(std::move(shape), requires_grad);
  for (auto& v : impl->data) v = rng.next_normal() * stddev;
  return Tensor(std::move(impl));
}

Tensor Tensor::rand_uniform(Shape shape, util::Rng& rng, float lo, float hi,
                            bool requires_grad) {
  auto impl = new_impl(std::move(shape), requires_grad);
  for (auto& v : impl->data) v = rng.next_uniform(lo, hi);
  return Tensor(std::move(impl));
}

// ---- metadata & access ---------------------------------------------------

TensorImpl& Tensor::node() const {
  TASER_CHECK_MSG(impl_ != nullptr, "operation on undefined Tensor");
  return *impl_;
}

const Shape& Tensor::shape() const { return node().shape; }

std::int64_t Tensor::size(std::int64_t d) const {
  const auto& s = shape();
  if (d < 0) d += static_cast<std::int64_t>(s.size());
  TASER_CHECK_MSG(d >= 0 && d < static_cast<std::int64_t>(s.size()),
                  "size(" << d << ") on shape " << shape_str(s));
  return s[static_cast<std::size_t>(d)];
}

std::int64_t Tensor::numel() const { return node().numel(); }

float* Tensor::data() { return node().data.data(); }
const float* Tensor::data() const { return node().data.data(); }

float Tensor::item() const {
  TASER_CHECK_MSG(numel() == 1, "item() on tensor with " << numel() << " elements");
  return node().data[0];
}

float Tensor::at(std::initializer_list<std::int64_t> idx) const {
  const auto& s = shape();
  TASER_CHECK(idx.size() == s.size());
  std::int64_t off = 0;
  std::size_t d = 0;
  for (auto i : idx) {
    TASER_CHECK_MSG(i >= 0 && i < s[d], "index " << i << " out of bounds for dim " << d);
    off = off * s[d] + i;
    ++d;
  }
  return node().data[static_cast<std::size_t>(off)];
}

std::vector<float> Tensor::to_vector() const { return node().data; }

// ---- autograd -------------------------------------------------------------

bool Tensor::requires_grad() const { return node().requires_grad; }

Tensor& Tensor::set_requires_grad(bool value) {
  node().requires_grad = value;
  return *this;
}

Tensor Tensor::grad() const {
  auto& n = node();
  if (n.grad.size() != n.data.size()) return Tensor();
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = n.shape;
  impl->data = n.grad;
  return Tensor(std::move(impl));
}

void Tensor::zero_grad() {
  auto& n = node();
  std::fill(n.grad.begin(), n.grad.end(), 0.f);
}

Tensor Tensor::detach() const {
  auto& n = node();
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = n.shape;
  impl->data = n.data;  // copy; tensors are small enough and this is rare
  impl->requires_grad = false;
  return Tensor(std::move(impl));
}

Tensor Tensor::clone() const {
  auto& n = node();
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = n.shape;
  impl->data = n.data;
  impl->requires_grad = n.requires_grad;
  return Tensor(std::move(impl));
}

void Tensor::backward() {
  auto& root = node();
  TASER_CHECK_MSG(root.numel() == 1, "backward() requires a scalar loss");

  // Iterative post-order DFS to get a reverse topological order.
  std::vector<TensorImpl*> topo;
  std::unordered_set<TensorImpl*> visited;
  std::vector<std::pair<TensorImpl*, std::size_t>> stack;
  stack.emplace_back(&root, 0);
  visited.insert(&root);
  while (!stack.empty()) {
    auto& [n, child] = stack.back();
    if (child < n->parents.size()) {
      TensorImpl* p = n->parents[child++].get();
      if (visited.insert(p).second) stack.emplace_back(p, 0);
    } else {
      topo.push_back(n);
      stack.pop_back();
    }
  }

  root.ensure_grad();
  root.grad[0] += 1.f;
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    TensorImpl* n = *it;
    if (!n->backward_fn) continue;
    if (n->grad.size() != n->data.size()) continue;  // no gradient flowed here
    OpCounters::add_launches();  // each backward node ≈ one device kernel
    n->backward_fn(*n);
  }
}

// ---- op plumbing -----------------------------------------------------------

bool any_requires_grad(const std::vector<Tensor>& inputs) {
  if (!GradMode::enabled()) return false;
  for (const auto& t : inputs)
    if (t.defined() && t.requires_grad()) return true;
  return false;
}

Tensor make_result(Shape shape, std::vector<Tensor> inputs) {
  OpCounters::add_launches();  // each forward op ≈ one device kernel
  auto impl = std::make_shared<TensorImpl>();
  impl->data.assign(static_cast<std::size_t>(numel_of(shape)), 0.f);
  impl->shape = std::move(shape);
  impl->requires_grad = any_requires_grad(inputs);
  if (impl->requires_grad) {
    OpCounters::add_tape_node();  // grad-bearing node joins the tape
    // Only inputs that take a grad are parents: a constant has no node to
    // visit, and a backward that reads its data captures it itself.
    for (auto& t : inputs)
      if (t.defined() && t.requires_grad()) impl->parents.push_back(t.impl());
  }
  return Tensor(std::move(impl));
}

}  // namespace taser::tensor
