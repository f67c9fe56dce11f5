#ifndef KGREC_NN_TENSOR_H_
#define KGREC_NN_TENSOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/aligned.h"
#include "math/dense.h"

namespace kgrec::nn {

namespace internal {

/// A node in the dynamically-built computation graph. Holds the forward
/// value, the (lazily used) gradient buffer, the parent edges and the
/// function that pushes this node's gradient into its parents. Both
/// buffers are 64-byte aligned (core/aligned.h) so the kernel layer
/// sweeps cache-line-aligned memory.
struct Node {
  size_t rows = 0;
  size_t cols = 0;
  AlignedVector<float> data;
  AlignedVector<float> grad;
  bool requires_grad = false;
  std::vector<std::shared_ptr<Node>> parents;
  std::function<void(Node&)> backward;

  size_t size() const { return rows * cols; }
};

/// The rows of one [rows, cols] gradient buffer that may hold nonzero
/// values: either every row, or the rows recorded since the last Reset()
/// (in first-touch order, deduplicated by a per-row flag). A buffer
/// described by a RowSet is zero outside its rows.
class RowSet {
 public:
  explicit RowSet(size_t num_rows = 0) : seen_(num_rows, 0) {}

  void Mark(size_t row) {
    if (all_ || seen_[row] != 0) return;
    seen_[row] = 1;
    rows_.push_back(static_cast<uint32_t>(row));
  }
  void MarkAll() { all_ = true; }
  void Merge(const RowSet& other);
  /// Back to "no rows", touching only the flags of the recorded rows.
  void Reset();

  /// Calls fn(begin, count) over the element ranges these rows cover in
  /// a buffer with `cols` columns: once over the whole buffer when every
  /// row is marked, else once per recorded row.
  template <typename Fn>
  void ForEachRange(size_t cols, Fn&& fn) const {
    if (all_) {
      fn(size_t{0}, seen_.size() * cols);
      return;
    }
    for (uint32_t row : rows_) fn(size_t{row} * cols, cols);
  }

 private:
  bool all_ = false;
  std::vector<uint8_t> seen_;
  std::vector<uint32_t> rows_;
};

/// Redirects gradient accumulation for a fixed set of *leaf* nodes (the
/// optimizer parameters) into buffers private to one shard of a
/// minibatch, so several shards can run Backward() concurrently over
/// graphs that share the same parameter leaves.
///
/// Per-shard intermediates are never shared between threads; the only
/// state two concurrent Backward() calls both touch is the grad buffer
/// of a shared leaf. While a ThreadScope is installed, every backward
/// closure routes its writes through GradBuf(), which substitutes the
/// shard-private buffer for registered leaves; AddTo() then folds each
/// shard's buffer into the real grads in whatever (fixed) order the
/// caller chooses, making the reduction independent of thread count.
///
/// The shadow is row-sparse: each buffer carries the RowSet of rows its
/// shard wrote. A Gather backward records the table rows it scatters
/// into (GradBuf(node, rows)); any other write marks the leaf "all
/// rows". Clear() and AddTo() touch only the recorded rows.
///
/// Only leaves may be registered: a registered node must have no
/// backward closure of its own (its gradient is only ever *written* by
/// its consumers), and its grad buffer must already be allocated.
class GradShadow {
 public:
  GradShadow() = default;

  /// Registers the leaves whose gradients this shadow captures and
  /// allocates one zero-filled private buffer per leaf. May be called
  /// again to re-attach to a different parameter set.
  void Attach(const std::vector<std::shared_ptr<Node>>& leaves);

  bool attached() const { return !leaves_.empty(); }

  /// Zero-fills the recorded rows of every private buffer and forgets
  /// them (cheap re-use between steps).
  void Clear();

  /// Adds the recorded rows of every private buffer into its leaf's
  /// real grad buffer and merges them into touched[i] (one RowSet per
  /// leaf, in Attach order). Must not run while any thread still has a
  /// scope on this shadow; the call order across shadows defines the
  /// reduction order.
  void AddTo(std::vector<RowSet>& touched);

  /// While alive, Backward() on the constructing thread accumulates
  /// registered leaves' gradients into this shadow instead of the
  /// leaves' own grad buffers. Scopes nest (the previous redirect is
  /// restored on destruction).
  class ThreadScope {
   public:
    explicit ThreadScope(GradShadow& shadow);
    ~ThreadScope();
    ThreadScope(const ThreadScope&) = delete;
    ThreadScope& operator=(const ThreadScope&) = delete;

   private:
    GradShadow* previous_;
  };

 private:
  friend float* GradBuf(Node& node, const std::vector<int32_t>* rows);

  std::vector<std::shared_ptr<Node>> leaves_;
  std::vector<AlignedVector<float>> buffers_;
  std::vector<RowSet> rows_;
  std::unordered_map<const Node*, size_t> index_;
};

/// The gradient accumulation buffer for `node` on the calling thread:
/// the active shadow's private buffer when a GradShadow::ThreadScope is
/// installed and `node` is registered with it, otherwise the node's own
/// grad buffer. Every backward closure obtains its parents' (and its
/// own) grad pointers through this helper. `rows`, when given, promises
/// that the caller writes only those rows of `node` and records them in
/// the shadow; without it a shadowed leaf is marked "all rows".
float* GradBuf(Node& node, const std::vector<int32_t>* rows = nullptr);

}  // namespace internal

/// A 2-D float tensor participating in reverse-mode automatic
/// differentiation.
///
/// Tensor is a cheap value type (a shared handle to a graph node). All
/// tensors are matrices of shape [rows, cols]; vectors are represented as
/// [1, n] or [n, 1] and scalars as [1, 1]. Operations (see ops.h) build the
/// computation graph eagerly; Backward() then accumulates gradients into
/// every tensor created with requires_grad = true.
///
/// This engine is the library's substitute for libtorch: every surveyed
/// model is expressed in a handful of dense ops, and the engine is verified
/// against finite differences (see nn/gradcheck.h).
class Tensor {
 public:
  /// Creates a null tensor handle.
  Tensor() = default;

  /// Creates a zero-filled tensor.
  static Tensor Zeros(size_t rows, size_t cols, bool requires_grad = false);

  /// Creates a tensor taking ownership of the given row-major data
  /// (data.size() must equal rows * cols).
  static Tensor FromData(size_t rows, size_t cols, std::vector<float> data,
                         bool requires_grad = false);

  /// Creates a 1x1 constant.
  static Tensor Scalar(float value);

  bool defined() const { return node_ != nullptr; }
  size_t rows() const { return node_->rows; }
  size_t cols() const { return node_->cols; }
  size_t size() const { return node_->size(); }
  bool requires_grad() const { return node_->requires_grad; }

  float* data() { return node_->data.data(); }
  const float* data() const { return node_->data.data(); }
  RowsView View() const { return {data(), rows(), cols()}; }

  /// Gradient buffer; valid after Backward() for requires_grad tensors.
  float* grad() { return node_->grad.data(); }
  const float* grad() const { return node_->grad.data(); }

  /// Value of a 1x1 tensor.
  float value() const;

  /// Fills the gradient buffer with zeros.
  void ZeroGrad();

  /// Internal node accessor (used by ops.cc and the optimizers).
  const std::shared_ptr<internal::Node>& node() const { return node_; }

  /// Wraps an existing node.
  static Tensor Wrap(std::shared_ptr<internal::Node> node);

 private:
  std::shared_ptr<internal::Node> node_;
};

/// While alive, ops on the constructing thread build no autograd graph:
/// each result records no parents, gets no grad buffer and no backward
/// closure, and reports requires_grad() == false, so an intermediate is
/// freed as soon as its last handle goes out of scope. Forward values
/// are bitwise those computed outside the scope; only allocation
/// changes. This is the inference mode (torch.no_grad()): the serve
/// path (ServeHandle scoring) and the evaluation protocols install it
/// around scoring. Never install it around training — Fit, Update or
/// anything that calls Backward() — as Backward() aborts inside a scope.
///
/// The flag is thread-local: a scope covers only the thread that made
/// it, so code that fans scoring out to a pool must open one inside each
/// task. Scopes nest; destruction restores the enclosing state.
class NoGradScope {
 public:
  NoGradScope();
  ~NoGradScope();
  NoGradScope(const NoGradScope&) = delete;
  NoGradScope& operator=(const NoGradScope&) = delete;

  /// True while a NoGradScope is alive on the calling thread.
  static bool active();

 private:
  bool previous_;
};

/// Runs reverse-mode differentiation from the given scalar (1x1) loss,
/// accumulating into the grad buffers of all reachable requires_grad
/// tensors. Gradients accumulate across calls until ZeroGrad().
///
/// Aborts when `loss` does not require grad or a NoGradScope is active
/// on the calling thread: either means the graph was built without
/// parameters to train (most likely a scope left around a training
/// step), and a silent no-op would freeze the model.
void Backward(const Tensor& loss);

}  // namespace kgrec::nn

#endif  // KGREC_NN_TENSOR_H_
