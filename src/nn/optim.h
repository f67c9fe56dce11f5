#ifndef KGREC_NN_OPTIM_H_
#define KGREC_NN_OPTIM_H_

#include <functional>
#include <memory>
#include <vector>

#include "core/thread_pool.h"
#include "math/rng.h"
#include "nn/tensor.h"

namespace kgrec::nn {

/// Base class for first-order optimizers over a fixed parameter list.
class Optimizer {
 public:
  explicit Optimizer(std::vector<Tensor> params) : params_(std::move(params)) {}
  virtual ~Optimizer() = default;

  Optimizer(const Optimizer&) = delete;
  Optimizer& operator=(const Optimizer&) = delete;

  /// Applies one update from the accumulated gradients of every row.
  void Step();

  /// Applies one update from gradients that are zero outside rows[k] for
  /// params()[k]. When a zero gradient leaves a parameter and its
  /// optimizer state bitwise unchanged (SkipsZeroRows), only those rows
  /// are visited; otherwise every row steps. Either way the result is
  /// bitwise Step()'s.
  void Step(const std::vector<internal::RowSet>& rows);

  /// Clears the gradients of all managed parameters.
  void ZeroGrad();

  /// Clears only rows[k] of params()[k]'s gradient.
  void ZeroGrad(const std::vector<internal::RowSet>& rows);

  const std::vector<Tensor>& params() const { return params_; }

 protected:
  /// True when Update over a zero gradient is the identity on the
  /// (finite) parameter and on the optimizer state.
  virtual bool SkipsZeroRows() const = 0;

  /// Per-step setup, run once before the step's Update calls.
  virtual void BeginStep() {}

  /// Updates elements [begin, begin + count) of params_[k].
  virtual void Update(size_t k, size_t begin, size_t count) = 0;

  std::vector<Tensor> params_;
};

/// Stochastic gradient descent with optional L2 weight decay.
class Sgd : public Optimizer {
 public:
  Sgd(std::vector<Tensor> params, float lr, float weight_decay = 0.0f)
      : Optimizer(std::move(params)), lr_(lr), weight_decay_(weight_decay) {}

 private:
  bool SkipsZeroRows() const override { return weight_decay_ == 0.0f; }
  void Update(size_t k, size_t begin, size_t count) override;

  float lr_;
  float weight_decay_;
};

/// Adagrad with per-element accumulated squared gradients.
class Adagrad : public Optimizer {
 public:
  Adagrad(std::vector<Tensor> params, float lr, float weight_decay = 0.0f,
          float eps = 1e-8f);

 private:
  // eps > 0 keeps a never-stepped element's 0 / (sqrt(0) + eps) at 0.
  bool SkipsZeroRows() const override {
    return weight_decay_ == 0.0f && eps_ > 0.0f;
  }
  void Update(size_t k, size_t begin, size_t count) override;

  float lr_;
  float weight_decay_;
  float eps_;
  std::vector<std::vector<float>> accum_;
};

/// Adam (Kingma & Ba) with bias correction. Its moments decay on every
/// step, zero gradient or not, so it always steps every row.
class Adam : public Optimizer {
 public:
  Adam(std::vector<Tensor> params, float lr, float beta1 = 0.9f,
       float beta2 = 0.999f, float eps = 1e-8f, float weight_decay = 0.0f);

 private:
  bool SkipsZeroRows() const override { return false; }
  void BeginStep() override;
  void Update(size_t k, size_t begin, size_t count) override;

  float lr_, beta1_, beta2_, eps_, weight_decay_;
  int64_t t_ = 0;
  float bias1_ = 1.0f, bias2_ = 1.0f;  // this step's bias corrections
  std::vector<std::vector<float>> m_;
  std::vector<std::vector<float>> v_;
};

/// Deterministic data-parallel minibatch SGD: shard → accumulate →
/// ordered-reduce → apply.
///
/// Each minibatch is split into fixed-size shards (the shard layout
/// depends only on `shard_size`, never on the thread count). Every shard
/// builds its own forward graph over the shared optimizer parameters,
/// draws any randomness from its own counter-forked RNG stream
/// (`batch_rng.Fork(shard_index)`), and runs Backward() with a
/// GradShadow scope installed, so its gradient contributions land in a
/// shard-private buffer. Once all shards finish, the shadows are folded
/// into the real grad buffers in ascending shard order and the optimizer
/// applies a single update.
///
/// Every stage after Backward() is row-sparse: the shadows record the
/// rows each shard wrote (GradShadow), and only those rows are cleared,
/// folded, zeroed in the real grads and stepped (Optimizer::Step(rows)),
/// bitwise equal to doing each stage over the whole table.
///
/// Because shard boundaries, per-shard RNG streams, and the reduction
/// order are all functions of (num_examples, shard_size) alone, training
/// with num_threads = 1 and num_threads = N produces bitwise-identical
/// parameters.
class MiniBatchTrainer {
 public:
  /// `optimizer` must outlive the trainer; its parameter list is the set
  /// of leaves whose gradients are shadowed. `shard_size` is the fixed
  /// number of examples per shard (> 0). `num_threads <= 1` runs shards
  /// inline on the calling thread (same results, no pool).
  MiniBatchTrainer(Optimizer& optimizer, size_t shard_size,
                   size_t num_threads);

  /// Builds the scalar loss for examples [begin, end) of the current
  /// minibatch, drawing any randomness from `rng` only. The loss must be
  /// decomposable across shards: summing every shard's gradient must
  /// equal the intended whole-batch gradient (e.g. scale per-shard sums
  /// by 1/batch_size rather than using a per-shard mean).
  using ShardFn = std::function<Tensor(size_t begin, size_t end, Rng& rng)>;

  /// Runs one optimizer step over a minibatch of `num_examples` examples
  /// and returns the sum of the shard losses (accumulated in shard
  /// order). No-op returning 0 when `num_examples` is 0.
  double Step(size_t num_examples, const Rng& batch_rng,
              const ShardFn& shard_fn);

 private:
  Optimizer* optimizer_;
  size_t shard_size_;
  size_t num_threads_;
  std::unique_ptr<ThreadPool> pool_;         // only when num_threads_ > 1
  std::vector<internal::GradShadow> shadows_;  // one per shard, reused
  /// Per parameter: the rows of its real grad that may be nonzero, i.e.
  /// those the last step folded into. Starts as "all rows" so the first
  /// step zeroes whatever the grads held before.
  std::vector<internal::RowSet> touched_;
};

}  // namespace kgrec::nn

#endif  // KGREC_NN_OPTIM_H_
