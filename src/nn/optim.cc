#include "nn/optim.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"

namespace kgrec::nn {

void Optimizer::Step() {
  BeginStep();
  for (size_t k = 0; k < params_.size(); ++k) Update(k, 0, params_[k].size());
}

void Optimizer::Step(const std::vector<internal::RowSet>& rows) {
  KGREC_CHECK_EQ(rows.size(), params_.size());
  if (!SkipsZeroRows()) {
    Step();
    return;
  }
  BeginStep();
  for (size_t k = 0; k < params_.size(); ++k) {
    rows[k].ForEachRange(params_[k].cols(), [&](size_t begin, size_t count) {
      Update(k, begin, count);
    });
  }
}

void Optimizer::ZeroGrad() {
  for (auto& p : params_) p.ZeroGrad();
}

void Optimizer::ZeroGrad(const std::vector<internal::RowSet>& rows) {
  KGREC_CHECK_EQ(rows.size(), params_.size());
  for (size_t k = 0; k < params_.size(); ++k) {
    float* g = params_[k].grad();
    rows[k].ForEachRange(params_[k].cols(), [&](size_t begin, size_t count) {
      std::fill_n(g + begin, count, 0.0f);
    });
  }
}

void Sgd::Update(size_t k, size_t begin, size_t count) {
  float* w = params_[k].data() + begin;
  const float* g = params_[k].grad() + begin;
  for (size_t i = 0; i < count; ++i) {
    w[i] -= lr_ * (g[i] + weight_decay_ * w[i]);
  }
}

Adagrad::Adagrad(std::vector<Tensor> params, float lr, float weight_decay,
                 float eps)
    : Optimizer(std::move(params)),
      lr_(lr),
      weight_decay_(weight_decay),
      eps_(eps) {
  for (const auto& p : params_) accum_.emplace_back(p.size(), 0.0f);
}

void Adagrad::Update(size_t k, size_t begin, size_t count) {
  float* w = params_[k].data() + begin;
  const float* g = params_[k].grad() + begin;
  float* acc = accum_[k].data() + begin;
  for (size_t i = 0; i < count; ++i) {
    const float grad = g[i] + weight_decay_ * w[i];
    acc[i] += grad * grad;
    w[i] -= lr_ * grad / (std::sqrt(acc[i]) + eps_);
  }
}

Adam::Adam(std::vector<Tensor> params, float lr, float beta1, float beta2,
           float eps, float weight_decay)
    : Optimizer(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  for (const auto& p : params_) {
    m_.emplace_back(p.size(), 0.0f);
    v_.emplace_back(p.size(), 0.0f);
  }
}

void Adam::BeginStep() {
  ++t_;
  bias1_ = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  bias2_ = 1.0f - std::pow(beta2_, static_cast<float>(t_));
}

void Adam::Update(size_t k, size_t begin, size_t count) {
  float* w = params_[k].data() + begin;
  const float* g = params_[k].grad() + begin;
  float* m = m_[k].data() + begin;
  float* v = v_[k].data() + begin;
  for (size_t i = 0; i < count; ++i) {
    const float grad = g[i] + weight_decay_ * w[i];
    m[i] = beta1_ * m[i] + (1.0f - beta1_) * grad;
    v[i] = beta2_ * v[i] + (1.0f - beta2_) * grad * grad;
    const float mhat = m[i] / bias1_;
    const float vhat = v[i] / bias2_;
    w[i] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
  }
}

MiniBatchTrainer::MiniBatchTrainer(Optimizer& optimizer, size_t shard_size,
                                   size_t num_threads)
    : optimizer_(&optimizer),
      shard_size_(shard_size),
      num_threads_(num_threads) {
  KGREC_CHECK_GT(shard_size_, 0u);
  if (num_threads_ > 1) pool_ = std::make_unique<ThreadPool>(num_threads_);
  for (const Tensor& p : optimizer_->params()) {
    touched_.emplace_back(p.rows());
    touched_.back().MarkAll();
  }
}

double MiniBatchTrainer::Step(size_t num_examples, const Rng& batch_rng,
                              const ShardFn& shard_fn) {
  if (num_examples == 0) return 0.0;
  const size_t num_shards = (num_examples + shard_size_ - 1) / shard_size_;
  // Attach newly needed shadows on the calling thread; buffers are
  // reused (and re-zeroed inside the shard tasks) across steps.
  if (shadows_.size() < num_shards) {
    std::vector<std::shared_ptr<internal::Node>> leaves;
    for (const Tensor& p : optimizer_->params()) leaves.push_back(p.node());
    const size_t old_size = shadows_.size();
    shadows_.resize(num_shards);
    for (size_t s = old_size; s < num_shards; ++s) shadows_[s].Attach(leaves);
  }
  std::vector<double> losses(num_shards, 0.0);
  auto run_shards = [&](size_t begin, size_t end) -> Status {
    for (size_t s = begin; s < end; ++s) {
      internal::GradShadow& shadow = shadows_[s];
      shadow.Clear();
      Rng shard_rng = batch_rng.Fork(s);
      internal::GradShadow::ThreadScope scope(shadow);
      Tensor loss = shard_fn(
          s * shard_size_, std::min(num_examples, (s + 1) * shard_size_),
          shard_rng);
      Backward(loss);
      losses[s] = loss.value();
    }
    return Status::OK();
  };
  const Status status =
      pool_ != nullptr ? ParallelFor(*pool_, num_shards, run_shards)
                       : ParallelFor(num_shards, 1, run_shards);
  KGREC_CHECK(status.ok());
  // Ordered reduction: shard order, never thread order. The real grads
  // are nonzero only in the rows the previous step folded, so zeroing
  // those clears them; the step then visits the rows this one folded.
  optimizer_->ZeroGrad(touched_);
  for (internal::RowSet& rows : touched_) rows.Reset();
  for (size_t s = 0; s < num_shards; ++s) shadows_[s].AddTo(touched_);
  optimizer_->Step(touched_);
  double total = 0.0;
  for (double loss : losses) total += loss;
  return total;
}

}  // namespace kgrec::nn
