#ifndef KGREC_CF_MF_H_
#define KGREC_CF_MF_H_

#include "core/recommender.h"
#include "nn/tensor.h"
#include "retrieval/factors.h"

namespace kgrec {

/// Shared hyper-parameters of the latent-factor baselines.
struct MfConfig {
  size_t dim = 16;
  int epochs = 30;
  size_t batch_size = 256;
  float learning_rate = 0.05f;
  float l2 = 1e-5f;
  /// Pointwise MF: negatives per positive.
  int negatives_per_positive = 1;
};

/// Pointwise matrix factorization (the model-based CF latent factor model
/// of survey Section 2.2): y_hat = u . v, trained with binary
/// cross-entropy on observed pairs vs sampled negatives.
class MfRecommender : public DotProductFactors {
 public:
  explicit MfRecommender(MfConfig config = {}) : config_(config) {}

  std::string name() const override { return "MF"; }
  void Fit(const RecContext& context) override;

  /// Online update (DESIGN §13): grows the user table for kNewUser
  /// events (each new row drawn from a counter-keyed fork, so growing in
  /// two batches == growing once) and folds every kNewInteraction with a
  /// few plain-SGD passes of the model's own loss. KG events are no-ops
  /// for a pure-CF model. Inherited by BPR-MF, which swaps the fold
  /// gradient via FoldInteraction().
  Status Update(const RecContext& context, const EventBatch& batch) override;
  bool SupportsUpdate() const override { return true; }

  std::string HyperFingerprint() const override;

  /// The score *is* the dot of the raw factor tables (inherited by
  /// BPR-MF).
  retrieval::FactorTable factor_table() const override {
    return {{retrieval::ScoreKernel::kDot, item_emb_.View()},
            user_emb_.View()};
  }

 protected:
  /// Both factor tensors are stored; BPR-MF inherits the same layout.
  Status VisitState(StateVisitor* visitor) override;

  /// One event's SGD fold: a few passes of this model's loss on the
  /// (user, item) positive with negatives drawn from `rng` (the event's
  /// counter-keyed stream). MF folds pointwise BCE; BPR-MF overrides
  /// with the pairwise BPR gradient.
  virtual void FoldInteraction(int32_t user, int32_t item,
                               const NegativeSampler& sampler, Rng& rng);

  MfConfig config_;
  nn::Tensor user_emb_;
  nn::Tensor item_emb_;
};

/// Bayesian personalized ranking MF (Rendle et al.): pairwise loss
/// -log sigmoid(y_hat_pos - y_hat_neg), the standard implicit-feedback
/// CF baseline the surveyed papers compare against.
class BprMfRecommender : public MfRecommender {
 public:
  explicit BprMfRecommender(MfConfig config = {}) : MfRecommender(config) {}

  std::string name() const override { return "BPR-MF"; }
  void Fit(const RecContext& context) override;

 protected:
  void FoldInteraction(int32_t user, int32_t item,
                       const NegativeSampler& sampler, Rng& rng) override;
};

}  // namespace kgrec

#endif  // KGREC_CF_MF_H_
