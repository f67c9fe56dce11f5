#ifndef KGREC_PATH_HETE_CF_H_
#define KGREC_PATH_HETE_CF_H_

#include "core/recommender.h"
#include "nn/tensor.h"
#include "retrieval/factors.h"

namespace kgrec {

/// Hyper-parameters for Hete-CF.
struct HeteCfConfig {
  size_t dim = 16;
  int epochs = 30;
  size_t batch_size = 256;
  float learning_rate = 0.05f;
  float l2 = 1e-5f;
  /// Weights of the three similarity regularizers (survey Eq. 13-15).
  float user_user_weight = 0.05f;
  float item_item_weight = 0.1f;
  float user_item_weight = 0.05f;
  size_t top_k = 10;
};

/// Hete-CF (Luo et al., ICDM'14; survey Eq. 13-15): matrix factorization
/// with *all three* meta-path similarity regularizers — user-user
/// (co-interaction PathSim), item-item (shared-attribute PathSim) and
/// user-item (diffused preference) — which is why it outperforms Hete-MF
/// (item-item only) in the survey's account.
class HeteCfRecommender : public DotProductFactors {
 public:
  explicit HeteCfRecommender(HeteCfConfig config = {}) : config_(config) {}

  std::string name() const override { return "Hete-CF"; }
  void Fit(const RecContext& context) override;

  std::string HyperFingerprint() const override;

  /// The score *is* the dot of the raw factor tables.
  retrieval::FactorTable factor_table() const override {
    return {{retrieval::ScoreKernel::kDot, item_emb_.View()},
            user_emb_.View()};
  }

 protected:
  Status VisitState(StateVisitor* visitor) override;

 private:
  HeteCfConfig config_;
  nn::Tensor user_emb_;
  nn::Tensor item_emb_;
};

}  // namespace kgrec

#endif  // KGREC_PATH_HETE_CF_H_
