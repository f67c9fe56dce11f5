#ifndef KGREC_PATH_HETE_MF_H_
#define KGREC_PATH_HETE_MF_H_

#include "core/recommender.h"
#include "nn/tensor.h"
#include "retrieval/factors.h"

namespace kgrec {

/// Hyper-parameters for Hete-MF.
struct HeteMfConfig {
  size_t dim = 16;
  int epochs = 30;
  size_t batch_size = 256;
  float learning_rate = 0.05f;
  float l2 = 1e-5f;
  /// Weight of the meta-path item-item similarity regularizer (Eq. 14).
  float similarity_weight = 0.1f;
  /// Strongest neighbors kept per item and meta-path.
  size_t top_k = 10;
};

/// Hete-MF (Yu et al., IJCAI-HINA'13; survey Eq. 14): matrix
/// factorization whose item factors are regularized to be close for items
/// with high meta-path (PathSim) similarity:
///   min L_mf + w * sum_l sum_{i,j} s^l_ij ||v_i - v_j||^2.
class HeteMfRecommender : public DotProductFactors {
 public:
  explicit HeteMfRecommender(HeteMfConfig config = {}) : config_(config) {}

  std::string name() const override { return "Hete-MF"; }
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
  HeteMfConfig config_;
  nn::Tensor user_emb_;
  nn::Tensor item_emb_;
};

}  // namespace kgrec

#endif  // KGREC_PATH_HETE_MF_H_
