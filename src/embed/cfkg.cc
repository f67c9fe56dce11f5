#include "embed/cfkg.h"

#include "core/check.h"
#include "core/model_state.h"
#include "data/event_stream.h"
#include "kge/kge_trainer.h"
#include "nn/ops.h"
#include "nn/optim.h"

namespace kgrec {

namespace {

// Update-path RNG streams (counter-keyed forks of Rng(context.seed)).
constexpr uint64_t kGrowStream = 101;
constexpr uint64_t kFoldStream = 102;
constexpr int kFoldPasses = 3;

}  // namespace

void CfkgRecommender::Fit(const RecContext& context) {
  KGREC_CHECK(context.user_item_graph != nullptr);
  graph_ = context.user_item_graph;
  const KnowledgeGraph& kg = graph_->kg;
  Rng rng(context.seed);
  model_ = MakeKgeModel(config_.kge, kg.num_entities(), kg.num_relations(),
                        config_.dim, rng);
  KgeTrainConfig train_config;
  train_config.epochs = config_.epochs;
  train_config.batch_size = config_.batch_size;
  train_config.learning_rate = config_.learning_rate;
  train_config.margin = config_.margin;
  train_config.l2 = config_.l2;
  train_config.seed = context.seed + 1;
  train_config.num_threads = config_.num_threads;
  TrainKge(*model_, kg, train_config);
  BuildItemFactors();
}

Status CfkgRecommender::Update(const RecContext& context,
                               const EventBatch& batch) {
  KGREC_CHECK(context.user_item_graph != nullptr);
  if (model_ == nullptr) {
    return Status::FailedPrecondition(
        "CFKG Update() requires a fitted (or loaded) model");
  }
  graph_ = context.user_item_graph;  // the post-batch world
  const KnowledgeGraph& kg = graph_->kg;
  const Rng base_rng(context.seed);
  model_->GrowEntities(kg.num_entities(), base_rng.Fork(kGrowStream));
  nn::Sgd optimizer(model_->Params(), config_.learning_rate);
  nn::MiniBatchTrainer trainer(optimizer, /*shard_size=*/1,
                               /*num_threads=*/1);
  for (const Event& e : batch.events) {
    int32_t head = 0, relation = 0, tail = 0;
    switch (e.kind) {
      case EventKind::kNewUser:
      case EventKind::kNewEntity:
        continue;  // growth-only: the table rows above are their fold
      case EventKind::kNewInteraction:
        head = graph_->UserEntity(e.user);
        relation = graph_->interact_relation;
        tail = graph_->ItemEntity(e.item);
        break;
      case EventKind::kNewFact:
        // Item-KG coordinates -> unified-graph coordinates: entities
        // shift past the user block; forward relation k was added right
        // after "interact" in spec order (MakeUserItemGraph), so it
        // lands at interact_relation + 1 + k.
        head = static_cast<int32_t>(graph_->ItemEntity(0) + e.head);
        relation = graph_->interact_relation + 1 + e.relation;
        tail = static_cast<int32_t>(graph_->ItemEntity(0) + e.tail);
        break;
    }
    Rng rng =
        base_rng.Fork(kFoldStream).Fork(static_cast<uint64_t>(e.timestamp));
    FoldTriple(head, relation, tail, rng, trainer);
  }
  // Derived state, rebuilt exactly as FinishLoad does.
  BuildItemFactors();
  return Status::OK();
}

void CfkgRecommender::FoldTriple(int32_t head, int32_t relation, int32_t tail,
                                 Rng& rng, nn::MiniBatchTrainer& trainer) {
  const size_t num_entities = graph_->kg.num_entities();
  for (int pass = 0; pass < kFoldPasses; ++pass) {
    int32_t nh = head, nt = tail;
    if (rng.Bernoulli(0.5)) {
      nh = static_cast<int32_t>(rng.UniformInt(num_entities));
    } else {
      nt = static_cast<int32_t>(rng.UniformInt(num_entities));
    }
    // The corruption is drawn above, so the shard's own fork goes unused.
    trainer.Step(1, rng, [&](size_t, size_t, Rng&) {
      nn::Tensor pos = model_->ScoreBatch({head}, {relation}, {tail});
      nn::Tensor neg = model_->ScoreBatch({nh}, {relation}, {nt});
      return nn::MarginRankingLoss(neg, pos, config_.margin);
    });
  }
}

std::string CfkgRecommender::HyperFingerprint() const {
  return FingerprintBuilder()
      .Add("dim", static_cast<double>(config_.dim))
      .Add("epochs", config_.epochs)
      .Add("batch_size", static_cast<double>(config_.batch_size))
      .Add("lr", config_.learning_rate)
      .Add("margin", config_.margin)
      .Add("l2", config_.l2)
      .Add("kge", config_.kge)
      .str();
}

Status CfkgRecommender::VisitState(StateVisitor* visitor) {
  if (model_ == nullptr) {
    return Status::FailedPrecondition("CFKG has no KGE backend (not fitted)");
  }
  return visitor->Params("kge", model_->Params());
}

Status CfkgRecommender::PrepareLoad(const RecContext& context) {
  KGREC_CHECK(context.user_item_graph != nullptr);
  graph_ = context.user_item_graph;
  // Any seed works here: the backend only needs its parameter tensors
  // allocated at the right shapes before the in-place restore.
  Rng rng(context.seed);
  model_ = MakeKgeModel(config_.kge, graph_->kg.num_entities(),
                        graph_->kg.num_relations(), config_.dim, rng);
  return Status::OK();
}

Status CfkgRecommender::FinishLoad(const RecContext& /*context*/) {
  // Derived, not stored: the projected item matrix is a pure function of
  // the restored backend parameters, so the rebuild is bitwise the
  // fitted one.
  BuildItemFactors();
  return Status::OK();
}

void CfkgRecommender::BuildItemFactors() {
  KGREC_CHECK(graph_ != nullptr);
  item_factors_ = Matrix(graph_->num_items, config_.dim);
  for (int32_t item = 0; item < graph_->num_items; ++item) {
    model_->FillTailFactor(graph_->ItemEntity(item),
                           graph_->interact_relation,
                           item_factors_.Row(item));
  }
}

retrieval::FactorTable CfkgRecommender::factor_table() const {
  KGREC_CHECK(model_ != nullptr);
  // No user data: the query is computed per user (FillUserQuery).
  return {{model_->retrieval_kernel(), item_factors_.View()},
          {nullptr, static_cast<size_t>(graph_->num_users), config_.dim}};
}

void CfkgRecommender::FillUserQuery(int32_t user,
                                    std::span<float> out) const {
  KGREC_CHECK_EQ(out.size(), config_.dim);
  KGREC_CHECK(user >= 0 && user < graph_->num_users);
  model_->FillHeadQuery(graph_->UserEntity(user), graph_->interact_relation,
                        out.data());
}

}  // namespace kgrec
