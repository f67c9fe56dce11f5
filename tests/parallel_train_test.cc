// Determinism lockdown of the multi-threaded training paths: training
// with num_threads = 1, 2 and 8 must produce **bitwise identical**
// parameters (KGE substrate, compared via SnapshotParams) and scores
// (model families, compared via Score() grids). The shard layout,
// per-shard counter-forked RNG streams (Rng::Fork) and the ordered
// gradient reduction are all functions of the configuration alone, never
// of the thread count or work order.
//
// The trainer's row-sparse reduction (only the rows a shard wrote are
// cleared, folded, zeroed and stepped) is locked down against a
// test-local dense reference that does every stage over whole tables.
//
// This suite (plus parallel_eval_test and thread_pool_test) is re-run by
// the CI matrix under ThreadSanitizer (-DKGREC_SANITIZE=thread).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "core/serialize.h"
#include "data/synthetic.h"
#include "embed/cfkg.h"
#include "graph/knowledge_graph.h"
#include "kge/kge_model.h"
#include "kge/kge_trainer.h"
#include "nn/init.h"
#include "nn/ops.h"
#include "nn/optim.h"
#include "path/kprn.h"
#include "unified/kgat.h"
#include "unified/ripplenet.h"

namespace kgrec {
namespace {

// ---------------------------------------------------------------------
// MiniBatchTrainer unit: a tiny least-squares model whose shard function
// draws per-shard randomness, trained at several thread counts.
// ---------------------------------------------------------------------

struct TrainedToy {
  std::vector<float> weights;
  std::vector<double> losses;
};

TrainedToy TrainToy(size_t num_threads) {
  constexpr size_t kExamples = 24;
  constexpr size_t kFeatures = 4;
  std::vector<float> x(kExamples * kFeatures);
  std::vector<float> y(kExamples);
  Rng data_rng(7);
  for (size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<float>(data_rng.UniformInt(9)) * 0.25f - 1.0f;
  }
  for (size_t i = 0; i < y.size(); ++i) {
    y[i] = static_cast<float>(data_rng.UniformInt(5)) * 0.5f;
  }

  nn::Tensor w = nn::Tensor::FromData(
      kFeatures, 1, {0.1f, -0.2f, 0.3f, -0.4f}, /*requires_grad=*/true);
  nn::Sgd optimizer({w}, 0.05f);
  nn::MiniBatchTrainer trainer(optimizer, /*shard_size=*/5, num_threads);

  TrainedToy result;
  Rng rng(13);
  for (int step = 0; step < 6; ++step) {
    const Rng batch_rng = rng.Fork(static_cast<uint64_t>(step));
    const double loss = trainer.Step(
        kExamples, batch_rng,
        [&](size_t begin, size_t end, Rng& shard_rng) {
          const size_t n = end - begin;
          std::vector<float> xs(x.begin() + begin * kFeatures,
                                x.begin() + end * kFeatures);
          std::vector<float> ys(n);
          for (size_t i = 0; i < n; ++i) {
            // Per-shard jitter: exercises the counter-forked streams.
            ys[i] = y[begin + i] +
                    static_cast<float>(shard_rng.UniformInt(100)) * 0.001f;
          }
          nn::Tensor features =
              nn::Tensor::FromData(n, kFeatures, std::move(xs));
          nn::Tensor targets = nn::Tensor::FromData(n, 1, std::move(ys));
          nn::Tensor residual = nn::Sub(nn::MatMul(features, w), targets);
          return nn::ScaleBy(nn::Sum(nn::Square(residual)),
                             1.0f / kExamples);
        });
    result.losses.push_back(loss);
  }
  result.weights.assign(w.data(), w.data() + w.size());
  return result;
}

TEST(MiniBatchTrainerTest, BitwiseIdenticalAcrossThreadCounts) {
  const TrainedToy ref = TrainToy(1);
  for (double loss : ref.losses) EXPECT_TRUE(std::isfinite(loss));
  for (size_t threads : {2u, 8u}) {
    const TrainedToy other = TrainToy(threads);
    EXPECT_EQ(other.weights, ref.weights) << threads << " threads";
    EXPECT_EQ(other.losses, ref.losses) << threads << " threads";
  }
}

TEST(MiniBatchTrainerTest, EmptyBatchIsANoOp) {
  nn::Tensor w = nn::Tensor::FromData(2, 1, {1.0f, 2.0f},
                                      /*requires_grad=*/true);
  nn::Sgd optimizer({w}, 0.1f);
  nn::MiniBatchTrainer trainer(optimizer, 4, 2);
  const double loss =
      trainer.Step(0, Rng(1), [&](size_t, size_t, Rng&) -> nn::Tensor {
        ADD_FAILURE() << "shard function must not run for an empty batch";
        return nn::Tensor();
      });
  EXPECT_EQ(loss, 0.0);
  EXPECT_EQ(w.data()[0], 1.0f);
  EXPECT_EQ(w.data()[1], 2.0f);
}

// ---------------------------------------------------------------------
// KGE substrate: all five backends, sharded trainer.
// ---------------------------------------------------------------------

/// The learnable pattern graph of kge_test: entities 0..9 relate to
/// entity (i % 3) + 10 via relation 0 and back via relation 1.
KnowledgeGraph PatternGraph() {
  KnowledgeGraph kg;
  for (int i = 0; i < 13; ++i) kg.AddEntity("e" + std::to_string(i));
  kg.AddRelation("r");
  kg.AddRelation("s");
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(kg.AddTriple(i, 0, 10 + (i % 3)).ok());
    EXPECT_TRUE(kg.AddTriple(10 + (i % 3), 1, i).ok());
  }
  kg.Finalize();
  return kg;
}

struct TrainedKge {
  std::vector<NamedTensor> params;
  float loss = 0.0f;
};

TrainedKge TrainBackend(const std::string& backend, size_t num_threads) {
  KnowledgeGraph kg = PatternGraph();
  Rng rng(21);
  auto model =
      MakeKgeModel(backend, kg.num_entities(), kg.num_relations(), 8, rng);
  KgeTrainConfig config;
  config.epochs = 10;
  config.batch_size = 16;
  config.shard_size = 4;
  config.num_threads = num_threads;
  TrainedKge result;
  result.loss = TrainKge(*model, kg, config);
  result.params = SnapshotParams(model->Params());
  return result;
}

void ExpectBitwiseEqualParams(const std::vector<NamedTensor>& a,
                              const std::vector<NamedTensor>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].rows, b[i].rows);
    ASSERT_EQ(a[i].cols, b[i].cols);
    EXPECT_EQ(a[i].data, b[i].data) << "param " << i;
  }
}

class ParallelKgeTrain : public ::testing::TestWithParam<std::string> {};

TEST_P(ParallelKgeTrain, ParamsBitwiseIdenticalAcrossThreadCounts) {
  const TrainedKge ref = TrainBackend(GetParam(), 1);
  ASSERT_FALSE(ref.params.empty());
  EXPECT_TRUE(std::isfinite(ref.loss));
  for (size_t threads : {2u, 8u}) {
    const TrainedKge other = TrainBackend(GetParam(), threads);
    EXPECT_EQ(other.loss, ref.loss) << threads << " threads";
    ExpectBitwiseEqualParams(other.params, ref.params);
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, ParallelKgeTrain,
                         ::testing::ValuesIn(KgeModelNames()));

// ---------------------------------------------------------------------
// Row-sparse reduction == dense reference. The reference is the trainer
// without row tracking: each shard's gradient lands in a dense private
// buffer, the buffers fold into zeroed real grads in shard order, and the
// optimizer steps every row.
// ---------------------------------------------------------------------

double DenseReferenceStep(nn::Optimizer& optimizer, size_t shard_size,
                          size_t num_examples, const Rng& batch_rng,
                          const nn::MiniBatchTrainer::ShardFn& shard_fn) {
  std::vector<nn::Tensor> params = optimizer.params();
  std::vector<std::vector<float>> folded(params.size());
  for (size_t k = 0; k < params.size(); ++k) {
    folded[k].assign(params[k].size(), 0.0f);
  }
  double total = 0.0;
  const size_t num_shards = (num_examples + shard_size - 1) / shard_size;
  for (size_t s = 0; s < num_shards; ++s) {
    // Unshadowed Backward into zeroed real grads is the same float
    // sequence as into a zeroed shard buffer.
    optimizer.ZeroGrad();
    Rng shard_rng = batch_rng.Fork(s);
    nn::Tensor loss = shard_fn(
        s * shard_size, std::min(num_examples, (s + 1) * shard_size),
        shard_rng);
    nn::Backward(loss);
    for (size_t k = 0; k < params.size(); ++k) {
      for (size_t i = 0; i < params[k].size(); ++i) {
        folded[k][i] += params[k].grad()[i];
      }
    }
    total += loss.value();
  }
  for (size_t k = 0; k < params.size(); ++k) {
    std::copy(folded[k].begin(), folded[k].end(), params[k].grad());
  }
  optimizer.Step();
  return total;
}

/// TrainKge's sharded loop with DenseReferenceStep in place of the
/// trainer: same shuffle, batch forks, corruptions and loss.
float TrainKgeDenseReference(KgeModel& model, const KnowledgeGraph& graph,
                             const KgeTrainConfig& config) {
  Rng rng(config.seed);
  const auto& triples = graph.triples();
  nn::Adagrad optimizer(model.Params(), config.learning_rate);
  std::vector<size_t> order(triples.size());
  std::iota(order.begin(), order.end(), size_t{0});
  float last_epoch_loss = 0.0f;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    rng.Shuffle(order);
    double epoch_loss = 0.0;
    size_t num_batches = 0;
    for (size_t start = 0; start < order.size();
         start += config.batch_size) {
      const size_t end = std::min(order.size(), start + config.batch_size);
      const size_t batch_count = end - start;
      epoch_loss += DenseReferenceStep(
          optimizer, config.shard_size, batch_count, rng.Fork(num_batches),
          [&](size_t shard_begin, size_t shard_end, Rng& shard_rng) {
            std::vector<int32_t> heads, rels, tails, neg_heads, neg_tails;
            for (size_t i = shard_begin; i < shard_end; ++i) {
              const Triple& t = triples[order[start + i]];
              heads.push_back(t.head);
              rels.push_back(t.relation);
              tails.push_back(t.tail);
              int32_t nh = t.head, nt = t.tail;
              if (shard_rng.Bernoulli(0.5)) {
                nh = static_cast<int32_t>(
                    shard_rng.UniformInt(graph.num_entities()));
              } else {
                nt = static_cast<int32_t>(
                    shard_rng.UniformInt(graph.num_entities()));
              }
              neg_heads.push_back(nh);
              neg_tails.push_back(nt);
            }
            nn::Tensor pos = model.ScoreBatch(heads, rels, tails);
            nn::Tensor neg = model.ScoreBatch(neg_heads, rels, neg_tails);
            nn::Tensor loss = nn::ScaleBy(
                nn::Sum(nn::Relu(
                    nn::AddConst(nn::Sub(neg, pos), config.margin))),
                1.0f / static_cast<float>(batch_count));
            nn::Tensor reg = nn::Add(nn::L2Norm(pos), nn::L2Norm(neg));
            return nn::Add(loss, nn::ScaleBy(reg, config.l2));
          });
      ++num_batches;
    }
    model.PostEpoch();
    last_epoch_loss = static_cast<float>(epoch_loss / num_batches);
  }
  return last_epoch_loss;
}

/// A graph big enough that a batch leaves most entity rows untouched.
KnowledgeGraph SparseGraph() {
  KnowledgeGraph kg;
  for (int i = 0; i < 60; ++i) kg.AddEntity("e" + std::to_string(i));
  kg.AddRelation("r");
  kg.AddRelation("s");
  kg.AddRelation("t");
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(kg.AddTriple(i, 0, 50 + (i % 7)).ok());
    EXPECT_TRUE(kg.AddTriple(50 + (i % 7), 1, i).ok());
    EXPECT_TRUE(kg.AddTriple(i, 2, (i * 7 + 3) % 50).ok());
  }
  kg.Finalize();
  return kg;
}

TrainedKge TrainSparseBackend(const std::string& backend, size_t num_threads,
                              bool dense_reference) {
  KnowledgeGraph kg = SparseGraph();
  Rng rng(29);
  auto model =
      MakeKgeModel(backend, kg.num_entities(), kg.num_relations(), 8, rng);
  KgeTrainConfig config;
  config.epochs = 4;
  config.batch_size = 24;
  config.shard_size = 5;
  config.num_threads = num_threads;
  TrainedKge result;
  result.loss = dense_reference ? TrainKgeDenseReference(*model, kg, config)
                                : TrainKge(*model, kg, config);
  result.params = SnapshotParams(model->Params());
  return result;
}

class RowSparseKgeTrain : public ::testing::TestWithParam<std::string> {};

TEST_P(RowSparseKgeTrain, TrainerEqualsDenseReference) {
  const TrainedKge ref = TrainSparseBackend(GetParam(), 1, true);
  for (size_t threads : {1u, 4u}) {
    const TrainedKge sparse = TrainSparseBackend(GetParam(), threads, false);
    EXPECT_EQ(sparse.loss, ref.loss) << threads << " threads";
    ExpectBitwiseEqualParams(sparse.params, ref.params);
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, RowSparseKgeTrain,
                         ::testing::ValuesIn(KgeModelNames()));

/// A mixed-leaf toy: a [12, 3] embedding table read through Gather (row
/// records) and a [3, 1] head read through MatMul ("all rows"). On even
/// steps shard 0 also puts an L2 penalty on the whole table, so the
/// table is "all rows" in one shard and row-recorded in the others; on
/// odd steps its upper half is untouched, and the optimizers with weight
/// decay, and Adam, must still step it.
enum class ToyOptimizer { kSgd, kSgdDecay, kAdagrad, kAdagradDecay, kAdam };

struct MixedToyRun {
  std::vector<float> table, head;
  std::vector<double> losses;
};

MixedToyRun TrainMixedToy(ToyOptimizer kind, size_t num_threads,
                          bool dense_reference) {
  constexpr size_t kRows = 12, kDim = 3, kExamples = 10, kShard = 3;
  Rng init_rng(5);
  nn::Tensor table = nn::XavierUniform(kRows, kDim, init_rng);
  nn::Tensor head = nn::XavierUniform(kDim, 1, init_rng);
  std::unique_ptr<nn::Optimizer> optimizer;
  switch (kind) {
    case ToyOptimizer::kSgd:
      optimizer = std::make_unique<nn::Sgd>(
          std::vector<nn::Tensor>{table, head}, 0.1f);
      break;
    case ToyOptimizer::kSgdDecay:
      optimizer = std::make_unique<nn::Sgd>(
          std::vector<nn::Tensor>{table, head}, 0.1f, /*weight_decay=*/0.01f);
      break;
    case ToyOptimizer::kAdagrad:
      optimizer = std::make_unique<nn::Adagrad>(
          std::vector<nn::Tensor>{table, head}, 0.1f);
      break;
    case ToyOptimizer::kAdagradDecay:
      optimizer = std::make_unique<nn::Adagrad>(
          std::vector<nn::Tensor>{table, head}, 0.1f, /*weight_decay=*/0.01f);
      break;
    case ToyOptimizer::kAdam:
      optimizer = std::make_unique<nn::Adam>(
          std::vector<nn::Tensor>{table, head}, 0.05f);
      break;
  }
  nn::MiniBatchTrainer trainer(*optimizer, kShard, num_threads);
  uint64_t step = 0;
  const nn::MiniBatchTrainer::ShardFn shard_fn =
      [&](size_t begin, size_t end, Rng& shard_rng) {
        // Rows drawn from the lower half only, so the upper half stays
        // untouched except through the penalty.
        std::vector<int32_t> ids;
        std::vector<float> targets;
        for (size_t i = begin; i < end; ++i) {
          ids.push_back(static_cast<int32_t>(shard_rng.UniformInt(kRows / 2)));
          targets.push_back(static_cast<float>(i % 3) - 1.0f);
        }
        nn::Tensor pred = nn::MatMul(nn::Gather(table, ids), head);
        nn::Tensor residual = nn::Sub(
            pred, nn::Tensor::FromData(ids.size(), 1, std::move(targets)));
        nn::Tensor loss =
            nn::ScaleBy(nn::Sum(nn::Square(residual)), 1.0f / kExamples);
        if (begin == 0 && step % 2 == 0) {
          loss = nn::Add(loss, nn::ScaleBy(nn::L2Norm(table), 0.01f));
        }
        return loss;
      };
  MixedToyRun run;
  Rng rng(41);
  for (; step < 5; ++step) {
    const Rng batch_rng = rng.Fork(step);
    run.losses.push_back(
        dense_reference ? DenseReferenceStep(*optimizer, kShard, kExamples,
                                             batch_rng, shard_fn)
                        : trainer.Step(kExamples, batch_rng, shard_fn));
  }
  run.table.assign(table.data(), table.data() + table.size());
  run.head.assign(head.data(), head.data() + head.size());
  return run;
}

class RowSparseMixedToy : public ::testing::TestWithParam<ToyOptimizer> {};

TEST_P(RowSparseMixedToy, TrainerEqualsDenseReference) {
  const MixedToyRun ref = TrainMixedToy(GetParam(), 1, true);
  for (size_t threads : {1u, 4u}) {
    const MixedToyRun sparse = TrainMixedToy(GetParam(), threads, false);
    EXPECT_EQ(sparse.table, ref.table) << threads << " threads";
    EXPECT_EQ(sparse.head, ref.head) << threads << " threads";
    EXPECT_EQ(sparse.losses, ref.losses) << threads << " threads";
  }
}

INSTANTIATE_TEST_SUITE_P(Optimizers, RowSparseMixedToy,
                         ::testing::Values(ToyOptimizer::kSgd,
                                           ToyOptimizer::kSgdDecay,
                                           ToyOptimizer::kAdagrad,
                                           ToyOptimizer::kAdagradDecay,
                                           ToyOptimizer::kAdam));

// ---------------------------------------------------------------------
// Model families that opted into threaded training. Trained parameters
// are not exposed, so the bitwise contract is asserted on Score() grids.
// ---------------------------------------------------------------------

struct Fixture {
  SyntheticWorld world;
  DataSplit split;
  UserItemGraph ui_graph;

  Fixture() {
    WorldConfig config;
    config.num_users = 40;
    config.num_items = 60;
    config.avg_interactions_per_user = 10.0;
    config.item_relations = {{"genre", 6, 1, 0.9f}, {"studio", 10, 1, 0.7f}};
    config.seed = 177;
    world = GenerateWorld(config);
    Rng rng(13);
    split = RatioSplit(world.interactions, 0.25, rng);
    ui_graph = BuildUserItemGraph(world, split.train);
  }

  RecContext Context() const {
    RecContext ctx;
    ctx.train = &split.train;
    ctx.item_kg = &world.item_kg;
    ctx.user_item_graph = &ui_graph;
    ctx.seed = 31;
    return ctx;
  }
};

Fixture& SharedFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

std::vector<float> ScoreGrid(const Recommender& model, const Fixture& f) {
  std::vector<float> out;
  const int32_t num_users =
      static_cast<int32_t>(f.split.train.num_users());
  const int32_t num_items =
      static_cast<int32_t>(f.split.train.num_items());
  for (int32_t u = 0; u < num_users; u += 7) {
    for (int32_t i = 0; i < num_items; i += 11) {
      out.push_back(model.Score(u, i));
    }
  }
  return out;
}

template <typename Model, typename Config>
std::vector<float> TrainAndScore(Config config, const Fixture& f) {
  Model model(config);
  model.Fit(f.Context());
  return ScoreGrid(model, f);
}

TEST(ParallelTrainFamilies, CfkgBitwiseIdenticalAcrossThreadCounts) {
  Fixture& f = SharedFixture();
  auto run = [&](size_t threads) {
    CfkgConfig config;
    config.epochs = 4;
    config.num_threads = threads;
    return TrainAndScore<CfkgRecommender>(config, f);
  };
  const std::vector<float> ref = run(1);
  ASSERT_FALSE(ref.empty());
  EXPECT_EQ(run(2), ref);
  EXPECT_EQ(run(8), ref);
}

TEST(ParallelTrainFamilies, RippleNetBitwiseIdenticalAcrossThreadCounts) {
  Fixture& f = SharedFixture();
  auto run = [&](size_t threads) {
    RippleNetConfig config;
    config.epochs = 2;
    config.hop_size = 8;
    config.num_threads = threads;
    return TrainAndScore<RippleNetRecommender>(config, f);
  };
  const std::vector<float> ref = run(1);
  ASSERT_FALSE(ref.empty());
  EXPECT_EQ(run(2), ref);
  EXPECT_EQ(run(8), ref);
}

TEST(ParallelTrainFamilies, KgatBitwiseIdenticalAcrossThreadCounts) {
  Fixture& f = SharedFixture();
  auto run = [&](size_t threads) {
    KgatConfig config;
    config.epochs = 2;
    config.batch_size = 128;
    config.num_threads = threads;
    return TrainAndScore<KgatRecommender>(config, f);
  };
  const std::vector<float> ref = run(1);
  ASSERT_FALSE(ref.empty());
  EXPECT_EQ(run(2), ref);
  EXPECT_EQ(run(8), ref);
}

TEST(ParallelTrainFamilies, KprnBitwiseIdenticalAcrossThreadCounts) {
  Fixture& f = SharedFixture();
  auto run = [&](size_t threads) {
    KprnConfig config;
    config.epochs = 1;
    config.num_threads = threads;
    return TrainAndScore<KprnRecommender>(config, f);
  };
  const std::vector<float> ref = run(1);
  ASSERT_FALSE(ref.empty());
  EXPECT_EQ(run(2), ref);
  EXPECT_EQ(run(8), ref);
}

TEST(ParallelTrainFamilies, LegacySerialKgeModeIsTheDefault) {
  // num_threads = 0 must keep the historical single-stream float
  // sequence; the sharded mode (num_threads >= 1) draws different
  // negative streams, so on a non-degenerate world the two usually
  // disagree. This guards against silently rerouting the default.
  KgeTrainConfig config;
  EXPECT_EQ(config.num_threads, 0u);
  CfkgConfig cfkg;
  EXPECT_EQ(cfkg.num_threads, 0u);
  RippleNetConfig ripple;
  EXPECT_EQ(ripple.num_threads, 0u);
}

}  // namespace
}  // namespace kgrec
