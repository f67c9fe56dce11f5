// Lockdown of the retrieval layer (src/retrieval/) and the top-K
// correctness fixes that came with it:
//
//  * math/topk.h — RankBetter is a total order (NaN last, ties toward
//    the smaller index), so TopKIndices/TopKScored are well-defined on
//    NaN-laced inputs (the old comparator was UB inside partial_sort)
//    and BoundedTopK's streaming selection is scan-order independent.
//  * the DotProductFactors export contract: for every factorizable
//    registry model and every KGE backend, an exact index scan over the
//    export is bitwise ScoreAll + TopKScored.
//  * IvfIndex: bitwise-deterministic build at any thread count, exact
//    when probes == clusters, candidate-complete under exclusions.
//  * the serve path: Recommend()'s exclusion handling (the old -inf
//    sentinel dropped legitimate -inf scores and could return excluded
//    items), edge cases (k=0, k > catalog, everything excluded,
//    duplicate/out-of-range ids, NaN scores) against a brute-force
//    reference, and the router's recommend traffic.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <future>
#include <limits>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "cf/mf.h"
#include "core/recommender.h"
#include "core/registry.h"
#include "data/synthetic.h"
#include "embed/cfkg.h"
#include "math/rng.h"
#include "math/topk.h"
#include "retrieval/factors.h"
#include "retrieval/index.h"
#include "retrieval/quantize.h"
#include "retrieval/two_stage.h"
#include "serve/router.h"
#include "serve/serve_handle.h"
#include "owned_factors.h"

// ---------------------------------------------------------------------
// Counting global operator new: the RetrievalScratch allocation pin and
// the no-copy index pin (RetrievalNoCopy).
// Replacement operators must have external linkage (outside any
// namespace); counting is armed per thread so concurrent test machinery
// never perturbs the count.

namespace kgrec_test_alloc {
thread_local bool g_counting = false;
thread_local size_t g_count = 0;
thread_local size_t g_largest = 0;  // biggest single request while counting

void Note(std::size_t size) {
  if (!g_counting) return;
  ++g_count;
  if (size > g_largest) g_largest = size;
}

// Every replacement delete frees through this one out-of-line call. Were
// std::free inlined into a delete expression, GCC would see free() on a
// pointer from operator new and flag a -Wmismatched-new-delete that does
// not hold: the replacement operator new allocates with malloc.
[[gnu::noinline]] void Release(void* p) noexcept { std::free(p); }
}  // namespace kgrec_test_alloc

void* operator new(std::size_t size) {
  kgrec_test_alloc::Note(size);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// The nothrow forms (std::get_temporary_buffer, used by stable_sort)
// must come from the same malloc as the deletes below.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  kgrec_test_alloc::Note(size);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
// The aligned forms back AlignedVector (Matrix, nn::Tensor): without them
// a copied factor table would slip past the count.
void* operator new(std::size_t size, std::align_val_t align) {
  kgrec_test_alloc::Note(size);
  void* p = nullptr;
  const std::size_t alignment =
      std::max(static_cast<std::size_t>(align), sizeof(void*));
  if (posix_memalign(&p, alignment, size ? size : 1) == 0) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
using kgrec_test_alloc::Release;
void operator delete(void* p, std::align_val_t) noexcept { Release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { Release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  Release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  Release(p);
}
void operator delete(void* p) noexcept { Release(p); }
void operator delete[](void* p) noexcept { Release(p); }
void operator delete(void* p, std::size_t) noexcept { Release(p); }
void operator delete[](void* p, std::size_t) noexcept { Release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { Release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { Release(p); }

namespace kgrec {
namespace {

using retrieval::BruteForceIndex;
using retrieval::ItemFactors;
using retrieval::IvfConfig;
using retrieval::IvfIndex;
using retrieval::ScoreKernel;
using retrieval::TwoStageConfig;
using retrieval::TwoStageRetriever;
using serve::RetrievalSpec;
using serve::ServeHandle;
using testing_util::OwnedFactors;

constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

// ---------------------------------------------------------------------
// Shared fitted world (one Fit per model class across all tests).

struct RetrievalWorld {
  SyntheticWorld world;
  DataSplit split;
  UserItemGraph ui_graph;

  RetrievalWorld() {
    WorldConfig config;
    config.num_users = 30;
    config.num_items = 40;
    config.avg_interactions_per_user = 8.0;
    config.item_relations = {{"genre", 5, 1, 0.9f}, {"studio", 8, 1, 0.7f}};
    config.seed = 515;
    world = GenerateWorld(config);
    Rng rng(12);
    split = RatioSplit(world.interactions, 0.25, rng);
    ui_graph = BuildUserItemGraph(world, split.train);
  }

  RecContext Context(uint64_t seed = 29) const {
    RecContext ctx;
    ctx.train = &split.train;
    ctx.item_kg = &world.item_kg;
    ctx.user_item_graph = &ui_graph;
    ctx.seed = seed;
    return ctx;
  }
};

RetrievalWorld& SharedWorld() {
  static RetrievalWorld* world = new RetrievalWorld();
  return *world;
}

void ExpectSameRanking(const std::vector<std::pair<int32_t, float>>& want,
                       const std::vector<std::pair<int32_t, float>>& got,
                       const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].first, got[i].first) << what << " rank " << i;
    // Bitwise: NaN == NaN must pass.
    EXPECT_EQ(std::memcmp(&want[i].second, &got[i].second, sizeof(float)), 0)
        << what << " rank " << i << ": " << want[i].second << " vs "
        << got[i].second;
  }
}

/// The reference selection: rank every non-excluded (item, score) pair
/// with a full sort under RankBetter and cut at k. Deliberately naive.
std::vector<std::pair<int32_t, float>> BruteReference(
    const std::vector<float>& scores, size_t k,
    std::vector<int32_t> exclude = {}) {
  std::sort(exclude.begin(), exclude.end());
  std::vector<std::pair<int32_t, float>> pairs;
  for (size_t i = 0; i < scores.size(); ++i) {
    if (std::binary_search(exclude.begin(), exclude.end(),
                           static_cast<int32_t>(i))) {
      continue;
    }
    pairs.emplace_back(static_cast<int32_t>(i), scores[i]);
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const auto& x, const auto& y) {
              return RankBetter(x.second, x.first, y.second, y.first);
            });
  if (pairs.size() > k) pairs.resize(k);
  return pairs;
}

// ---------------------------------------------------------------------
// RetrievalTopK: the NaN/tie ordering fix and the streaming heap.

TEST(RetrievalTopK, NanRanksLastAndTiesBreakTowardSmallerIndex) {
  // Regression for the strict-weak-ordering violation: NaN interleaved
  // with real scores used to be UB inside std::partial_sort. Under the
  // fixed total order the result is fully determined.
  const std::vector<float> scores{kNan, 2.0f, kNan, 2.0f, -kInf, 3.0f};
  const std::vector<int32_t> want_order{5, 1, 3, 4, 0, 2};
  EXPECT_EQ(TopKIndices(scores, scores.size()), want_order);

  const auto top3 = TopKScored(scores, 3);
  ASSERT_EQ(top3.size(), 3u);
  EXPECT_EQ(top3[0], (std::pair<int32_t, float>{5, 3.0f}));
  EXPECT_EQ(top3[1], (std::pair<int32_t, float>{1, 2.0f}));
  EXPECT_EQ(top3[2], (std::pair<int32_t, float>{3, 2.0f}));

  // All-NaN input: pure index order, k respected.
  const std::vector<float> all_nan{kNan, kNan, kNan};
  EXPECT_EQ(TopKIndices(all_nan, 2), (std::vector<int32_t>{0, 1}));
}

TEST(RetrievalTopK, NanLacedVectorsAreDeterministic) {
  // Many NaN patterns, many k: the selection must never depend on
  // partial_sort's whims. Compare against the naive full-sort reference.
  Rng rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<float> scores(37);
    for (float& s : scores) {
      const double u = rng.Uniform();
      if (u < 0.2) {
        s = kNan;
      } else if (u < 0.3) {
        s = (u < 0.25) ? kInf : -kInf;
      } else {
        // Coarse grid so duplicate scores (ties) are common.
        s = static_cast<float>(static_cast<int>(rng.Uniform(-5, 5)));
      }
    }
    for (size_t k : {size_t{0}, size_t{1}, size_t{7}, scores.size(),
                     scores.size() + 10}) {
      const auto got = TopKScored(scores, k);
      const auto want = BruteReference(scores, k);
      ExpectSameRanking(want, got, "trial " + std::to_string(trial));
    }
  }
}

TEST(RetrievalTopK, BoundedTopKMatchesTopKScoredAnyScanOrder) {
  // The streaming bounded heap must select the same unique top-K as the
  // full-vector sort, whatever order the items are fed in — the property
  // that makes blocked index scans exact.
  Rng rng(99);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<float> scores(64);
    for (float& s : scores) {
      const double u = rng.Uniform();
      s = u < 0.15 ? kNan
                   : static_cast<float>(static_cast<int>(rng.Uniform(-4, 4)));
    }
    std::vector<int32_t> order(scores.size());
    for (size_t i = 0; i < order.size(); ++i) {
      order[i] = static_cast<int32_t>(i);
    }
    rng.Shuffle(order);
    for (size_t k : {size_t{0}, size_t{1}, size_t{10}, scores.size() + 3}) {
      BoundedTopK top(k);
      for (int32_t id : order) top.Push(id, scores[id]);
      ExpectSameRanking(TopKScored(scores, k), top.TakeSorted(),
                        "k=" + std::to_string(k));
    }
  }
}

TEST(RetrievalTopK, BoundedTopKWouldAcceptAgreesWithPush) {
  BoundedTopK top(2);
  EXPECT_TRUE(top.WouldAccept(0, 1.0f));
  top.Push(0, 1.0f);
  top.Push(1, 2.0f);
  // Full at {2.0 @1, 1.0 @0}: a worse score is refused, a better kept.
  EXPECT_FALSE(top.WouldAccept(5, 0.5f));
  EXPECT_TRUE(top.WouldAccept(5, 1.5f));
  // Equal score, larger index than the current worst: refused (ties
  // break toward the smaller index).
  EXPECT_FALSE(top.WouldAccept(5, 1.0f));
  top.Push(5, 1.5f);
  const auto out = top.TakeSorted();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].first, 1);
  EXPECT_EQ(out[1].first, 5);
}

// ---------------------------------------------------------------------
// RetrievalExport: the factor-export contract, zoo-wide.

TEST(RetrievalExport, RegistryQueryNamesTheFactorizableZoo) {
  const std::vector<std::string> names = FactorizableMethodNames();
  for (const char* expected :
       {"MF", "BPR-MF", "CKE", "CFKG", "ECFKG", "Hete-MF", "Hete-CF",
        "KGAT"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected << " should be factorizable";
  }
  // Spot-check the negative side: scores that are not one fixed kernel
  // over static vectors must not claim the export surface.
  for (const char* expected : {"KTUP", "HERec", "RippleNet", "Popularity"}) {
    EXPECT_EQ(std::find(names.begin(), names.end(), expected), names.end())
        << expected << " must not be factorizable";
  }
  std::unique_ptr<Recommender> mf = MakeRecommender("MF");
  EXPECT_TRUE(IsFactorizable(*mf));
  std::unique_ptr<Recommender> pop = MakeRecommender("Popularity");
  EXPECT_FALSE(IsFactorizable(*pop));
}

void ExpectExportContract(Recommender& model, const std::string& name) {
  const RetrievalWorld& world = SharedWorld();
  const int32_t num_items = world.split.train.num_items();
  const int32_t num_users = world.split.train.num_users();
  const DotProductFactors* factors = AsFactorizable(model);
  ASSERT_NE(factors, nullptr) << name;

  const ItemFactors exported = factors->item_factors();
  ASSERT_EQ(exported.items.rows, static_cast<size_t>(num_items)) << name;
  ASSERT_EQ(exported.items.dim, factors->factor_dim()) << name;

  // Pointwise: kernel(query, row) must be bitwise Score().
  std::vector<float> query(factors->factor_dim());
  for (int32_t user = 0; user < num_users; ++user) {
    factors->FillUserQuery(user, query);
    for (int32_t item = 0; item < num_items; ++item) {
      const float via_export =
          retrieval::KernelScore(exported.kernel, query.data(),
                                 exported.items.Row(item),
                                 factors->factor_dim());
      const float direct = model.Score(user, item);
      ASSERT_EQ(std::memcmp(&via_export, &direct, sizeof(float)), 0)
          << name << " user " << user << " item " << item;
    }
  }

  // Selection: the exact index must be bitwise ScoreAll + TopKScored,
  // with and without exclusions.
  BruteForceIndex index(factors->item_factors());
  const std::vector<int32_t> exclude_raw{3, 3, 1, num_items + 7, -2, 0};
  const std::vector<int32_t> exclude =
      retrieval::SanitizeExclude(exclude_raw, num_items);
  for (int32_t user = 0; user < std::min<int32_t>(num_users, 8); ++user) {
    const std::vector<float> scores = model.ScoreAll(user, num_items);
    factors->FillUserQuery(user, query);
    ExpectSameRanking(TopKScored(scores, 10), index.Query(query, 10),
                      name + " plain");
    ExpectSameRanking(BruteReference(scores, 10, exclude_raw),
                      index.Query(query, 10, exclude),
                      name + " excluded");
  }
}

TEST(RetrievalExport, EveryFactorizableModelScansBitwise) {
  for (const std::string& name : FactorizableMethodNames()) {
    std::unique_ptr<Recommender> model = MakeRecommender(name);
    model->Fit(SharedWorld().Context());
    ExpectExportContract(*model, name);
  }
}

TEST(RetrievalExport, EveryKgeBackendFactorizes) {
  // CFKG over each of the five KGE backends: the fixed-relation
  // factorization (FillHeadQuery / FillTailFactor) must reproduce the
  // backend's triple score bitwise, translation-distance and bilinear
  // alike.
  for (const char* backend :
       {"transe", "transh", "transr", "transd", "distmult"}) {
    CfkgConfig config;
    config.kge = backend;
    config.epochs = 4;
    CfkgRecommender model(config);
    model.Fit(SharedWorld().Context());
    ExpectExportContract(model, std::string("CFKG/") + backend);
  }
}

// ---------------------------------------------------------------------
// RetrievalIvf: determinism, exactness at full probe, exclusion.

OwnedFactors MixtureFactors(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  const size_t clusters = 8;
  Matrix centers(clusters, dim);
  for (size_t i = 0; i < centers.size(); ++i) {
    centers.data()[i] = static_cast<float>(rng.Normal());
  }
  OwnedFactors factors;
  factors.items = Matrix(n, dim);
  for (size_t i = 0; i < n; ++i) {
    const float* center = centers.Row(rng.UniformInt(clusters));
    float* row = factors.items.Row(i);
    for (size_t c = 0; c < dim; ++c) {
      row[c] = center[c] + 0.2f * static_cast<float>(rng.Normal());
    }
  }
  return factors;
}

TEST(RetrievalIvf, BuildIsBitwiseIdenticalAtAnyThreadCount) {
  const OwnedFactors factors = MixtureFactors(300, 8, 41);
  IvfConfig config;
  config.num_clusters = 12;
  config.num_probes = 3;

  IvfConfig threaded = config;
  threaded.num_threads = 4;
  const IvfIndex serial(factors.view(), config);
  const IvfIndex parallel(factors.view(), threaded);

  Rng rng(7);
  std::vector<float> query(8);
  for (int trial = 0; trial < 20; ++trial) {
    for (float& q : query) q = static_cast<float>(rng.Normal());
    ExpectSameRanking(serial.Query(query, 10), parallel.Query(query, 10),
                      "threaded build trial " + std::to_string(trial));
  }
}

TEST(RetrievalIvf, FullProbeIsBitwiseBruteForce) {
  const OwnedFactors factors = MixtureFactors(250, 8, 42);
  const BruteForceIndex exact(factors.view());
  IvfConfig config;
  config.num_clusters = 10;
  config.num_probes = 10;  // probes == clusters: nothing pruned
  const IvfIndex ivf(factors.view(), config);

  const std::vector<int32_t> exclude =
      retrieval::SanitizeExclude(std::vector<int32_t>{5, 17, 101}, 250);
  Rng rng(8);
  std::vector<float> query(8);
  for (int trial = 0; trial < 20; ++trial) {
    for (float& q : query) q = static_cast<float>(rng.Normal());
    ExpectSameRanking(exact.Query(query, 10), ivf.Query(query, 10),
                      "full probe");
    ExpectSameRanking(exact.Query(query, 10, exclude),
                      ivf.Query(query, 10, exclude), "full probe excluded");
  }
}

TEST(RetrievalIvf, ReasonableRecallAtDefaultProbes) {
  // Not the CI gate (bench/retrieval_scaling --smoke gates 0.95); this
  // is a sanity floor that catches a broken probe ranking outright.
  const OwnedFactors factors = MixtureFactors(400, 8, 43);
  const BruteForceIndex exact(factors.view());
  const IvfIndex ivf(factors.view(), IvfConfig{});

  Rng rng(9);
  std::vector<float> query(8);
  double recall = 0.0;
  const int trials = 30;
  for (int trial = 0; trial < trials; ++trial) {
    for (float& q : query) q = static_cast<float>(rng.Normal());
    const auto want = exact.Query(query, 10);
    const auto got = ivf.Query(query, 10);
    size_t hits = 0;
    for (const auto& [item, score] : got) {
      for (const auto& entry : want) {
        if (item == entry.first) {
          ++hits;
          break;
        }
      }
    }
    recall += static_cast<double>(hits) / static_cast<double>(want.size());
  }
  EXPECT_GE(recall / trials, 0.7);
}

// ---------------------------------------------------------------------
// RetrievalTwoStage: candidate generation + exact re-rank.

/// A deliberately non-factorizable ranker: score is a fixed function of
/// (user, item) with no inner-product structure.
class QuirkyRanker : public Recommender {
 public:
  std::string name() const override { return "QuirkyRanker"; }
  void Fit(const RecContext&) override {}
  float Score(int32_t user, int32_t item) const override {
    return static_cast<float>(((user * 31 + item * 17) % 23) -
                              (item % 5) * 0.25f);
  }
};

TEST(RetrievalTwoStage, RequiresFactorizableCandidateModel) {
  std::shared_ptr<const Recommender> bad =
      std::shared_ptr<Recommender>(MakeRecommender("Popularity"));
  std::unique_ptr<const TwoStageRetriever> retriever;
  const Status status =
      TwoStageRetriever::Create(bad, TwoStageConfig{}, &retriever);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(RetrievalTwoStage, RanksCandidatesWithTheRankerScores) {
  const RetrievalWorld& world = SharedWorld();
  const int32_t num_items = world.split.train.num_items();

  auto candidate = std::make_shared<MfRecommender>();
  candidate->Fit(world.Context());
  std::unique_ptr<const TwoStageRetriever> retriever;
  TwoStageConfig config;
  // Candidate pool covers the entire catalog: stage 2 then re-ranks
  // everything, so the result must equal the ranker's exhaustive top-k.
  config.min_candidates = static_cast<size_t>(num_items);
  ASSERT_TRUE(
      TwoStageRetriever::Create(candidate, config, &retriever).ok());

  const QuirkyRanker ranker;
  for (int32_t user = 0; user < 6; ++user) {
    const std::vector<float> scores = ranker.ScoreAll(user, num_items);
    ExpectSameRanking(BruteReference(scores, 10),
                      retriever->Recommend(ranker, user, 10),
                      "user " + std::to_string(user));
  }

  // With a narrow pool the results are the ranker's scores over the
  // candidate model's shortlist — every returned item must carry its
  // exact ranker score.
  TwoStageConfig narrow;
  narrow.candidates_per_k = 2;
  narrow.min_candidates = 8;
  std::unique_ptr<const TwoStageRetriever> shortlist;
  ASSERT_TRUE(
      TwoStageRetriever::Create(candidate, narrow, &shortlist).ok());
  const auto out = shortlist->Recommend(ranker, 1, 4);
  ASSERT_EQ(out.size(), 4u);
  for (const auto& [item, score] : out) {
    const float direct = ranker.Score(1, item);
    EXPECT_EQ(std::memcmp(&score, &direct, sizeof(float)), 0);
  }
}

// ---------------------------------------------------------------------
// RetrievalServe: ServeHandle::Recommend edge cases and the -inf fix.

/// Scores straight out of a table — lets tests plant NaN and -inf.
class TableModel : public Recommender {
 public:
  explicit TableModel(Matrix scores) : scores_(std::move(scores)) {}
  std::string name() const override { return "TableModel"; }
  void Fit(const RecContext&) override {}
  float Score(int32_t user, int32_t item) const override {
    return scores_.At(user, item);
  }

 private:
  Matrix scores_;
};

std::shared_ptr<const ServeHandle> TableHandle(const Matrix& scores) {
  const RetrievalWorld& world = SharedWorld();
  // The handle takes the catalog size from the context; the shared
  // world's 40 items must match the table width.
  EXPECT_EQ(scores.cols(), static_cast<size_t>(40));
  return ServeHandle::Adopt(std::make_unique<TableModel>(scores),
                            world.Context(), 1);
}

Matrix FiniteScores(uint64_t seed) {
  Matrix scores(30, 40);
  Rng rng(seed);
  for (size_t i = 0; i < scores.size(); ++i) {
    scores.data()[i] = static_cast<float>(rng.Normal());
  }
  return scores;
}

TEST(RetrievalServe, RecommendHandlesEdgeCasesAgainstReference) {
  const Matrix scores = FiniteScores(4242);
  const auto handle = TableHandle(scores);
  const int32_t n = 40;

  std::vector<float> row(scores.Row(2), scores.Row(2) + n);
  // k = 0 and k > catalog.
  EXPECT_TRUE(handle->Recommend(2, 0).empty());
  ExpectSameRanking(BruteReference(row, n + 25),
                    handle->Recommend(2, static_cast<size_t>(n) + 25),
                    "k > catalog");

  // All items excluded.
  std::vector<int32_t> all(n);
  for (int32_t i = 0; i < n; ++i) all[i] = i;
  EXPECT_TRUE(handle->Recommend(2, 10, all).empty());

  // Duplicate and out-of-range exclude ids are tolerated and the listed
  // items never come back.
  const std::vector<int32_t> messy{7, 7, -3, n + 100, 0, 7};
  const auto got = handle->Recommend(2, 10, messy);
  ExpectSameRanking(BruteReference(row, 10, messy), got, "messy excludes");
  for (const auto& [item, score] : got) {
    EXPECT_NE(item, 7);
    EXPECT_NE(item, 0);
  }
}

TEST(RetrievalServe, RecommendRanksNanLastDeterministically) {
  Matrix scores = FiniteScores(777);
  for (int32_t item = 0; item < 40; item += 3) {
    scores.At(4, item) = kNan;
  }
  const auto handle = TableHandle(scores);
  std::vector<float> row(scores.Row(4), scores.Row(4) + 40);
  ExpectSameRanking(BruteReference(row, 40), handle->Recommend(4, 40),
                    "NaN row");
}

TEST(RetrievalServe, NegativeInfinityScoresAreNotConfusedWithExclusion) {
  // Regression for the -inf sentinel scheme. A model that legitimately
  // scores items -inf must still have them ranked (last among non-NaN),
  // and excluded items must never resurface.
  Matrix scores = FiniteScores(31337);
  for (int32_t item = 0; item < 40; ++item) {
    scores.At(6, item) = -kInf;  // user 6 hates everything
  }
  scores.At(6, 13) = 1.0f;
  const auto handle = TableHandle(scores);

  // k = catalog with no exclusions: every item comes back, the -inf ones
  // in index order after item 13 — none silently dropped (the old code
  // popped every trailing -inf).
  const auto full = handle->Recommend(6, 40);
  ASSERT_EQ(full.size(), 40u);
  EXPECT_EQ(full[0].first, 13);
  EXPECT_EQ(full[1].first, 0);
  EXPECT_EQ(full[1].second, -kInf);

  // Excluding the only finite item: the result is 10 genuine -inf items,
  // 13 absent (the old code could return the excluded item here since
  // its sentinel score tied with the real -inf scores).
  const std::vector<int32_t> exclude{13};
  const auto got = handle->Recommend(6, 10, exclude);
  ASSERT_EQ(got.size(), 10u);
  for (const auto& [item, score] : got) {
    EXPECT_NE(item, 13);
    EXPECT_EQ(score, -kInf);
  }
  std::vector<float> row(scores.Row(6), scores.Row(6) + 40);
  ExpectSameRanking(BruteReference(row, 10, exclude), got, "-inf exclusion");
}

TEST(RetrievalServe, IndexedHandleIsBitwiseExhaustive) {
  // A factorizable model behind kAuto serves through the exact index;
  // kExhaustive forces the ScoreAll path. Both must agree bitwise.
  const RetrievalWorld& world = SharedWorld();
  auto fitted = std::make_unique<MfRecommender>();
  fitted->Fit(world.Context());
  auto fitted_copy = std::make_unique<MfRecommender>();
  fitted_copy->Fit(world.Context());

  const auto indexed =
      ServeHandle::Adopt(std::move(fitted), world.Context(), 1);
  EXPECT_EQ(indexed->retrieval_mode(), "exact-index");
  ASSERT_NE(indexed->index(), nullptr);

  RetrievalSpec exhaustive;
  exhaustive.mode = RetrievalSpec::Mode::kExhaustive;
  std::shared_ptr<const ServeHandle> scan;
  ASSERT_TRUE(ServeHandle::Adopt(std::move(fitted_copy), world.Context(), 1,
                                 exhaustive, &scan)
                  .ok());
  EXPECT_EQ(scan->retrieval_mode(), "exhaustive");

  const std::vector<int32_t> exclude{1, 5, 5, 200};
  for (int32_t user = 0; user < 8; ++user) {
    ExpectSameRanking(scan->Recommend(user, 10), indexed->Recommend(user, 10),
                      "indexed vs exhaustive");
    ExpectSameRanking(scan->Recommend(user, 10, exclude),
                      indexed->Recommend(user, 10, exclude),
                      "indexed vs exhaustive excluded");
  }
}

TEST(RetrievalServe, SpecFailsCleanlyOnNonFactorizableModels) {
  const RetrievalWorld& world = SharedWorld();
  RetrievalSpec exact;
  exact.mode = RetrievalSpec::Mode::kExact;
  std::shared_ptr<const ServeHandle> handle;
  const Status status =
      ServeHandle::Adopt(std::make_unique<TableModel>(FiniteScores(1)),
                         world.Context(), 1, exact, &handle);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(handle, nullptr);

  // kAuto on the same model falls back to the exhaustive path instead.
  const auto served = ServeHandle::Adopt(
      std::make_unique<TableModel>(FiniteScores(1)), world.Context(), 1);
  EXPECT_EQ(served->retrieval_mode(), "exhaustive");
}

TEST(RetrievalServe, TwoStageHandleServesRankerScores) {
  const RetrievalWorld& world = SharedWorld();
  const int32_t num_items = world.split.train.num_items();
  auto candidate = std::make_shared<MfRecommender>();
  candidate->Fit(world.Context());

  RetrievalSpec spec;
  spec.mode = RetrievalSpec::Mode::kTwoStage;
  spec.candidate_model = candidate;
  spec.two_stage.min_candidates = static_cast<size_t>(num_items);
  std::shared_ptr<const ServeHandle> handle;
  ASSERT_TRUE(ServeHandle::Adopt(std::make_unique<QuirkyRanker>(),
                                 world.Context(), 1, spec, &handle)
                  .ok());
  EXPECT_EQ(handle->retrieval_mode(), "two-stage");

  const QuirkyRanker reference;
  for (int32_t user = 0; user < 6; ++user) {
    const std::vector<float> scores = reference.ScoreAll(user, num_items);
    ExpectSameRanking(BruteReference(scores, 10), handle->Recommend(user, 10),
                      "two-stage user " + std::to_string(user));
  }
}

// ---------------------------------------------------------------------
// RetrievalRouter: recommend traffic through the admission machinery.

TEST(RetrievalRouter, RecommendSyncMatchesDirectHandleCall) {
  const RetrievalWorld& world = SharedWorld();
  auto fitted = std::make_unique<MfRecommender>();
  fitted->Fit(world.Context());
  const auto handle = ServeHandle::Adopt(std::move(fitted), world.Context(), 7);

  serve::RouterConfig config;
  config.num_threads = 2;
  serve::Router router(config, handle);

  for (int32_t user = 0; user < 8; ++user) {
    serve::RecommendRequest request;
    request.user = user;
    request.k = 5;
    request.exclude = {2, 2, -1, 999};
    const serve::RecommendResponse response =
        router.RecommendSync(std::move(request));
    ASSERT_TRUE(response.status.ok());
    EXPECT_EQ(response.generation, 7u);
    EXPECT_GT(response.completed_ns, 0u);
    const std::vector<int32_t> exclude{2, 2, -1, 999};
    ExpectSameRanking(handle->Recommend(user, 5, exclude), response.items,
                      "router user " + std::to_string(user));
  }
}

TEST(RetrievalRouter, MixedScoreAndRecommendTrafficBothDeliver) {
  const RetrievalWorld& world = SharedWorld();
  auto fitted = std::make_unique<MfRecommender>();
  fitted->Fit(world.Context());
  const auto handle = ServeHandle::Adopt(std::move(fitted), world.Context(), 3);

  serve::RouterConfig config;
  config.num_threads = 3;
  serve::Router router(config, handle);

  std::vector<std::future<serve::ScoreResponse>> score_futures;
  std::vector<std::future<serve::RecommendResponse>> rec_futures;
  std::vector<int32_t> items{0, 1, 2, 3, 4};
  for (int round = 0; round < 20; ++round) {
    const int32_t user = round % 6;
    serve::ScoreRequest score_request;
    score_request.user = user;
    score_request.items = items;
    score_futures.push_back(router.Submit(std::move(score_request)));
    serve::RecommendRequest rec_request;
    rec_request.user = user;
    rec_request.k = 4;
    rec_futures.push_back(router.SubmitRecommend(std::move(rec_request)));
  }
  for (size_t i = 0; i < score_futures.size(); ++i) {
    const int32_t user = static_cast<int32_t>(i) % 6;
    const serve::ScoreResponse response = score_futures[i].get();
    ASSERT_TRUE(response.status.ok());
    const std::vector<float> want = handle->ScoreItems(user, items);
    ASSERT_EQ(response.scores.size(), want.size());
    for (size_t j = 0; j < want.size(); ++j) {
      EXPECT_EQ(std::memcmp(&response.scores[j], &want[j], sizeof(float)), 0);
    }
    const serve::RecommendResponse rec = rec_futures[i].get();
    ASSERT_TRUE(rec.status.ok());
    ExpectSameRanking(handle->Recommend(user, 4), rec.items,
                      "mixed round " + std::to_string(i));
  }
  const serve::RouterStats stats = router.Stats();
  EXPECT_EQ(stats.accepted, 40u);
  EXPECT_EQ(stats.responses, 40u);
  EXPECT_EQ(stats.rejected, 0u);
}

// ---------------------------------------------------------------------
// RetrievalSq8: the quantized scan with exact float re-rank must return
// the float32 index's result bitwise (the DESIGN §12 gate).

retrieval::ScanSpec Sq8Spec() {
  retrieval::ScanSpec spec;
  spec.precision = retrieval::ScanPrecision::kSq8;
  return spec;
}

TEST(RetrievalSq8, BruteDotScanIsBitwiseFloat) {
  const OwnedFactors factors = MixtureFactors(400, 12, 321);
  const BruteForceIndex exact(factors.view());
  const BruteForceIndex sq8(factors.view(), Sq8Spec());
  ASSERT_NE(sq8.quantized(), nullptr);
  EXPECT_EQ(sq8.quantized()->code_bytes(), 400u * 12u);

  const std::vector<int32_t> exclude =
      retrieval::SanitizeExclude(std::vector<int32_t>{3, 44, 101, 399}, 400);
  Rng rng(17);
  std::vector<float> query(12);
  for (int trial = 0; trial < 25; ++trial) {
    for (float& q : query) q = static_cast<float>(rng.Normal());
    for (size_t k : {size_t{1}, size_t{10}, size_t{40}}) {
      ExpectSameRanking(exact.Query(query, k), sq8.Query(query, k),
                        "sq8 dot k=" + std::to_string(k));
      ExpectSameRanking(exact.Query(query, k, exclude),
                        sq8.Query(query, k, exclude),
                        "sq8 dot excluded k=" + std::to_string(k));
    }
  }
}

TEST(RetrievalSq8, BruteL2ScanIsBitwiseFloat) {
  OwnedFactors factors = MixtureFactors(400, 12, 654);
  factors.kernel = ScoreKernel::kNegSquaredL2;
  const BruteForceIndex exact(factors.view());
  const BruteForceIndex sq8(factors.view(), Sq8Spec());

  Rng rng(18);
  std::vector<float> query(12);
  for (int trial = 0; trial < 25; ++trial) {
    for (float& q : query) q = static_cast<float>(rng.Normal());
    ExpectSameRanking(exact.Query(query, 10), sq8.Query(query, 10),
                      "sq8 l2 trial " + std::to_string(trial));
  }
}

TEST(RetrievalSq8, NonFiniteFactorRowsStayBitwise) {
  // A few NaN/±inf item rows: the approximate scan gives them arbitrary
  // finite pool scores, the re-rank restores their true (NaN-last /
  // inf-first) placement. The widened pool absorbs the shuffling.
  OwnedFactors factors = MixtureFactors(300, 8, 777);
  factors.items.At(5, 2) = kNan;
  factors.items.At(17, 0) = kInf;
  factors.items.At(42, 6) = -kInf;
  for (size_t d = 0; d < 8; ++d) factors.items.At(99, d) = kNan;
  const BruteForceIndex exact(factors.view());
  const BruteForceIndex sq8(factors.view(), Sq8Spec());

  Rng rng(19);
  std::vector<float> query(8);
  for (int trial = 0; trial < 20; ++trial) {
    for (float& q : query) q = static_cast<float>(rng.Normal());
    ExpectSameRanking(exact.Query(query, 10), sq8.Query(query, 10),
                      "sq8 weird trial " + std::to_string(trial));
  }
}

TEST(RetrievalSq8, PoolCoveringCatalogIsExactByConstruction) {
  // k + rerank_slack >= catalog: the pool holds every non-excluded item,
  // so the re-rank IS the full float scan — equality is structural, not
  // empirical.
  const OwnedFactors factors = MixtureFactors(60, 6, 888);
  const BruteForceIndex exact(factors.view());
  retrieval::ScanSpec spec = Sq8Spec();
  spec.rerank_factor = 1;
  spec.rerank_slack = 60;
  const BruteForceIndex sq8(factors.view(), spec);
  Rng rng(20);
  std::vector<float> query(6);
  for (int trial = 0; trial < 10; ++trial) {
    for (float& q : query) q = static_cast<float>(rng.Normal());
    ExpectSameRanking(exact.Query(query, 25), sq8.Query(query, 25),
                      "covering pool");
  }
}

TEST(RetrievalSq8, IvfSq8FullProbeIsBitwiseBruteFloat) {
  const OwnedFactors factors = MixtureFactors(250, 8, 999);
  const BruteForceIndex exact(factors.view());
  IvfConfig config;
  config.num_clusters = 10;
  config.num_probes = 10;  // nothing pruned: sq8 rerank must equal brute
  const IvfIndex ivf(factors.view(), config, Sq8Spec());

  const std::vector<int32_t> exclude =
      retrieval::SanitizeExclude(std::vector<int32_t>{5, 17, 101}, 250);
  Rng rng(21);
  std::vector<float> query(8);
  for (int trial = 0; trial < 20; ++trial) {
    for (float& q : query) q = static_cast<float>(rng.Normal());
    ExpectSameRanking(exact.Query(query, 10), ivf.Query(query, 10),
                      "ivf sq8 full probe");
    ExpectSameRanking(exact.Query(query, 10, exclude),
                      ivf.Query(query, 10, exclude),
                      "ivf sq8 full probe excluded");
  }
}

TEST(RetrievalSq8, IvfSq8MatchesIvfFloatAtPartialProbes) {
  // Same probes, different scan representation: probe selection is
  // always float, so the scanned id set is identical and the re-rank
  // must reproduce the float IVF result bitwise.
  const OwnedFactors factors = MixtureFactors(300, 8, 1001);
  IvfConfig config;
  config.num_clusters = 12;
  config.num_probes = 4;
  const IvfIndex f32(factors.view(), config);
  const IvfIndex sq8(factors.view(), config, Sq8Spec());
  Rng rng(22);
  std::vector<float> query(8);
  for (int trial = 0; trial < 20; ++trial) {
    for (float& q : query) q = static_cast<float>(rng.Normal());
    ExpectSameRanking(f32.Query(query, 10), sq8.Query(query, 10),
                      "ivf sq8 partial probes");
  }
}

void ExpectSq8ServesBitwise(Recommender& model, const std::string& name) {
  const DotProductFactors* factors = AsFactorizable(model);
  ASSERT_NE(factors, nullptr) << name;
  const BruteForceIndex exact(factors->item_factors());
  const BruteForceIndex sq8(factors->item_factors(), Sq8Spec());
  const RetrievalWorld& world = SharedWorld();
  const int32_t num_users = world.split.train.num_users();
  std::vector<float> query(factors->factor_dim());
  for (int32_t user = 0; user < std::min<int32_t>(num_users, 8); ++user) {
    factors->FillUserQuery(user, query);
    ExpectSameRanking(exact.Query(query, 10), sq8.Query(query, 10),
                      name + " sq8 user " + std::to_string(user));
  }
}

TEST(RetrievalSq8, EveryFactorizableModelServesBitwise) {
  for (const std::string& name : FactorizableMethodNames()) {
    std::unique_ptr<Recommender> model = MakeRecommender(name);
    model->Fit(SharedWorld().Context());
    ExpectSq8ServesBitwise(*model, name);
  }
}

TEST(RetrievalSq8, EveryKgeBackendServesBitwise) {
  for (const char* backend :
       {"transe", "transh", "transr", "transd", "distmult"}) {
    CfkgConfig config;
    config.kge = backend;
    config.epochs = 4;
    CfkgRecommender model(config);
    model.Fit(SharedWorld().Context());
    ExpectSq8ServesBitwise(model, std::string("CFKG/") + backend);
  }
}

TEST(RetrievalSq8, ServeHandleAndRouterCarryTheSq8Mode) {
  const RetrievalWorld& world = SharedWorld();
  auto fitted = std::make_unique<MfRecommender>();
  fitted->Fit(world.Context());
  auto fitted_copy = std::make_unique<MfRecommender>();
  fitted_copy->Fit(world.Context());

  const auto float_handle =
      ServeHandle::Adopt(std::move(fitted_copy), world.Context(), 1);

  RetrievalSpec spec;
  spec.mode = RetrievalSpec::Mode::kExact;
  spec.scan = Sq8Spec();
  std::shared_ptr<const ServeHandle> sq8_handle;
  ASSERT_TRUE(ServeHandle::Adopt(std::move(fitted), world.Context(), 1, spec,
                                 &sq8_handle)
                  .ok());
  EXPECT_EQ(sq8_handle->retrieval_mode(), "exact-index+sq8");
  ASSERT_NE(sq8_handle->index(), nullptr);
  EXPECT_EQ(sq8_handle->index()->precision(),
            retrieval::ScanPrecision::kSq8);

  const std::vector<int32_t> exclude{1, 5, 5, 200};
  for (int32_t user = 0; user < 8; ++user) {
    ExpectSameRanking(float_handle->Recommend(user, 10, exclude),
                      sq8_handle->Recommend(user, 10, exclude),
                      "sq8 handle user " + std::to_string(user));
  }

  // Router recommend traffic over the sq8 handle: batching and worker
  // threads change nothing.
  serve::RouterConfig router_config;
  router_config.num_threads = 2;
  serve::Router router(router_config, sq8_handle);
  for (int32_t user = 0; user < 6; ++user) {
    serve::RecommendRequest request;
    request.user = user;
    request.k = 5;
    const serve::RecommendResponse response =
        router.RecommendSync(std::move(request));
    ASSERT_TRUE(response.status.ok());
    ExpectSameRanking(sq8_handle->Recommend(user, 5), response.items,
                      "sq8 router user " + std::to_string(user));
  }
}

TEST(RetrievalSq8, TwoStageWithSq8StageOneServesRankerScores) {
  const RetrievalWorld& world = SharedWorld();
  const int32_t num_items = world.split.train.num_items();
  auto candidate = std::make_shared<MfRecommender>();
  candidate->Fit(world.Context());

  RetrievalSpec spec;
  spec.mode = RetrievalSpec::Mode::kTwoStage;
  spec.candidate_model = candidate;
  spec.two_stage.min_candidates = static_cast<size_t>(num_items);
  spec.two_stage.scan = Sq8Spec();
  std::shared_ptr<const ServeHandle> handle;
  ASSERT_TRUE(ServeHandle::Adopt(std::make_unique<QuirkyRanker>(),
                                 world.Context(), 1, spec, &handle)
                  .ok());
  EXPECT_EQ(handle->retrieval_mode(), "two-stage+sq8");

  const QuirkyRanker reference;
  for (int32_t user = 0; user < 6; ++user) {
    const std::vector<float> scores = reference.ScoreAll(user, num_items);
    ExpectSameRanking(BruteReference(scores, 10), handle->Recommend(user, 10),
                      "two-stage sq8 user " + std::to_string(user));
  }
}

// ---------------------------------------------------------------------
// RetrievalScratch: the hoisted per-call scratch makes steady-state
// queries allocation-free, pinned with a counting operator new.

TEST(RetrievalScratch, SteadyStateQueriesAreAllocationFree) {
  const OwnedFactors factors = MixtureFactors(500, 16, 2025);
  const BruteForceIndex f32(factors.view());
  const BruteForceIndex sq8(factors.view(), Sq8Spec());
  IvfConfig ivf_config;
  ivf_config.num_clusters = 16;
  ivf_config.num_probes = 4;
  const IvfIndex ivf(factors.view(), ivf_config, Sq8Spec());

  retrieval::SearchScratch scratch;
  std::vector<std::pair<int32_t, float>> out;
  const std::vector<int32_t> exclude =
      retrieval::SanitizeExclude(std::vector<int32_t>{3, 10, 77, 410}, 500);
  Rng rng(23);
  std::vector<float> query(16);
  for (float& q : query) q = static_cast<float>(rng.Normal());

  // Warm-up: every scratch buffer reaches steady-state capacity.
  for (int i = 0; i < 3; ++i) {
    f32.QueryInto(query, 10, exclude, scratch, &out);
    sq8.QueryInto(query, 10, exclude, scratch, &out);
    ivf.QueryInto(query, 10, exclude, scratch, &out);
  }

  kgrec_test_alloc::g_count = 0;
  kgrec_test_alloc::g_counting = true;
  for (int i = 0; i < 5; ++i) {
    f32.QueryInto(query, 10, exclude, scratch, &out);
    sq8.QueryInto(query, 10, exclude, scratch, &out);
    ivf.QueryInto(query, 10, exclude, scratch, &out);
  }
  kgrec_test_alloc::g_counting = false;
  EXPECT_EQ(kgrec_test_alloc::g_count, 0u)
      << "steady-state QueryInto allocated";
}

// ---------------------------------------------------------------------
// RetrievalNoCopy: indexes borrow the model's item rows.

TEST(RetrievalNoCopy, AdoptWithAnExactIndexDoesNotCopyTheItemTable) {
  MfConfig mf_config;
  mf_config.dim = 64;
  mf_config.epochs = 2;
  auto model = std::make_unique<MfRecommender>(mf_config);
  model->Fit(SharedWorld().Context());
  const RowsView items = model->item_factors().items;
  const size_t table_bytes = items.rows * items.dim * sizeof(float);
  const float* rows = items.data;

  RetrievalSpec spec;
  spec.mode = RetrievalSpec::Mode::kExact;  // float32 scan
  std::shared_ptr<const ServeHandle> handle;
  kgrec_test_alloc::g_largest = 0;
  kgrec_test_alloc::g_counting = true;
  const Status status = ServeHandle::Adopt(
      std::move(model), SharedWorld().Context(), 1, spec, &handle);
  kgrec_test_alloc::g_counting = false;
  ASSERT_TRUE(status.ok()) << status.message();
  ASSERT_EQ(handle->retrieval_mode(), "exact-index");
  EXPECT_LT(kgrec_test_alloc::g_largest, table_bytes)
      << "Adopt allocated a buffer as large as the item table";
  EXPECT_EQ(handle->index()->factors().items.data, rows)
      << "the index must scan the model's own rows";
}

TEST(RetrievalScratch, QueryIntoMatchesQueryAcrossScratchReuse) {
  // One scratch reused across different indexes, kernels and k values
  // must never leak state between calls.
  OwnedFactors dot_factors = MixtureFactors(200, 8, 31);
  OwnedFactors l2_factors = MixtureFactors(200, 8, 32);
  l2_factors.kernel = ScoreKernel::kNegSquaredL2;
  const BruteForceIndex dot_sq8(dot_factors.view(), Sq8Spec());
  const BruteForceIndex l2_sq8(l2_factors.view(), Sq8Spec());
  const BruteForceIndex dot_f32(dot_factors.view());

  retrieval::SearchScratch scratch;
  std::vector<std::pair<int32_t, float>> out;
  Rng rng(24);
  std::vector<float> query(8);
  for (int trial = 0; trial < 15; ++trial) {
    for (float& q : query) q = static_cast<float>(rng.Normal());
    const size_t k = 1 + static_cast<size_t>(trial);
    dot_sq8.QueryInto(query, k, {}, scratch, &out);
    ExpectSameRanking(dot_sq8.Query(query, k), out, "reuse dot");
    l2_sq8.QueryInto(query, k, {}, scratch, &out);
    ExpectSameRanking(l2_sq8.Query(query, k), out, "reuse l2");
    dot_f32.QueryInto(query, k, {}, scratch, &out);
    ExpectSameRanking(dot_f32.Query(query, k), out, "reuse f32");
  }
}

}  // namespace
}  // namespace kgrec
