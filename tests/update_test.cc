// Lockdown for the streaming/online-update layer (DESIGN.md §13): the
// event-stream replay contract, the registry-wide Recommender::Update()
// determinism contract, the InteractionDataset frozen-epoch machinery
// that lets serve-path readers survive a streaming writer and the
// append-aware index that extends instead of rebuilding, the
// KnowledgeGraph incremental-batch growth path, and the router's
// SwapFromUpdate hot swap.

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/recommender.h"
#include "core/registry.h"
#include "data/event_stream.h"
#include "data/interactions.h"
#include "data/synthetic.h"
#include "eval/protocol.h"
#include "graph/knowledge_graph.h"
#include "serve/router.h"
#include "serve/serve_handle.h"

namespace kgrec {
namespace {

EventStreamConfig TinyStreamConfig() {
  WorldConfig world;
  world.name = "update-test";
  world.num_users = 26;
  world.num_items = 20;
  world.avg_interactions_per_user = 5.0;
  world.item_relations = {
      {.name = "genre", .num_values = 6, .links_per_item = 2},
      {.name = "studio", .num_values = 5, .links_per_item = 1},
  };
  EventStreamConfig config;
  config.world = world;
  config.base_user_fraction = 0.7;
  config.held_out_values_per_relation = 2;
  config.stream_seed = 17;
  return config;
}

RecContext MakeContext(const InteractionDataset& train,
                       const KnowledgeGraph& kg, const UserItemGraph& uig) {
  RecContext ctx;
  ctx.train = &train;
  ctx.item_kg = &kg;
  ctx.user_item_graph = &uig;
  ctx.seed = 17;
  return ctx;
}

/// Bitwise score equality over a spread of users (old and new) and a
/// duplicate-bearing candidate list.
void ExpectScoresBitwise(const Recommender& a, const Recommender& b,
                         int32_t num_users, int32_t num_items) {
  std::vector<int32_t> candidates;
  for (int32_t i = 0; i < num_items; i += 2) candidates.push_back(i);
  candidates.push_back(candidates.front());
  for (int32_t user = 0; user < num_users; user += 3) {
    const std::vector<float> sa = a.ScoreItems(user, candidates);
    const std::vector<float> sb = b.ScoreItems(user, candidates);
    for (size_t i = 0; i < candidates.size(); ++i) {
      ASSERT_EQ(std::memcmp(&sa[i], &sb[i], sizeof(float)), 0)
          << a.name() << ": user " << user << " item " << candidates[i];
    }
  }
}

// ---------------------------------------------------------------------
// Event stream: replay == from-scratch build, and stream shape.

TEST(EventStream, PrefixReplayMatchesFromScratchBuild) {
  const EventStream stream(TinyStreamConfig());
  const size_t n = stream.size();
  ASSERT_GT(n, 0u);

  InteractionDataset replayed = stream.BaseInteractions();
  KnowledgeGraph replayed_kg = stream.BaseItemKg();
  size_t prev = 0;
  for (const size_t t : {size_t{0}, n / 4, n / 2, n}) {
    stream.ApplyBatch(stream.Batch(prev, t), &replayed, &replayed_kg);
    prev = t;
    const StreamSnapshot snap = stream.MaterializeAt(static_cast<int64_t>(t));
    std::string why;
    EXPECT_TRUE(StreamEquals(replayed, replayed_kg, snap.interactions,
                             snap.item_kg, &why))
        << "prefix " << t << ": " << why;
  }
  EXPECT_EQ(replayed.num_users(), stream.total_num_users());
  EXPECT_EQ(replayed_kg.num_entities(), stream.total_num_entities());
}

TEST(EventStream, StreamShapeInvariants) {
  const EventStream stream(TinyStreamConfig());
  const auto& events = stream.events();
  ASSERT_FALSE(events.empty());

  int32_t users_so_far = stream.base_num_users();
  EntityId next_entity = static_cast<EntityId>(stream.base_num_entities());
  int64_t expected_ts = 1;
  for (const Event& e : events) {
    EXPECT_EQ(e.timestamp, expected_ts++);  // dense, strictly increasing
    switch (e.kind) {
      case EventKind::kNewUser:
        EXPECT_EQ(e.user, users_so_far++);  // id suffix, arrival order
        break;
      case EventKind::kNewInteraction:
        EXPECT_GE(e.user, 0);
        EXPECT_LT(e.user, users_so_far);  // the user already arrived
        EXPECT_GE(e.item, 0);
        EXPECT_LT(e.item, stream.num_items());
        break;
      case EventKind::kNewEntity:
        EXPECT_EQ(e.entity, next_entity++);  // compact suffix ids
        EXPECT_GE(e.entity_type, 1);
        EXPECT_FALSE(e.entity_name.empty());
        break;
      case EventKind::kNewFact:
        EXPECT_GE(e.head, 0);
        EXPECT_LT(e.head, next_entity);
        EXPECT_GE(e.tail, 0);
        EXPECT_LT(e.tail, next_entity);
        EXPECT_GE(e.relation, 0);
        EXPECT_NE(e.relation, e.inverse_relation);
        break;
    }
  }
  EXPECT_EQ(users_so_far, stream.total_num_users());
  EXPECT_EQ(static_cast<size_t>(next_entity), stream.total_num_entities());
}

// ---------------------------------------------------------------------
// The registry-wide Update() contract.

TEST(OnlineUpdate, RegistryAgreesWithModels) {
  for (const std::string& name : ImplementedMethodNames()) {
    std::unique_ptr<Recommender> model = MakeRecommender(name);
    ASSERT_NE(model, nullptr) << name;
    EXPECT_EQ(SupportsUpdate(name), model->SupportsUpdate()) << name;
  }
  // The updatable zoo is non-trivial and spans the MF, KGE and
  // propagation families.
  const std::vector<std::string> updatable = UpdatableMethodNames();
  EXPECT_GE(updatable.size(), 5u);
}

// Every updatable model: fit -> update must serve bitwise the same
// scores as fit -> save -> load -> update (no hidden RNG state survives
// a checkpoint), and the updated model's metrics must be bitwise
// identical at 1/2/8 eval threads.
TEST(OnlineUpdate, BitwiseAcrossRoundtripAndThreadCounts) {
  const EventStream stream(TinyStreamConfig());
  const size_t n = stream.size();

  const InteractionDataset base_train = stream.BaseInteractions();
  const KnowledgeGraph base_kg = stream.BaseItemKg();
  const UserItemGraph base_uig = stream.BaseUserItemGraph();
  const RecContext base_ctx = MakeContext(base_train, base_kg, base_uig);

  InteractionDataset live_train = base_train;
  KnowledgeGraph live_kg = base_kg;
  UserItemGraph live_uig = base_uig;
  const RecContext live_ctx = MakeContext(live_train, live_kg, live_uig);

  // Fit + clone everything on the pristine base, then stream the world
  // into both copies in the same two batches: the contract checked is
  // bitwise equality for one partition across a checkpoint round-trip.
  // Folds are not partition-invariant in general — MF/BPR-MF draw fold
  // negatives from the post-batch world — so the two sides must share it.
  const std::string ckpt = testing::TempDir() + "update_roundtrip.kgrc";
  std::vector<std::unique_ptr<Recommender>> fitted, restored;
  for (const std::string& name : UpdatableMethodNames()) {
    std::unique_ptr<Recommender> model = MakeRecommender(name);
    model->Fit(base_ctx);
    ASSERT_TRUE(model->Save(ckpt).ok()) << name;
    std::unique_ptr<Recommender> clone;
    ASSERT_TRUE(LoadModel(base_ctx, ckpt, &clone).ok()) << name;
    fitted.push_back(std::move(model));
    restored.push_back(std::move(clone));
  }
  std::remove(ckpt.c_str());
  size_t prev = 0;
  for (const size_t t : {n / 2, n}) {
    const EventBatch batch = stream.Batch(prev, t);
    prev = t;
    stream.ApplyBatch(batch, &live_train, &live_kg);
    stream.ApplyBatchToUserItemGraph(batch, &live_uig);
    for (size_t i = 0; i < fitted.size(); ++i) {
      ASSERT_TRUE(fitted[i]->Update(live_ctx, batch).ok())
          << fitted[i]->name();
      ASSERT_TRUE(restored[i]->Update(live_ctx, batch).ok())
          << restored[i]->name();
    }
  }

  // An eval probe over the streamed tail (determinism check, so overlap
  // with the folded events is irrelevant).
  InteractionDataset probe(live_train.num_users(), live_train.num_items());
  const auto& events = stream.events();
  for (size_t i = 3 * n / 4; i < n; ++i) {
    if (events[i].kind == EventKind::kNewInteraction) {
      probe.Add(events[i].user, events[i].item);
    }
  }
  ASSERT_GT(probe.num_interactions(), 0u);

  for (size_t i = 0; i < fitted.size(); ++i) {
    ExpectScoresBitwise(*fitted[i], *restored[i], stream.total_num_users(),
                        stream.num_items());
    EvalOptions options;
    options.seed = Rng(102).NextUint64();
    options.num_threads = 1;
    const TopKMetrics serial =
        EvaluateTopK(*fitted[i], live_train, probe, options);
    for (const size_t threads : {size_t{2}, size_t{8}}) {
      options.num_threads = threads;
      const TopKMetrics parallel =
          EvaluateTopK(*fitted[i], live_train, probe, options);
      EXPECT_EQ(std::memcmp(&serial.ndcg, &parallel.ndcg, sizeof(double)), 0)
          << fitted[i]->name() << " at " << threads << " threads";
      EXPECT_EQ(std::memcmp(&serial.mrr, &parallel.mrr, sizeof(double)), 0)
          << fitted[i]->name() << " at " << threads << " threads";
      EXPECT_EQ(serial.num_users, parallel.num_users) << fitted[i]->name();
    }
  }
}

TEST(OnlineUpdate, NonUpdatableRefusesAndStaysUntouched) {
  const EventStream stream(TinyStreamConfig());
  const InteractionDataset base_train = stream.BaseInteractions();
  const KnowledgeGraph base_kg = stream.BaseItemKg();
  const UserItemGraph base_uig = stream.BaseUserItemGraph();
  const RecContext base_ctx = MakeContext(base_train, base_kg, base_uig);

  std::string non_updatable;
  for (const std::string& name : ImplementedMethodNames()) {
    if (!SupportsUpdate(name)) {
      non_updatable = name;
      break;
    }
  }
  ASSERT_FALSE(non_updatable.empty());

  std::unique_ptr<Recommender> model = MakeRecommender(non_updatable);
  model->Fit(base_ctx);
  std::vector<int32_t> candidates;
  for (int32_t i = 0; i < stream.num_items(); ++i) candidates.push_back(i);
  const std::vector<float> before = model->ScoreItems(0, candidates);

  const Status status =
      model->Update(base_ctx, stream.Batch(0, stream.size()));
  EXPECT_EQ(status.code(), StatusCode::kUnimplemented);
  EXPECT_FALSE(model->SupportsUpdate());

  const std::vector<float> after = model->ScoreItems(0, candidates);
  for (size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_EQ(std::memcmp(&before[i], &after[i], sizeof(float)), 0);
  }
}

TEST(OnlineUpdate, UnfittedModelFailsPrecondition) {
  const EventStream stream(TinyStreamConfig());
  const InteractionDataset base_train = stream.BaseInteractions();
  const KnowledgeGraph base_kg = stream.BaseItemKg();
  const UserItemGraph base_uig = stream.BaseUserItemGraph();
  const RecContext base_ctx = MakeContext(base_train, base_kg, base_uig);
  for (const char* name : {"MF", "RippleNet"}) {
    std::unique_ptr<Recommender> model = MakeRecommender(name);
    const Status status =
        model->Update(base_ctx, stream.Batch(0, stream.size()));
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << name;
  }
}

// ---------------------------------------------------------------------
// InteractionDataset frozen epochs: the streaming writer's contract.

TEST(FreezeThaw, FrozenEpochPinsReadsAndGeneration) {
  InteractionDataset data(4, 8);
  data.Add(0, 1);
  data.Add(0, 2);
  data.Add(1, 3);
  ASSERT_FALSE(data.UserItems(0).empty());  // builds the index
  const uint64_t built = data.index_generation();
  EXPECT_GT(built, 0u);

  data.Freeze();
  EXPECT_TRUE(data.frozen());
  const std::span<const int32_t> pinned = data.UserItems(0);
  data.Add(0, 7);       // lands in the log, invisible to the epoch
  data.GrowUsers(2);    // deferred: new users report empty histories
  EXPECT_EQ(data.num_users(), 6);
  EXPECT_EQ(data.num_interactions(), 4u);
  EXPECT_EQ(data.index_generation(), built);  // no rebuild while frozen
  EXPECT_FALSE(data.Contains(0, 7));          // pinned-epoch answer
  EXPECT_EQ(data.UserItems(0).size(), 2u);
  EXPECT_EQ(data.UserItems(0).data(), pinned.data());  // same storage
  EXPECT_TRUE(data.UserItems(4).empty());

  data.Thaw();
  EXPECT_FALSE(data.frozen());
  EXPECT_TRUE(data.Contains(0, 7));  // appended event now visible
  EXPECT_EQ(data.UserItems(0).size(), 3u);
  EXPECT_GT(data.index_generation(), built);
}

TEST(FreezeThaw, ContainsFallsBackToLinearScanOnDirtyIndex) {
  InteractionDataset data(3, 40);
  data.Add(0, 4);
  data.Add(0, 30);
  // No index built yet: Contains answers from the log without forcing a
  // build (a one-off query must never reallocate under span holders).
  EXPECT_TRUE(data.Contains(0, 30));
  EXPECT_FALSE(data.Contains(0, 5));
  EXPECT_EQ(data.index_generation(), 0u);

  ASSERT_EQ(data.UserItems(0).size(), 2u);  // builds; binary-search lane
  const uint64_t built = data.index_generation();
  EXPECT_TRUE(data.Contains(0, 4));
  EXPECT_EQ(data.index_generation(), built);

  // Dirty the index: Contains must see the new pair via the linear
  // fallback and must NOT rebuild (generation unchanged).
  data.Add(1, 17);
  EXPECT_TRUE(data.Contains(1, 17));
  EXPECT_FALSE(data.Contains(1, 16));
  EXPECT_EQ(data.index_generation(), built);
  // The next span request rebuilds.
  EXPECT_EQ(data.UserItems(1).size(), 1u);
  EXPECT_GT(data.index_generation(), built);
}

// TSan regression: reader threads hammer UserItems()/Contains() and hold
// spans across calls while the single streaming writer appends into a
// frozen epoch and widens the user space. Any index rebuild concurrent
// with those reads is a race; the frozen epoch is what forbids it.
TEST(FreezeThaw, ConcurrentEpochReadersDuringFrozenAppends) {
  constexpr int32_t kUsers = 24;
  constexpr int32_t kItems = 16;
  InteractionDataset data(kUsers, kItems);
  Rng rng(11);
  for (int32_t u = 0; u < kUsers; ++u) {
    for (int k = 0; k < 5; ++k) {
      data.Add(u, static_cast<int32_t>(rng.UniformInt(kItems - 1)));
    }
  }
  data.Freeze();
  std::vector<std::vector<int32_t>> pinned(kUsers);
  for (int32_t u = 0; u < kUsers; ++u) {
    const auto span = data.UserItems(u);
    pinned[u].assign(span.begin(), span.end());
  }

  std::atomic<bool> stop{false};
  std::atomic<bool> readers_ok{true};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&]() {
      while (!stop.load(std::memory_order_acquire)) {
        for (int32_t u = 0; u < kUsers; ++u) {
          const auto span = data.UserItems(u);
          if (span.size() != pinned[u].size() ||
              !std::equal(span.begin(), span.end(), pinned[u].begin())) {
            readers_ok.store(false, std::memory_order_release);
          }
          // Item kItems-1 never appears pre-freeze; while frozen the
          // writer's appends of it must stay invisible.
          if (data.Contains(u, kItems - 1)) {
            readers_ok.store(false, std::memory_order_release);
          }
        }
      }
    });
  }
  for (int32_t i = 0; i < 2400; ++i) {
    data.Add(i % kUsers, kItems - 1);
  }
  data.GrowUsers(4);
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_TRUE(readers_ok.load());

  data.Thaw();
  EXPECT_EQ(data.num_users(), kUsers + 4);
  EXPECT_TRUE(data.Contains(0, kItems - 1));
  EXPECT_EQ(data.UserItems(0).size(), pinned[0].size() + 2400 / kUsers);
}

// ---------------------------------------------------------------------
// InteractionDataset append-aware index: a build extends the index from
// the log prefix the last build covered, and the result must equal a
// from-scratch build element for element.

std::vector<int32_t> ToVector(std::span<const int32_t> span) {
  return {span.begin(), span.end()};
}

// Checks every index read of `data` against a dataset built from scratch
// out of the first `log_size` events of its log over `num_users` users —
// the whole log, or the pinned epoch while frozen — and that scratch
// build against plain per-user vectors. Contains() is checked over the
// whole user x item grid before the reads (the linear lane when the
// index is dirty) and after them (the binary-search lane).
void ExpectIndexEqualsScratch(const InteractionDataset& data,
                              size_t log_size, int32_t num_users) {
  const std::vector<Interaction>& log = data.interactions();
  ASSERT_LE(log_size, log.size());
  InteractionDataset scratch(num_users, data.num_items());
  std::vector<std::vector<int32_t>> rows(data.num_users());
  for (size_t i = 0; i < log_size; ++i) {
    scratch.Add(log[i].user, log[i].item);
    rows[log[i].user].push_back(log[i].item);
  }
  const auto contains_grid = [&](const InteractionDataset& d, int32_t u) {
    std::vector<bool> grid(d.num_items());
    for (int32_t i = 0; i < d.num_items(); ++i) grid[i] = d.Contains(u, i);
    return grid;
  };
  const auto owned_grid = [&](int32_t u) {
    std::vector<bool> grid(data.num_items(), false);
    for (int32_t i : rows[u]) grid[i] = true;
    return grid;
  };
  for (int32_t u = 0; u < data.num_users(); ++u) {
    ASSERT_EQ(contains_grid(data, u), owned_grid(u)) << "user " << u;
  }
  for (int32_t u = 0; u < data.num_users(); ++u) {
    std::vector<int32_t> sorted = rows[u];
    std::sort(sorted.begin(), sorted.end());
    ASSERT_EQ(ToVector(data.UserItems(u)), rows[u]) << "user " << u;
    ASSERT_EQ(ToVector(data.SortedUserItems(u)), sorted) << "user " << u;
    ASSERT_EQ(contains_grid(data, u), owned_grid(u)) << "user " << u;
    if (u >= num_users) continue;
    ASSERT_EQ(ToVector(scratch.UserItems(u)), rows[u]) << "user " << u;
    ASSERT_EQ(ToVector(scratch.SortedUserItems(u)), sorted) << "user " << u;
    ASSERT_EQ(contains_grid(scratch, u), owned_grid(u)) << "user " << u;
  }
}

TEST(InteractionIndex, AppendBuildEqualsScratchBuild) {
  constexpr int32_t kItems = 23;
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Rng rng(seed);
    InteractionDataset data(3 + static_cast<int32_t>(seed), kItems);
    // The test's own model of the build counter: +1 for each read of a
    // dirty index, reset by a copy, carried by a move.
    uint64_t generation = 0;
    bool dirty = true;
    const auto add_burst = [&](size_t count) {
      for (size_t k = 0; k < count; ++k) {
        data.Add(static_cast<int32_t>(rng.UniformInt(data.num_users())),
                 static_cast<int32_t>(rng.UniformInt(kItems)));
      }
    };
    for (int step = 0; step < 120; ++step) {
      SCOPED_TRACE(testing::Message() << "step " << step);
      const uint64_t kind = rng.UniformInt(10);
      if (kind < 5) {
        add_burst(1 + rng.UniformInt(12));
        dirty = true;
      } else if (kind < 6) {
        // New users, some of whom interact at once.
        data.GrowUsers(static_cast<int32_t>(rng.UniformInt(3)));
        for (size_t k = rng.UniformInt(4); k > 0; --k) {
          data.Add(data.num_users() - 1,
                   static_cast<int32_t>(rng.UniformInt(kItems)));
        }
        dirty = true;
      } else if (kind < 8) {
        data.Freeze();
        if (dirty) ++generation;
        dirty = false;
        const size_t pinned_log = data.num_interactions();
        const int32_t pinned_users = data.num_users();
        add_burst(rng.UniformInt(8));
        if (rng.UniformInt(2) == 0) data.GrowUsers(1);
        ASSERT_NO_FATAL_FAILURE(
            ExpectIndexEqualsScratch(data, pinned_log, pinned_users));
        ASSERT_EQ(data.index_generation(), generation);
        data.Thaw();
        dirty = data.num_interactions() != pinned_log ||
                data.num_users() != pinned_users;
      } else if (kind < 9) {
        const InteractionDataset copy(data);
        data = copy;
        generation = 0;
        dirty = true;
      } else {
        InteractionDataset moved(std::move(data));
        EXPECT_EQ(data.num_interactions(), 0u);
        data = std::move(moved);
      }
      if (dirty) ++generation;
      dirty = false;
      ASSERT_NO_FATAL_FAILURE(ExpectIndexEqualsScratch(
          data, data.num_interactions(), data.num_users()));
      ASSERT_EQ(data.index_generation(), generation);
    }
  }
}

TEST(InteractionIndex, MovedFromDatasetBuildsFromItsOwnLog) {
  InteractionDataset source(4, 9);
  source.Add(0, 5);
  source.Add(2, 1);
  source.Add(0, 3);
  ASSERT_EQ(source.UserItems(0).size(), 2u);  // builds the index

  InteractionDataset taken(std::move(source));
  EXPECT_EQ(source.num_interactions(), 0u);
  EXPECT_EQ(ToVector(taken.UserItems(0)), (std::vector<int32_t>{5, 3}));

  // The moved-from dataset is reusable: its next build sees only its own
  // (new) log, never a stale prefix of the moved index.
  source.Add(3, 7);
  source.Add(0, 8);
  ASSERT_NO_FATAL_FAILURE(ExpectIndexEqualsScratch(
      source, source.num_interactions(), source.num_users()));

  // Reassigned from a dataset whose index is dirty: the index moves with
  // its log and is extended, not mixed with the destination's.
  taken.Add(1, 4);
  source = std::move(taken);
  source.Add(1, 2);
  ASSERT_NO_FATAL_FAILURE(ExpectIndexEqualsScratch(
      source, source.num_interactions(), source.num_users()));
  EXPECT_EQ(ToVector(source.UserItems(1)), (std::vector<int32_t>{4, 2}));
}

// ---------------------------------------------------------------------
// KnowledgeGraph incremental batches.

TEST(IncrementalBatch, RebuiltCsrEqualsFromScratchBuild) {
  // Base graph, finalized.
  KnowledgeGraph inc;
  for (int i = 0; i < 6; ++i) inc.AddEntity("e" + std::to_string(i));
  const RelationId a = inc.AddRelation("a");
  const RelationId b = inc.AddRelation("b");
  ASSERT_TRUE(inc.AddTriple(0, a, 3).ok());
  ASSERT_TRUE(inc.AddTriple(1, a, 4).ok());
  ASSERT_TRUE(inc.AddTriple(2, b, 5).ok());
  inc.Finalize();

  // Post-finalize stray writes are rejected, not absorbed.
  EXPECT_EQ(inc.AddTriple(0, b, 5).code(), StatusCode::kFailedPrecondition);

  // Grow through the sanctioned bracket, deliberately in a different
  // insertion order than the from-scratch build below.
  ASSERT_TRUE(inc.BeginIncrementalBatch().ok());
  EXPECT_EQ(inc.BeginIncrementalBatch().code(),
            StatusCode::kFailedPrecondition);  // no nesting
  const EntityId e6 = inc.AddEntity("e6");
  EXPECT_EQ(e6, 6);
  ASSERT_TRUE(inc.AddTriple(e6, b, 0).ok());
  ASSERT_TRUE(inc.AddTriple(0, b, e6).ok());
  ASSERT_TRUE(inc.FinalizeIncrementalBatch().ok());
  EXPECT_EQ(inc.FinalizeIncrementalBatch().code(),
            StatusCode::kFailedPrecondition);  // bracket closed

  // From-scratch reference with the same final content.
  KnowledgeGraph ref;
  for (int i = 0; i < 7; ++i) ref.AddEntity("e" + std::to_string(i));
  const RelationId ra = ref.AddRelation("a");
  const RelationId rb = ref.AddRelation("b");
  ASSERT_TRUE(ref.AddTriple(0, rb, 6).ok());  // different insertion order
  ASSERT_TRUE(ref.AddTriple(6, rb, 0).ok());
  ASSERT_TRUE(ref.AddTriple(0, ra, 3).ok());
  ASSERT_TRUE(ref.AddTriple(1, ra, 4).ok());
  ASSERT_TRUE(ref.AddTriple(2, rb, 5).ok());
  ref.Finalize();

  ASSERT_EQ(inc.num_entities(), ref.num_entities());
  ASSERT_EQ(inc.num_triples(), ref.num_triples());
  for (EntityId e = 0; e < static_cast<EntityId>(inc.num_entities()); ++e) {
    ASSERT_EQ(inc.OutDegree(e), ref.OutDegree(e)) << "entity " << e;
    EXPECT_EQ(std::memcmp(inc.OutEdges(e), ref.OutEdges(e),
                          inc.OutDegree(e) * sizeof(Edge)),
              0)
        << "entity " << e;  // rows sorted: bitwise, not just set-equal
  }
  EXPECT_TRUE(inc.HasTriple(0, b, e6));
  EXPECT_TRUE(inc.HasTriple(e6, b, 0));
}

TEST(IncrementalBatch, RejectsUnfinalizedAndReleasedGraphs) {
  KnowledgeGraph building;
  building.AddEntity("x");
  EXPECT_EQ(building.BeginIncrementalBatch().code(),
            StatusCode::kFailedPrecondition);  // not finalized yet

  KnowledgeGraph released;
  released.AddEntity("x");
  released.AddEntity("y");
  const RelationId r = released.AddRelation("r");
  ASSERT_TRUE(released.AddTriple(0, r, 1).ok());
  released.Finalize();
  released.ReleaseTriples();
  EXPECT_EQ(released.BeginIncrementalBatch().code(),
            StatusCode::kFailedPrecondition);  // needs the triple list
}

// ---------------------------------------------------------------------
// Router::SwapFromUpdate.

TEST(SwapFromUpdate, InstallsUpdatedCopyAndBumpsGeneration) {
  const EventStream stream(TinyStreamConfig());
  const size_t n = stream.size();
  const InteractionDataset base_train = stream.BaseInteractions();
  const KnowledgeGraph base_kg = stream.BaseItemKg();
  const UserItemGraph base_uig = stream.BaseUserItemGraph();
  const RecContext base_ctx = MakeContext(base_train, base_kg, base_uig);

  InteractionDataset live_train = base_train;
  KnowledgeGraph live_kg = base_kg;
  UserItemGraph live_uig = base_uig;
  const RecContext live_ctx = MakeContext(live_train, live_kg, live_uig);
  const EventBatch batch = stream.Batch(0, n);
  stream.ApplyBatch(batch, &live_train, &live_kg);
  stream.ApplyBatchToUserItemGraph(batch, &live_uig);

  // The reference path: the same fit + update, applied directly.
  std::unique_ptr<Recommender> reference = MakeRecommender("MF");
  reference->Fit(base_ctx);
  ASSERT_TRUE(reference->Update(live_ctx, batch).ok());

  std::unique_ptr<Recommender> serving = MakeRecommender("MF");
  serving->Fit(base_ctx);
  serve::RouterConfig config;
  config.num_threads = 2;
  serve::Router router(config,
                       serve::ServeHandle::Adopt(std::move(serving),
                                                 base_ctx, 1));
  ASSERT_EQ(router.current()->generation(), 1u);

  ASSERT_TRUE(router.SwapFromUpdate(base_ctx, live_ctx, batch).ok());
  const std::shared_ptr<const serve::ServeHandle> handle = router.current();
  EXPECT_EQ(handle->generation(), 2u);
  EXPECT_EQ(router.Stats().swaps, 1u);
  ExpectScoresBitwise(handle->model(), *reference, stream.total_num_users(),
                      stream.num_items());

  // Traffic through the router is served by the updated generation.
  serve::ScoreRequest request;
  request.user = stream.total_num_users() - 1;  // arrived mid-stream
  for (int32_t i = 0; i < stream.num_items(); i += 4) {
    request.items.push_back(i);
  }
  const serve::ScoreResponse response = router.ScoreSync(request);
  ASSERT_TRUE(response.status.ok());
  EXPECT_EQ(response.generation, 2u);
  const std::vector<float> direct =
      reference->ScoreItems(request.user, request.items);
  for (size_t i = 0; i < request.items.size(); ++i) {
    EXPECT_EQ(std::memcmp(&response.scores[i], &direct[i], sizeof(float)), 0);
  }
}

TEST(SwapFromUpdate, ClonesInMemoryWhateverSitsAtTheOldTempPath) {
  // The clone used to be a Save + LoadModel through
  // /tmp/kgrec_swap_<pid>_<generation>.kgrc: anything squatting on that
  // path (another router at the same generation, or a /tmp the process
  // cannot write) made every swap fail. A directory there now changes
  // nothing, and the swap serves bitwise what the file route serves.
  // The path pins the removed temp-file route; no code uses it now, so
  // the test can go once that route is no longer a risk to guard.
  const EventStream stream(TinyStreamConfig());
  const InteractionDataset base_train = stream.BaseInteractions();
  const KnowledgeGraph base_kg = stream.BaseItemKg();
  const UserItemGraph base_uig = stream.BaseUserItemGraph();
  const RecContext base_ctx = MakeContext(base_train, base_kg, base_uig);
  InteractionDataset live_train = base_train;
  KnowledgeGraph live_kg = base_kg;
  UserItemGraph live_uig = base_uig;
  const RecContext live_ctx = MakeContext(live_train, live_kg, live_uig);
  const EventBatch batch = stream.Batch(0, stream.size());
  stream.ApplyBatch(batch, &live_train, &live_kg);
  stream.ApplyBatchToUserItemGraph(batch, &live_uig);

  std::unique_ptr<Recommender> serving = MakeRecommender("MF");
  serving->Fit(base_ctx);

  // The file route, by hand.
  const std::string ckpt = testing::TempDir() + "swap_file_route.kgrc";
  ASSERT_TRUE(serving->Save(ckpt).ok());
  std::unique_ptr<Recommender> via_file;
  ASSERT_TRUE(LoadModel(base_ctx, ckpt, &via_file).ok());
  std::remove(ckpt.c_str());
  ASSERT_TRUE(via_file->Update(live_ctx, batch).ok());
  const std::shared_ptr<const serve::ServeHandle> reference =
      serve::ServeHandle::Adopt(std::move(via_file), live_ctx, 2);

  serve::RouterConfig config;
  config.num_threads = 2;
  serve::Router router(config,
                       serve::ServeHandle::Adopt(std::move(serving),
                                                 base_ctx, 1));
  const std::string squatted =
      "/tmp/kgrec_swap_" + std::to_string(getpid()) + "_2.kgrc";
  // A directory left there by an earlier crashed run squats just as well.
  ASSERT_TRUE(mkdir(squatted.c_str(), 0700) == 0 || errno == EEXIST)
      << squatted;
  const Status swapped = router.SwapFromUpdate(base_ctx, live_ctx, batch);
  rmdir(squatted.c_str());
  ASSERT_TRUE(swapped.ok()) << swapped.message();

  const std::shared_ptr<const serve::ServeHandle> handle = router.current();
  EXPECT_EQ(handle->generation(), 2u);
  ExpectScoresBitwise(handle->model(), reference->model(),
                      stream.total_num_users(), stream.num_items());
  for (int32_t user = 0; user < stream.total_num_users(); user += 5) {
    const auto want = reference->Recommend(user, 5);
    const auto got = handle->Recommend(user, 5);
    ASSERT_EQ(want.size(), got.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(want[i].first, got[i].first) << "user " << user;
      EXPECT_EQ(std::memcmp(&want[i].second, &got[i].second, sizeof(float)),
                0)
          << "user " << user;
    }
  }
}

TEST(SwapFromUpdate, BothSwapPathsKeepTheRetrievalSpec) {
  // An IVF + SQ8 handle must stay one across SwapFromCheckpoint and
  // SwapFromUpdate, and answer exactly like a handle built directly
  // with that spec (both swaps used to fall back to a kAuto exact index).
  const EventStream stream(TinyStreamConfig());
  const InteractionDataset base_train = stream.BaseInteractions();
  const KnowledgeGraph base_kg = stream.BaseItemKg();
  const UserItemGraph base_uig = stream.BaseUserItemGraph();
  const RecContext base_ctx = MakeContext(base_train, base_kg, base_uig);
  InteractionDataset live_train = base_train;
  KnowledgeGraph live_kg = base_kg;
  UserItemGraph live_uig = base_uig;
  const RecContext live_ctx = MakeContext(live_train, live_kg, live_uig);
  const EventBatch batch = stream.Batch(0, stream.size());
  stream.ApplyBatch(batch, &live_train, &live_kg);
  stream.ApplyBatchToUserItemGraph(batch, &live_uig);

  serve::RetrievalSpec spec;
  spec.mode = serve::RetrievalSpec::Mode::kIvf;
  spec.ivf.num_clusters = 4;
  spec.ivf.num_probes = 2;
  spec.scan.precision = retrieval::ScanPrecision::kSq8;

  std::unique_ptr<Recommender> fitted = MakeRecommender("MF");
  fitted->Fit(base_ctx);
  const std::string ckpt = testing::TempDir() + "swap_spec.kgrc";
  ASSERT_TRUE(fitted->Save(ckpt).ok());
  std::shared_ptr<const serve::ServeHandle> initial;
  ASSERT_TRUE(serve::ServeHandle::Open(base_ctx, ckpt, 1, spec, &initial).ok());
  ASSERT_EQ(initial->retrieval_mode(), "ivf-index+sq8");
  serve::RouterConfig config;
  config.num_threads = 2;
  serve::Router router(config, initial);

  const auto expect_same_topk = [&](const serve::ServeHandle& want,
                                    int32_t num_users, const char* what) {
    const std::shared_ptr<const serve::ServeHandle> got = router.current();
    EXPECT_EQ(got->retrieval_mode(), "ivf-index+sq8") << what;
    for (int32_t user = 0; user < num_users; user += 3) {
      const auto a = want.Recommend(user, 5);
      const auto b = got->Recommend(user, 5);
      ASSERT_EQ(a.size(), b.size()) << what;
      for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].first, b[i].first) << what << " user " << user;
        EXPECT_EQ(std::memcmp(&a[i].second, &b[i].second, sizeof(float)), 0)
            << what << " user " << user;
      }
    }
  };

  ASSERT_TRUE(router.SwapFromCheckpoint(base_ctx, ckpt).ok());
  std::shared_ptr<const serve::ServeHandle> direct;
  ASSERT_TRUE(serve::ServeHandle::Open(base_ctx, ckpt, 2, spec, &direct).ok());
  expect_same_topk(*direct, base_train.num_users(), "checkpoint swap");
  std::remove(ckpt.c_str());

  ASSERT_TRUE(router.SwapFromUpdate(base_ctx, live_ctx, batch).ok());
  ASSERT_TRUE(fitted->Update(live_ctx, batch).ok());
  ASSERT_TRUE(serve::ServeHandle::Adopt(std::move(fitted), live_ctx, 3, spec,
                                        &direct)
                  .ok());
  expect_same_topk(*direct, stream.total_num_users(), "update swap");
}

TEST(SwapFromUpdate, TwoStageSwapAdmitsOnlyUsersTheCandidateKnows) {
  // A two-stage handle carries its candidate model over unchanged. An MF
  // candidate has user rows for the pre-batch users only, so a swap into
  // a world with new users must fail and leave the old generation
  // serving; adopting them would send them to the candidate's
  // FillUserQuery, past the end of its user table. A CFKG candidate
  // computes its query from the user-item graph, where every user of the
  // stream pre-exists, so there the swap goes through and new users are
  // served.
  const EventStream stream(TinyStreamConfig());
  const InteractionDataset base_train = stream.BaseInteractions();
  const KnowledgeGraph base_kg = stream.BaseItemKg();
  const UserItemGraph base_uig = stream.BaseUserItemGraph();
  const RecContext base_ctx = MakeContext(base_train, base_kg, base_uig);
  InteractionDataset live_train = base_train;
  KnowledgeGraph live_kg = base_kg;
  UserItemGraph live_uig = base_uig;
  const RecContext live_ctx = MakeContext(live_train, live_kg, live_uig);
  const EventBatch batch = stream.Batch(0, stream.size());
  stream.ApplyBatch(batch, &live_train, &live_kg);
  stream.ApplyBatchToUserItemGraph(batch, &live_uig);
  const int32_t new_user = base_train.num_users();
  ASSERT_GT(live_train.num_users(), new_user);

  for (const bool cfkg : {false, true}) {
    SCOPED_TRACE(cfkg ? "CFKG candidate" : "MF candidate");
    std::shared_ptr<Recommender> candidate =
        MakeRecommender(cfkg ? "CFKG" : "MF");
    candidate->Fit(base_ctx);
    serve::RetrievalSpec spec;
    spec.mode = serve::RetrievalSpec::Mode::kTwoStage;
    spec.candidate_model = candidate;

    std::unique_ptr<Recommender> served = MakeRecommender("MF");
    served->Fit(base_ctx);
    const std::string ckpt = testing::TempDir() + "swap_two_stage.kgrc";
    ASSERT_TRUE(served->Save(ckpt).ok());
    std::shared_ptr<const serve::ServeHandle> initial;
    ASSERT_TRUE(serve::ServeHandle::Adopt(std::move(served), base_ctx, 1,
                                          spec, &initial)
                    .ok());
    ASSERT_EQ(initial->retrieval_mode(), "two-stage");
    serve::RouterConfig config;
    config.num_threads = 2;
    serve::Router router(config, initial);

    // Same world: the swap keeps the two-stage spec.
    ASSERT_TRUE(router.SwapFromCheckpoint(base_ctx, ckpt).ok());
    EXPECT_EQ(router.current()->retrieval_mode(), "two-stage");

    const Status status = router.SwapFromUpdate(base_ctx, live_ctx, batch);
    const std::shared_ptr<const serve::ServeHandle> live = router.current();
    if (!cfkg) {
      EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
          << status.message();
      EXPECT_EQ(live->generation(), 2u);  // the checkpoint swap's handle
      EXPECT_FALSE(live->CheckIds(new_user).ok());
      EXPECT_EQ(live->Recommend(0, 5).size(), 5u);
    } else {
      ASSERT_TRUE(status.ok()) << status.message();
      EXPECT_EQ(live->generation(), 3u);
      EXPECT_EQ(live->retrieval_mode(), "two-stage");
      std::unique_ptr<Recommender> updated;
      ASSERT_TRUE(LoadModel(base_ctx, ckpt, &updated).ok());
      ASSERT_TRUE(updated->Update(live_ctx, batch).ok());
      std::shared_ptr<const serve::ServeHandle> direct;
      ASSERT_TRUE(serve::ServeHandle::Adopt(std::move(updated), live_ctx, 3,
                                            spec, &direct)
                      .ok());
      const auto want = direct->Recommend(new_user, 5);
      const auto got = live->Recommend(new_user, 5);
      ASSERT_EQ(got.size(), 5u);
      ASSERT_EQ(want.size(), got.size());
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(want[i].first, got[i].first);
        EXPECT_EQ(std::memcmp(&want[i].second, &got[i].second, sizeof(float)),
                  0);
      }
    }
    std::remove(ckpt.c_str());
  }
}

TEST(SwapFromUpdate, NonUpdatableModelLeavesOldHandleServing) {
  const EventStream stream(TinyStreamConfig());
  const InteractionDataset base_train = stream.BaseInteractions();
  const KnowledgeGraph base_kg = stream.BaseItemKg();
  const UserItemGraph base_uig = stream.BaseUserItemGraph();
  const RecContext base_ctx = MakeContext(base_train, base_kg, base_uig);

  std::string non_updatable;
  for (const std::string& name : ImplementedMethodNames()) {
    if (!SupportsUpdate(name)) {
      non_updatable = name;
      break;
    }
  }
  std::unique_ptr<Recommender> model = MakeRecommender(non_updatable);
  model->Fit(base_ctx);
  serve::RouterConfig config;
  config.num_threads = 2;
  serve::Router router(config,
                       serve::ServeHandle::Adopt(std::move(model),
                                                 base_ctx, 1));

  const Status status =
      router.SwapFromUpdate(base_ctx, base_ctx, stream.Batch(0, 0));
  EXPECT_EQ(status.code(), StatusCode::kUnimplemented);
  EXPECT_EQ(router.current()->generation(), 1u);  // old handle untouched
  EXPECT_EQ(router.Stats().swaps, 0u);
}

}  // namespace
}  // namespace kgrec
