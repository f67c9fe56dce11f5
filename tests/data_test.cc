// Unit and property tests for the data substrate: interaction datasets,
// splits, negative sampling, the synthetic world generator and presets.

#include <gtest/gtest.h>

#include <unordered_set>

#include "data/interactions.h"
#include "data/presets.h"
#include "data/synthetic.h"

namespace kgrec {
namespace {

InteractionDataset SmallDataset() {
  InteractionDataset data(4, 6);
  data.Add(0, 0);
  data.Add(0, 1);
  data.Add(0, 2);
  data.Add(1, 2);
  data.Add(1, 3);
  data.Add(2, 4);
  data.Add(3, 0);
  data.Add(3, 5);
  data.Add(3, 1);
  return data;
}

TEST(Interactions, BasicAccessors) {
  InteractionDataset data = SmallDataset();
  EXPECT_EQ(data.num_users(), 4);
  EXPECT_EQ(data.num_items(), 6);
  EXPECT_EQ(data.num_interactions(), 9u);
  EXPECT_TRUE(data.Contains(0, 1));
  EXPECT_FALSE(data.Contains(0, 5));
  EXPECT_EQ(data.UserItems(2).size(), 1u);
  EXPECT_NEAR(data.Density(), 9.0 / 24.0, 1e-9);
  EXPECT_EQ(data.ItemsWithInteractions().size(), 6u);
}

TEST(Interactions, UserItemsPreservesInsertionOrder) {
  // The flat CSR user index is built by a stable counting sort, so each
  // user's span must read back in exact insertion order (E_u^0 order
  // matters to the ripple-set seeds and the KGE trainers' negatives).
  InteractionDataset data = SmallDataset();
  const std::vector<int32_t> u0(data.UserItems(0).begin(),
                                data.UserItems(0).end());
  EXPECT_EQ(u0, (std::vector<int32_t>{0, 1, 2}));
  const std::vector<int32_t> u3(data.UserItems(3).begin(),
                                data.UserItems(3).end());
  EXPECT_EQ(u3, (std::vector<int32_t>{0, 5, 1}));
}

TEST(Interactions, UserItemsIndexRebuildsAfterAdd) {
  // Add() invalidates the lazy index; the next UserItems() call must
  // rebuild and serve the new event, in order.
  InteractionDataset data(3, 8);
  data.Add(1, 4);
  EXPECT_EQ(data.UserItems(1).size(), 1u);  // forces the first build
  EXPECT_TRUE(data.UserItems(0).empty());
  data.Add(1, 7);
  data.Add(0, 2);
  const std::vector<int32_t> u1(data.UserItems(1).begin(),
                                data.UserItems(1).end());
  EXPECT_EQ(u1, (std::vector<int32_t>{4, 7}));
  EXPECT_EQ(data.UserItems(0).size(), 1u);
  EXPECT_EQ(data.UserItems(0)[0], 2);
  EXPECT_TRUE(data.UserItems(2).empty());  // trailing user, no events
}

TEST(Interactions, MemoryUseTotalIsSumOfEntries) {
  InteractionDataset data = SmallDataset();
  (void)data.UserItems(0);  // materialize the index so it is counted
  MemoryVisitor visitor;
  data.MemoryUse(visitor);
  EXPECT_FALSE(visitor.entries().empty());
  size_t sum = 0;
  for (const auto& [name, bytes] : visitor.entries()) sum += bytes;
  EXPECT_EQ(visitor.total(), sum);
  EXPECT_GT(visitor.total(), 0u);
}

TEST(Interactions, ToCsrMatchesContains) {
  InteractionDataset data = SmallDataset();
  CsrMatrix r = data.ToCsr();
  EXPECT_EQ(r.rows(), 4u);
  EXPECT_EQ(r.cols(), 6u);
  for (int32_t u = 0; u < 4; ++u) {
    for (int32_t i = 0; i < 6; ++i) {
      EXPECT_EQ(r.At(u, i) > 0.0f, data.Contains(u, i));
    }
  }
}

class RatioSplitParamTest : public ::testing::TestWithParam<double> {};

TEST_P(RatioSplitParamTest, DisjointAndComplete) {
  InteractionDataset data = SmallDataset();
  Rng rng(10);
  DataSplit split = RatioSplit(data, GetParam(), rng);
  EXPECT_EQ(split.train.num_interactions() + split.test.num_interactions(),
            data.num_interactions());
  for (const Interaction& x : split.test.interactions()) {
    EXPECT_FALSE(split.train.Contains(x.user, x.item));
    EXPECT_TRUE(data.Contains(x.user, x.item));
  }
  // Every user with interactions keeps at least one training interaction.
  for (int32_t u = 0; u < data.num_users(); ++u) {
    if (!data.UserItems(u).empty()) {
      EXPECT_FALSE(split.train.UserItems(u).empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Fractions, RatioSplitParamTest,
                         ::testing::Values(0.0, 0.2, 0.5, 0.9));

TEST(Splits, LeaveOneOutHoldsExactlyOne) {
  InteractionDataset data = SmallDataset();
  Rng rng(11);
  DataSplit split = LeaveOneOutSplit(data, rng);
  for (int32_t u = 0; u < data.num_users(); ++u) {
    const size_t total = data.UserItems(u).size();
    if (total >= 2) {
      EXPECT_EQ(split.test.UserItems(u).size(), 1u);
      EXPECT_EQ(split.train.UserItems(u).size(), total - 1);
    } else {
      EXPECT_TRUE(split.test.UserItems(u).empty());
    }
  }
}

TEST(Splits, ColdItemSplitRemovesItemsFromTrain) {
  InteractionDataset data = SmallDataset();
  Rng rng(12);
  DataSplit split = ColdItemSplit(data, 0.3, rng);
  std::unordered_set<int32_t> cold_items;
  for (const Interaction& x : split.test.interactions()) {
    cold_items.insert(x.item);
  }
  EXPECT_FALSE(cold_items.empty());
  for (const Interaction& x : split.train.interactions()) {
    EXPECT_EQ(cold_items.count(x.item), 0u);
  }
  EXPECT_EQ(split.train.num_interactions() + split.test.num_interactions(),
            data.num_interactions());
}

TEST(NegativeSampler, NeverReturnsPositives) {
  InteractionDataset data = SmallDataset();
  NegativeSampler sampler(data);
  Rng rng(13);
  for (int32_t u = 0; u < data.num_users(); ++u) {
    for (int i = 0; i < 50; ++i) {
      EXPECT_FALSE(data.Contains(u, sampler.Sample(u, rng)));
    }
  }
  std::vector<int32_t> many = sampler.SampleMany(0, 3, rng);
  EXPECT_EQ(many.size(), 3u);
  std::unordered_set<int32_t> distinct(many.begin(), many.end());
  EXPECT_EQ(distinct.size(), many.size());
}

// A user who owns all items but one gets exactly that item, whether a
// random probe finds it or the dense-user fallback walks the sorted row
// (with 3999 of 4000 items owned, the 200 probes usually all miss).
TEST(NegativeSampler, DenseUserGetsTheOneItemTheyLack) {
  constexpr int32_t kItems = 4000;
  constexpr int32_t kLacking = 1234;
  InteractionDataset data(2, kItems);
  for (int32_t i = kItems; i-- > 0;) {  // descending: row order != sorted
    if (i != kLacking) data.Add(0, i);
  }
  data.Add(0, kLacking - 1);  // duplicates must not hide the gap
  data.Add(0, 0);
  data.Add(1, kLacking);
  NegativeSampler sampler(data);
  Rng rng(5);
  for (int k = 0; k < 20; ++k) EXPECT_EQ(sampler.Sample(0, rng), kLacking);
}

// A user who owns every item gets the uniform draw that follows the 200
// failed probes.
TEST(NegativeSampler, UserOwningEveryItemGetsTheDrawAfterTheProbes) {
  constexpr int32_t kItems = 7;
  InteractionDataset data(1, kItems);
  for (int32_t i = 0; i < kItems; ++i) data.Add(0, i);
  data.Add(0, 3);
  NegativeSampler sampler(data);
  Rng rng(21);
  Rng replay(21);
  for (int k = 0; k < 5; ++k) {
    for (int probe = 0; probe < 200; ++probe) replay.UniformInt(kItems);
    EXPECT_EQ(sampler.Sample(0, rng),
              static_cast<int32_t>(replay.UniformInt(kItems)));
  }
}

// SampleMany caps its count at the items the user lacks, counted
// without duplicate events: a user who owns all 5 items through 6
// events lacks none, so no owned item may come back as a negative (the
// duplicate once wrapped the cap and let owned items through).
TEST(NegativeSampler, SampleManyCountsDuplicateEventsOnce) {
  constexpr int32_t kItems = 5;
  InteractionDataset data(1, kItems);
  for (int32_t i = 0; i < kItems; ++i) data.Add(0, i);
  data.Add(0, 2);
  NegativeSampler sampler(data);
  Rng rng(3);
  EXPECT_TRUE(sampler.SampleMany(0, 3, rng).empty());
}

WorldConfig TestConfig() {
  WorldConfig config;
  config.num_users = 60;
  config.num_items = 80;
  config.avg_interactions_per_user = 10.0;
  config.item_relations = {{"genre", 6, 1, 0.9f}, {"actor", 15, 2, 0.7f}};
  config.seed = 2024;
  return config;
}

TEST(SyntheticWorld, DeterministicBySeed) {
  SyntheticWorld a = GenerateWorld(TestConfig());
  SyntheticWorld b = GenerateWorld(TestConfig());
  ASSERT_EQ(a.interactions.num_interactions(),
            b.interactions.num_interactions());
  for (size_t i = 0; i < a.interactions.num_interactions(); ++i) {
    EXPECT_EQ(a.interactions.interactions()[i].user,
              b.interactions.interactions()[i].user);
    EXPECT_EQ(a.interactions.interactions()[i].item,
              b.interactions.interactions()[i].item);
  }
  EXPECT_EQ(a.item_kg.num_triples(), b.item_kg.num_triples());
  WorldConfig other = TestConfig();
  other.seed = 2025;
  SyntheticWorld c = GenerateWorld(other);
  bool differs =
      a.interactions.num_interactions() != c.interactions.num_interactions();
  for (size_t i = 0; !differs && i < a.interactions.num_interactions(); ++i) {
    differs = a.interactions.interactions()[i].item !=
              c.interactions.interactions()[i].item;
  }
  EXPECT_TRUE(differs);
}

TEST(SyntheticWorld, KgStructureMatchesSpecs) {
  SyntheticWorld world = GenerateWorld(TestConfig());
  const KnowledgeGraph& kg = world.item_kg;
  // Entities: 80 items + 6 genres + 15 actors.
  EXPECT_EQ(kg.num_entities(), 80u + 6u + 15u);
  // Relations: genre, actor + inverses.
  EXPECT_EQ(kg.num_relations(), 4u);
  // Triples: 80*1 genre + 80*2 actor links, doubled by inverses.
  EXPECT_EQ(kg.num_triples(), 2u * (80u + 160u));
  // Entity j == item j, typed 0.
  for (int32_t j = 0; j < 80; ++j) {
    EXPECT_EQ(kg.entity_name(j), "item_" + std::to_string(j));
    EXPECT_EQ(world.entity_types[j], 0);
  }
  // Every item has exactly one genre edge.
  RelationId genre = -1;
  ASSERT_TRUE(kg.FindRelation("genre", &genre).ok());
  for (int32_t j = 0; j < 80; ++j) {
    size_t genre_edges = 0;
    for (size_t e = 0; e < kg.OutDegree(j); ++e) {
      if (kg.OutEdges(j)[e].relation == genre) ++genre_edges;
    }
    EXPECT_EQ(genre_edges, 1u);
  }
}

TEST(SyntheticWorld, InteractionsRespectBudget) {
  SyntheticWorld world = GenerateWorld(TestConfig());
  for (int32_t u = 0; u < world.interactions.num_users(); ++u) {
    const size_t count = world.interactions.UserItems(u).size();
    EXPECT_GE(count, 1u);
    EXPECT_LE(count, 80u);
    // No duplicate items per user.
    std::unordered_set<int32_t> distinct(
        world.interactions.UserItems(u).begin(),
        world.interactions.UserItems(u).end());
    EXPECT_EQ(distinct.size(), count);
  }
  const double avg =
      static_cast<double>(world.interactions.num_interactions()) /
      world.interactions.num_users();
  EXPECT_GT(avg, 5.0);
  EXPECT_LT(avg, 15.0);
}

TEST(SyntheticWorld, KgCarriesPreferenceSignal) {
  // Items sharing a genre should have more similar true latent vectors
  // than random pairs — the property S1 experiments rely on.
  SyntheticWorld world = GenerateWorld(TestConfig());
  RelationId genre = -1;
  ASSERT_TRUE(world.item_kg.FindRelation("genre", &genre).ok());
  std::vector<int32_t> genre_of(80, -1);
  for (const Triple& t : world.item_kg.triples()) {
    if (t.relation == genre) genre_of[t.head] = t.tail;
  }
  double same = 0.0, diff = 0.0;
  size_t same_n = 0, diff_n = 0;
  const size_t d = world.config.latent_dim;
  for (int32_t a = 0; a < 80; ++a) {
    for (int32_t b = a + 1; b < 80; ++b) {
      const float cos = dense::CosineSimilarity(world.item_factors.Row(a),
                                                world.item_factors.Row(b), d);
      if (genre_of[a] == genre_of[b]) {
        same += cos;
        ++same_n;
      } else {
        diff += cos;
        ++diff_n;
      }
    }
  }
  EXPECT_GT(same / same_n, diff / diff_n + 0.1);
}

TEST(UserItemGraphTest, LayoutAndInteractEdges) {
  SyntheticWorld world = GenerateWorld(TestConfig());
  Rng rng(14);
  DataSplit split = RatioSplit(world.interactions, 0.25, rng);
  UserItemGraph graph = BuildUserItemGraph(world, split.train);
  EXPECT_EQ(graph.num_users, 60);
  EXPECT_EQ(graph.num_items, 80);
  EXPECT_EQ(graph.kg.num_entities(), 60u + world.item_kg.num_entities());
  EXPECT_EQ(graph.kg.entity_name(graph.UserEntity(3)), "user_3");
  EXPECT_EQ(graph.kg.entity_name(graph.ItemEntity(5)), "item_5");
  // Train interactions are edges; test interactions are not.
  for (const Interaction& x : split.train.interactions()) {
    EXPECT_TRUE(graph.kg.HasTriple(graph.UserEntity(x.user),
                                   graph.interact_relation,
                                   graph.ItemEntity(x.item)));
  }
  for (const Interaction& x : split.test.interactions()) {
    EXPECT_FALSE(graph.kg.HasTriple(graph.UserEntity(x.user),
                                    graph.interact_relation,
                                    graph.ItemEntity(x.item)));
  }
  // Attribute edges are preserved with shifted ids.
  EXPECT_EQ(graph.kg.num_triples(),
            world.item_kg.num_triples() +
                2 * split.train.num_interactions());
  Hin hin = graph.MakeHin();
  EXPECT_EQ(hin.EntitiesOfType(0).size(), 60u);  // users
  EXPECT_EQ(hin.EntitiesOfType(1).size(), 80u);  // items
}

TEST(Presets, AllGenerateAndMatchProfiles) {
  for (const ScenarioPreset& preset : AllPresets()) {
    SyntheticWorld world = GenerateWorld(preset.config);
    EXPECT_GT(world.interactions.num_interactions(), 100u) << preset.dataset;
    EXPECT_GT(world.item_kg.num_triples(), 0u) << preset.dataset;
  }
  // Profile property from Table 4 scenarios: Book-Crossing is much
  // sparser than MovieLens.
  SyntheticWorld ml = GenerateWorld(GetPreset("movielens-100k").config);
  SyntheticWorld bx = GenerateWorld(GetPreset("book-crossing").config);
  EXPECT_GT(ml.interactions.Density(), 2.0 * bx.interactions.Density());
}

TEST(Presets, LookupByName) {
  ScenarioPreset p = GetPreset("bing-news");
  EXPECT_EQ(p.scenario, "News");
  EXPECT_EQ(p.dataset, "Bing-News");
}

}  // namespace
}  // namespace kgrec
