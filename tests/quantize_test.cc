// Lockdown of the SQ8 quantizer (src/retrieval/quantize.h):
//
//  * RoundHalfEvenToInt golden vectors — the deterministic tie-to-even
//    rounding the encode affine is specified against.
//  * Edge cases: all-equal (zero-range) dimensions, NaN/±inf factor
//    entries, dim 0 and 1, a catalog of one item.
//  * The documented Encode→DecodeRow reconstruction-error bound, per
//    entry, for every factorizable registry model's export.
//  * PrepareQuery: the kDot hi/lo affine decomposition
//    (bias + scale · (128·DotI8(hi) + DotI8(lo))) against its analytic
//    error bound, the kNegSquaredL2 grid encoding (shared delta), and
//    the non-finite query policy.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/recommender.h"
#include "core/registry.h"
#include "data/synthetic.h"
#include "math/kernels.h"
#include "math/rng.h"
#include "retrieval/factors.h"
#include "retrieval/quantize.h"
#include "owned_factors.h"

namespace kgrec {
namespace {

using retrieval::ItemFactors;
using retrieval::QuantizedItemFactors;
using retrieval::RoundHalfEvenToInt;
using retrieval::ScoreKernel;
using retrieval::Sq8Query;
using testing_util::OwnedFactors;

constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

OwnedFactors MakeFactors(ScoreKernel kernel, size_t n, size_t dim) {
  OwnedFactors factors;
  factors.kernel = kernel;
  factors.items = Matrix(n, dim);
  return factors;
}

OwnedFactors RandomFactors(ScoreKernel kernel, size_t n, size_t dim,
                           uint64_t seed) {
  OwnedFactors factors = MakeFactors(kernel, n, dim);
  Rng rng(seed);
  for (size_t i = 0; i < factors.items.size(); ++i) {
    factors.items.data()[i] = static_cast<float>(rng.Normal());
  }
  return factors;
}

// ---------------------------------------------------------------------
// QuantizeRounding: the tie-to-even specification.

TEST(QuantizeRounding, GoldenVectors) {
  // Ties land on the even neighbour, both signs; non-ties round to
  // nearest as usual.
  EXPECT_EQ(RoundHalfEvenToInt(0.0), 0);
  EXPECT_EQ(RoundHalfEvenToInt(0.5), 0);
  EXPECT_EQ(RoundHalfEvenToInt(1.5), 2);
  EXPECT_EQ(RoundHalfEvenToInt(2.5), 2);
  EXPECT_EQ(RoundHalfEvenToInt(3.5), 4);
  EXPECT_EQ(RoundHalfEvenToInt(254.5), 254);
  EXPECT_EQ(RoundHalfEvenToInt(-0.5), 0);
  EXPECT_EQ(RoundHalfEvenToInt(-1.5), -2);
  EXPECT_EQ(RoundHalfEvenToInt(-2.5), -2);
  EXPECT_EQ(RoundHalfEvenToInt(-3.5), -4);
  EXPECT_EQ(RoundHalfEvenToInt(2.4999999), 2);
  EXPECT_EQ(RoundHalfEvenToInt(2.5000001), 3);
  EXPECT_EQ(RoundHalfEvenToInt(-2.4999999), -2);
  EXPECT_EQ(RoundHalfEvenToInt(126.49), 126);
  EXPECT_EQ(RoundHalfEvenToInt(126.51), 127);
}

TEST(QuantizeRounding, DoesNotDependOnRoundingDirectionOfRint) {
  // The whole point of the explicit floor/frac form: values exactly
  // between two grid points must be stable however libm/rounding-mode
  // details shift — sweep a dense grid of half-integers.
  for (int i = -512; i <= 512; ++i) {
    const double v = i + 0.5;
    const int64_t r = RoundHalfEvenToInt(v);
    EXPECT_EQ(r % 2, 0) << v;           // always even
    EXPECT_LE(std::abs(r - v), 0.5) << v;  // always a nearest neighbour
  }
}

// ---------------------------------------------------------------------
// QuantizeEncode: grids, degenerate shapes, non-finite policy.

TEST(QuantizeEncode, AllEqualDimensionHasZeroDeltaAndExactDecode) {
  OwnedFactors factors = MakeFactors(ScoreKernel::kDot, 5, 3);
  for (size_t i = 0; i < 5; ++i) {
    float* row = factors.items.Row(i);
    row[0] = 2.75f;                          // constant column
    row[1] = static_cast<float>(i) - 2.0f;   // spread column
    row[2] = -1.5f;                          // constant column
  }
  const QuantizedItemFactors q = QuantizedItemFactors::Encode(factors.view());
  EXPECT_EQ(q.grid_delta()[0], 0.0f);
  EXPECT_GT(q.grid_delta()[1], 0.0f);
  EXPECT_EQ(q.grid_delta()[2], 0.0f);
  std::vector<float> decoded(3);
  for (size_t i = 0; i < 5; ++i) {
    q.DecodeRow(i, decoded);
    // Zero-range columns decode exactly: vmin + 0 * code == the value.
    EXPECT_EQ(decoded[0], 2.75f) << i;
    EXPECT_EQ(decoded[2], -1.5f) << i;
    // The spread column's grid has delta = 4/255; integer row values sit
    // within half a step of their decode.
    EXPECT_NEAR(decoded[1], factors.items.At(i, 1), 4.0f / 255.0f / 2.0f + 1e-5f);
  }
}

TEST(QuantizeEncode, NonFiniteEntriesFollowTheDocumentedPolicy) {
  OwnedFactors factors = MakeFactors(ScoreKernel::kDot, 4, 2);
  // Column 0: finite range [-1, 3] plus one NaN, one +inf, one -inf.
  factors.items.At(0, 0) = -1.0f;
  factors.items.At(1, 0) = kNan;
  factors.items.At(2, 0) = kInf;
  factors.items.At(3, 0) = 3.0f;
  // Column 1: -inf among finites.
  factors.items.At(0, 1) = 0.0f;
  factors.items.At(1, 1) = 1.0f;
  factors.items.At(2, 1) = -kInf;
  factors.items.At(3, 1) = 0.5f;

  const QuantizedItemFactors q = QuantizedItemFactors::Encode(factors.view());
  // Ranges come from the finite entries only.
  EXPECT_EQ(q.grid_min()[0], -1.0f);
  EXPECT_FLOAT_EQ(q.grid_delta()[0], 4.0f / 255.0f);
  EXPECT_EQ(q.grid_min()[1], 0.0f);
  // NaN and -inf map to code 0, +inf to code 255.
  EXPECT_EQ(q.Codes(1)[0], 0);
  EXPECT_EQ(q.Codes(2)[0], 255);
  EXPECT_EQ(q.Codes(2)[1], 0);
  // Decodes are always finite (the re-rank sees the true values).
  std::vector<float> decoded(2);
  for (size_t i = 0; i < 4; ++i) {
    q.DecodeRow(i, decoded);
    EXPECT_TRUE(std::isfinite(decoded[0])) << i;
    EXPECT_TRUE(std::isfinite(decoded[1])) << i;
  }
}

TEST(QuantizeEncode, L2GridSharesOneDeltaAcrossDimensions) {
  // kNegSquaredL2: every column uses the widest column's step (quantize.h
  // — the code-space distance must be proportional to the grid distance),
  // while vmin stays per-dimension. kDot keeps per-dim deltas.
  OwnedFactors l2 = MakeFactors(ScoreKernel::kNegSquaredL2, 3, 3);
  OwnedFactors dot = MakeFactors(ScoreKernel::kDot, 3, 3);
  for (size_t i = 0; i < 3; ++i) {
    const float x = static_cast<float>(i);
    for (OwnedFactors* f : {&l2, &dot}) {
      f->items.At(i, 0) = x;           // range 2
      f->items.At(i, 1) = 10.0f * x;   // range 20 — the widest
      f->items.At(i, 2) = 5.0f + x;    // range 2, offset vmin
    }
  }
  const QuantizedItemFactors ql2 = QuantizedItemFactors::Encode(l2.view());
  const float shared = 20.0f / 255.0f;
  for (size_t d = 0; d < 3; ++d) {
    EXPECT_FLOAT_EQ(ql2.grid_delta()[d], shared) << d;
  }
  EXPECT_EQ(ql2.grid_min()[0], 0.0f);
  EXPECT_EQ(ql2.grid_min()[2], 5.0f);
  const QuantizedItemFactors qdot = QuantizedItemFactors::Encode(dot.view());
  EXPECT_FLOAT_EQ(qdot.grid_delta()[0], 2.0f / 255.0f);
  EXPECT_FLOAT_EQ(qdot.grid_delta()[1], 20.0f / 255.0f);
}

TEST(QuantizeEncode, NonfiniteRowsAreRecordedAscending) {
  OwnedFactors factors = RandomFactors(ScoreKernel::kDot, 6, 3, 41);
  factors.items.At(1, 2) = kNan;
  factors.items.At(4, 0) = kInf;
  factors.items.At(4, 1) = -kInf;
  const QuantizedItemFactors q = QuantizedItemFactors::Encode(factors.view());
  const auto nonfinite = q.nonfinite_items();
  ASSERT_EQ(nonfinite.size(), 2u);
  EXPECT_EQ(nonfinite[0], 1);
  EXPECT_EQ(nonfinite[1], 4);
  const QuantizedItemFactors clean =
      QuantizedItemFactors::Encode(
          RandomFactors(ScoreKernel::kDot, 6, 3, 42).view());
  EXPECT_TRUE(clean.nonfinite_items().empty());
}

TEST(QuantizeEncode, AllNonFiniteColumnDegradesToZeroGrid) {
  OwnedFactors factors = MakeFactors(ScoreKernel::kDot, 2, 1);
  factors.items.At(0, 0) = kNan;
  factors.items.At(1, 0) = kInf;
  const QuantizedItemFactors q = QuantizedItemFactors::Encode(factors.view());
  EXPECT_EQ(q.grid_min()[0], 0.0f);
  EXPECT_EQ(q.grid_delta()[0], 0.0f);
  EXPECT_EQ(q.Codes(0)[0], 0);
  EXPECT_EQ(q.Codes(1)[0], 255);
}

TEST(QuantizeEncode, DegenerateShapes) {
  // dim 0: encode, decode and query-prep are all well-defined no-ops.
  {
    const OwnedFactors factors = MakeFactors(ScoreKernel::kDot, 3, 0);
    const QuantizedItemFactors q = QuantizedItemFactors::Encode(factors.view());
    EXPECT_EQ(q.dim(), 0u);
    EXPECT_EQ(q.code_bytes(), 0u);
    q.DecodeRow(1, {});
    Sq8Query query;
    q.PrepareQuery({}, &query);
    EXPECT_EQ(query.weights.size(), 0u);
    EXPECT_EQ(query.weights_lo.size(), 0u);
    EXPECT_EQ(query.scale, 0.0f);
    EXPECT_EQ(query.bias, 0.0f);
  }
  // dim 1.
  {
    OwnedFactors factors = MakeFactors(ScoreKernel::kDot, 3, 1);
    factors.items.At(0, 0) = -2.0f;
    factors.items.At(1, 0) = 0.0f;
    factors.items.At(2, 0) = 2.0f;
    const QuantizedItemFactors q = QuantizedItemFactors::Encode(factors.view());
    EXPECT_EQ(q.Codes(0)[0], 0);
    EXPECT_EQ(q.Codes(2)[0], 255);
    std::vector<float> decoded(1);
    q.DecodeRow(1, decoded);
    EXPECT_NEAR(decoded[0], 0.0f, 4.0f / 255.0f / 2.0f + 1e-5f);
  }
  // Catalog of one item: every column is zero-range, decode is exact.
  {
    OwnedFactors factors = MakeFactors(ScoreKernel::kNegSquaredL2, 1, 4);
    for (size_t d = 0; d < 4; ++d) {
      factors.items.At(0, d) = 0.25f * static_cast<float>(d) - 1.0f;
    }
    const QuantizedItemFactors q = QuantizedItemFactors::Encode(factors.view());
    std::vector<float> decoded(4);
    q.DecodeRow(0, decoded);
    for (size_t d = 0; d < 4; ++d) {
      EXPECT_EQ(decoded[d], factors.items.At(0, d)) << d;
    }
  }
}

// ---------------------------------------------------------------------
// QuantizeBound: the documented reconstruction bound, zoo-wide.

void ExpectReconstructionBound(const ItemFactors& factors,
                               const std::string& what) {
  const QuantizedItemFactors q = QuantizedItemFactors::Encode(factors);
  const auto vmin = q.grid_min();
  const auto delta = q.grid_delta();
  std::vector<float> decoded(q.dim());
  for (size_t i = 0; i < q.num_items(); ++i) {
    q.DecodeRow(i, decoded);
    const float* row = factors.items.Row(i);
    for (size_t d = 0; d < q.dim(); ++d) {
      if (!std::isfinite(row[d])) continue;
      // |x - x_hat| <= delta/2 + eps * (|vmin| + 255 * delta): the
      // half-step quantization error plus the float rounding of the
      // decode affine (quantize.h). eps is taken at 2^-22 to cover the
      // affine's two roundings with margin.
      const float grid_mag =
          std::fabs(vmin[d]) + 255.0f * delta[d];
      const float bound = 0.5f * delta[d] + grid_mag / 4194304.0f;
      ASSERT_LE(std::fabs(row[d] - decoded[d]), bound)
          << what << " item " << i << " dim " << d << " x=" << row[d]
          << " x_hat=" << decoded[d] << " delta=" << delta[d];
    }
  }
}

TEST(QuantizeBound, HoldsForRandomFactorsBothKernels) {
  ExpectReconstructionBound(
      RandomFactors(ScoreKernel::kDot, 200, 24, 1311).view(), "dot");
  ExpectReconstructionBound(
      RandomFactors(ScoreKernel::kNegSquaredL2, 200, 24, 1312).view(), "l2");
}

TEST(QuantizeBound, HoldsForEveryFactorizableModelExport) {
  WorldConfig config;
  config.num_users = 20;
  config.num_items = 30;
  config.avg_interactions_per_user = 6.0;
  config.item_relations = {{"genre", 4, 1, 0.9f}};
  config.seed = 616;
  const SyntheticWorld world = GenerateWorld(config);
  Rng rng(13);
  const DataSplit split = RatioSplit(world.interactions, 0.25, rng);
  const UserItemGraph ui_graph = BuildUserItemGraph(world, split.train);
  RecContext ctx;
  ctx.train = &split.train;
  ctx.item_kg = &world.item_kg;
  ctx.user_item_graph = &ui_graph;
  ctx.seed = 29;

  for (const std::string& name : FactorizableMethodNames()) {
    std::unique_ptr<Recommender> model = MakeRecommender(name);
    model->Fit(ctx);
    const DotProductFactors* factors = AsFactorizable(*model);
    ASSERT_NE(factors, nullptr) << name;
    ExpectReconstructionBound(factors->item_factors(), name);
  }
}

// ---------------------------------------------------------------------
// QuantizeQuery: the prepared-query decompositions.

TEST(QuantizeQuery, DotApproximationStaysWithinItsAnalyticBound) {
  const OwnedFactors factors = RandomFactors(ScoreKernel::kDot, 100, 16, 77);
  const QuantizedItemFactors q = QuantizedItemFactors::Encode(factors.view());
  Rng rng(78);
  std::vector<float> query(16);
  std::vector<float> decoded(16);
  Sq8Query prepared;
  for (int trial = 0; trial < 10; ++trial) {
    for (float& v : query) v = static_cast<float>(rng.Normal());
    q.PrepareQuery(query, &prepared);
    ASSERT_EQ(prepared.weights.size(), 16u);
    ASSERT_EQ(prepared.weights_lo.size(), 16u);
    for (size_t i = 0; i < q.num_items(); ++i) {
      const int64_t idot =
          128 * static_cast<int64_t>(
                    kernels::DotI8(prepared.weights.data(), q.Codes(i), 16)) +
          kernels::DotI8(prepared.weights_lo.data(), q.Codes(i), 16);
      const float approx = q.ApproxScore(prepared, idot);
      // Against the *decoded* row the only approximation left is the
      // 15-bit weight rounding: per dim |w - scale*(128*hi+lo)| <=
      // scale/2, each scaled by a code <= 255 — plus float-arithmetic
      // slack on the expansion.
      q.DecodeRow(i, decoded);
      const float exact = kernels::Dot(query.data(), decoded.data(), 16);
      const float bound =
          0.5f * prepared.scale * 255.0f * 16.0f + 1e-3f * std::fabs(exact) +
          1e-4f;
      EXPECT_LE(std::fabs(approx - exact), bound)
          << "trial " << trial << " item " << i;
    }
  }
}

TEST(QuantizeQuery, HiLoSplitReassemblesTheFifteenBitWeight) {
  // One dimension with a huge delta (an outlier-stretched column) next
  // to ordinary ones: a single i8 weight vector would collapse to
  // one-hot here. The hi/lo split must keep every |w[d]| >= max|w|/32512
  // at a nonzero combined weight.
  OwnedFactors factors = MakeFactors(ScoreKernel::kDot, 2, 4);
  factors.items.At(0, 0) = 0.0f;
  factors.items.At(1, 0) = 1000.0f;  // delta[0] ~ 3.92
  for (size_t d = 1; d < 4; ++d) {
    factors.items.At(0, d) = 0.0f;
    factors.items.At(1, d) = 1.0f;  // delta[d] ~ 0.0039
  }
  const QuantizedItemFactors q = QuantizedItemFactors::Encode(factors.view());
  const std::vector<float> query{1.0f, 1.0f, 1.0f, 1.0f};
  Sq8Query prepared;
  q.PrepareQuery(query, &prepared);
  for (size_t d = 0; d < 4; ++d) {
    const int64_t combined = 128 * static_cast<int64_t>(prepared.weights[d]) +
                             prepared.weights_lo[d];
    EXPECT_NE(combined, 0) << d;
    // The reassembled integer weight is the round-half-even image of
    // w[d]/scale, so it stays within half a unit of it.
    const double w = static_cast<double>(query[d]) * q.grid_delta()[d];
    EXPECT_LE(std::fabs(static_cast<double>(combined) -
                        w / static_cast<double>(prepared.scale)),
              0.5 + 1e-6)
        << d;
    EXPECT_GE(prepared.weights[d], -127);
    EXPECT_LE(prepared.weights[d], 127);
    EXPECT_GE(prepared.weights_lo[d], -64);
    EXPECT_LE(prepared.weights_lo[d], 63);
  }
  // The anchor dimension maps to exactly 16256 = 127 * 128.
  EXPECT_EQ(prepared.weights[0], 127);
  EXPECT_EQ(prepared.weights_lo[0], 0);
}

TEST(QuantizeQuery, L2QueryLandsOnTheItemGrid) {
  const OwnedFactors factors = RandomFactors(ScoreKernel::kNegSquaredL2, 50, 8, 99);
  const QuantizedItemFactors q = QuantizedItemFactors::Encode(factors.view());
  Sq8Query prepared;
  // A query equal to item 7's decoded row must encode to item 7's codes
  // exactly — integer distance 0 to itself.
  std::vector<float> decoded(8);
  q.DecodeRow(7, decoded);
  q.PrepareQuery(decoded, &prepared);
  ASSERT_EQ(prepared.codes.size(), 8u);
  EXPECT_EQ(std::memcmp(prepared.codes.data(), q.Codes(7), 8), 0);
  EXPECT_EQ(kernels::SquaredDistanceI8(prepared.codes.data(), q.Codes(7), 8),
            0);
}

TEST(QuantizeQuery, ZeroAndNonFiniteQueriesAreSafe) {
  const OwnedFactors factors = RandomFactors(ScoreKernel::kDot, 20, 4, 55);
  const QuantizedItemFactors q = QuantizedItemFactors::Encode(factors.view());
  Sq8Query prepared;

  const std::vector<float> zero(4, 0.0f);
  q.PrepareQuery(zero, &prepared);
  EXPECT_EQ(prepared.scale, 0.0f);
  EXPECT_EQ(prepared.bias, 0.0f);
  for (int8_t w : prepared.weights) EXPECT_EQ(w, 0);
  for (int8_t w : prepared.weights_lo) EXPECT_EQ(w, 0);

  // Non-finite query entries are treated as 0 in the approximate scan:
  // the prepared query must stay finite.
  const std::vector<float> weird{kNan, 1.0f, -kInf, kInf};
  q.PrepareQuery(weird, &prepared);
  EXPECT_TRUE(std::isfinite(prepared.scale));
  EXPECT_TRUE(std::isfinite(prepared.bias));
  const int64_t idot =
      128 * static_cast<int64_t>(
                kernels::DotI8(prepared.weights.data(), q.Codes(0), 4)) +
      kernels::DotI8(prepared.weights_lo.data(), q.Codes(0), 4);
  EXPECT_TRUE(std::isfinite(q.ApproxScore(prepared, idot)));
}

TEST(QuantizeQuery, CodeBytesAreAQuarterOfTheFloatMatrix) {
  const OwnedFactors factors = RandomFactors(ScoreKernel::kDot, 128, 32, 5);
  const QuantizedItemFactors q = QuantizedItemFactors::Encode(factors.view());
  EXPECT_EQ(q.code_bytes(), 128u * 32u);
  EXPECT_EQ(q.code_bytes() * 4, factors.items.size() * sizeof(float));
  EXPECT_EQ(q.grid_bytes(), 2u * 32u * sizeof(float));
}

}  // namespace
}  // namespace kgrec
