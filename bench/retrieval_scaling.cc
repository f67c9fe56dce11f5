// Retrieval-layer scaling bench and CI gate.
//
//   ./retrieval_scaling          full sweep: catalog size × probe count,
//                                recall@10 vs speedup over the exact scan
//   ./retrieval_scaling --smoke  CI gate (tier1): tiny sweep, asserts
//                                (a) BruteForceIndex top-K is bitwise
//                                    ScoreAll + TopKScored for every
//                                    factorizable registry model,
//                                (b) IvfIndex recall@10 >= 0.95 at the
//                                    default probe setting,
//                                (c) probes == clusters is bitwise the
//                                    brute-force result,
//                                (d) the SQ8 quantized scan + exact
//                                    re-rank is bitwise the float32 scan
//                                    for every factorizable model AND
//                                    the dispatched int8 kernels agree
//                                    with the scalar reference on every
//                                    candidate-pool score (DESIGN §12).
//
// Two parts. Part 1 fits every factorizable model on a small world and
// checks its exact index against the exhaustive reference — the
// export-contract gate (DESIGN §10) — then repeats the comparison with a
// ScanPrecision::kSq8 index and cross-checks the integer scan scores
// against kernels::ref. Part 2 sweeps synthetic Gaussian embeddings
// (retrieval cost depends only on catalog geometry, not on how the
// factors were trained) and reports exact-scan vs SQ8-scan vs IVF QPS,
// latency percentiles, measured recall, and the SQ8 pool's
// recall-before-rerank (how often the quantized scan alone already finds
// the true top-10 — the margin the re-rank consumes).
//
// Emits machine-readable BENCH_retrieval.json next to the binary.
// Exits non-zero on any gate failure.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/mem_stats.h"
#include "core/recommender.h"
#include "core/registry.h"
#include "data/presets.h"
#include "math/kernels.h"
#include "math/rng.h"
#include "math/topk.h"
#include "retrieval/factors.h"
#include "retrieval/index.h"
#include "retrieval/quantize.h"

namespace {

using Clock = std::chrono::steady_clock;
using kgrec::retrieval::BruteForceIndex;
using kgrec::retrieval::ItemFactors;
using kgrec::retrieval::IvfConfig;
using kgrec::retrieval::IvfIndex;
using kgrec::retrieval::QuantizedItemFactors;
using kgrec::retrieval::ScanPrecision;
using kgrec::retrieval::ScanSpec;
using kgrec::retrieval::ScoreKernel;
using kgrec::retrieval::Sq8Query;

constexpr size_t kK = 10;

ScanSpec Sq8Spec() {
  ScanSpec spec;
  spec.precision = ScanPrecision::kSq8;
  return spec;  // default rerank_factor / rerank_slack — what serving uses
}

/// Integer scan scores of every item in `quantized` for `query`, via
/// either the dispatched kernels (simd == true) or the scalar reference.
/// Bitwise equality of the two is the cross-build guarantee: integer
/// accumulation has no fold-order sensitivity, so scalar, SSE2 and AVX2
/// builds must produce identical candidate pools. kDot combines the
/// hi/lo weight passes in int64 exactly like the index scan does.
void IntegerScanScores(const QuantizedItemFactors& quantized,
                       const Sq8Query& q8, bool simd,
                       std::vector<int64_t>* out) {
  const size_t n = quantized.num_items();
  std::vector<const uint8_t*> rows(n);
  for (size_t i = 0; i < n; ++i) rows[i] = quantized.Codes(i);
  out->resize(n);
  std::vector<int32_t> pass(n);
  if (quantized.kernel() == ScoreKernel::kDot) {
    // Same fused dual-accumulator kernel the serve-path scan uses
    // (retrieval::FlushSq8), so the bitwise gate covers it directly.
    std::vector<int32_t> pass_lo(n);
    if (simd) {
      kgrec::kernels::DotDualBatchI8(q8.weights.data(), q8.weights_lo.data(),
                                     rows.data(), n, quantized.dim(),
                                     pass.data(), pass_lo.data());
    } else {
      kgrec::kernels::ref::DotDualBatchI8(q8.weights.data(),
                                          q8.weights_lo.data(), rows.data(), n,
                                          quantized.dim(), pass.data(),
                                          pass_lo.data());
    }
    for (size_t i = 0; i < n; ++i) {
      (*out)[i] =
          128 * static_cast<int64_t>(pass[i]) + static_cast<int64_t>(pass_lo[i]);
    }
    return;
  }
  if (simd) {
    kgrec::kernels::SquaredDistanceBatchI8(q8.codes.data(), rows.data(), n,
                                           quantized.dim(), pass.data());
  } else {
    kgrec::kernels::ref::SquaredDistanceBatchI8(q8.codes.data(), rows.data(),
                                                n, quantized.dim(),
                                                pass.data());
  }
  for (size_t i = 0; i < n; ++i) (*out)[i] = pass[i];
}

bool SameRanking(const std::vector<std::pair<int32_t, float>>& a,
                 const std::vector<std::pair<int32_t, float>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    // Bitwise: NaN == NaN must pass, +0 vs -0 must fail.
    if (a[i].first != b[i].first ||
        std::memcmp(&a[i].second, &b[i].second, sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

double RecallAt(const std::vector<std::pair<int32_t, float>>& exact,
                const std::vector<std::pair<int32_t, float>>& approx) {
  if (exact.empty()) return 1.0;
  size_t hit = 0;
  for (const auto& [item, score] : approx) {
    for (const auto& [ref_item, ref_score] : exact) {
      if (item == ref_item) {
        ++hit;
        break;
      }
    }
  }
  return static_cast<double>(hit) / static_cast<double>(exact.size());
}

double Percentile(std::vector<double>& sorted_us, double q) {
  if (sorted_us.empty()) return 0.0;
  const size_t index = static_cast<size_t>(
      q * static_cast<double>(sorted_us.size() - 1) + 0.5);
  return sorted_us[std::min(index, sorted_us.size() - 1)];
}

struct QueryTiming {
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

/// Runs every query through `index` and times each Query() call.
QueryTiming TimeQueries(const kgrec::retrieval::ItemIndex& index,
                        const kgrec::Matrix& queries, size_t k,
                        std::vector<std::vector<std::pair<int32_t, float>>>*
                            results) {
  results->clear();
  results->reserve(queries.rows());
  std::vector<double> lat_us;
  lat_us.reserve(queries.rows());
  const auto start = Clock::now();
  for (size_t q = 0; q < queries.rows(); ++q) {
    const auto t0 = Clock::now();
    results->push_back(index.Query(
        std::span<const float>(queries.Row(q), queries.cols()), k));
    const auto t1 = Clock::now();
    lat_us.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  const double wall =
      std::chrono::duration<double>(Clock::now() - start).count();
  QueryTiming timing;
  timing.qps = wall > 0 ? static_cast<double>(queries.rows()) / wall : 0.0;
  std::sort(lat_us.begin(), lat_us.end());
  timing.p50_us = Percentile(lat_us, 0.50);
  timing.p99_us = Percentile(lat_us, 0.99);
  return timing;
}

/// Part 1: for each factorizable registry model, fit on the shared world
/// and require (a) BruteForceIndex::Query == ScoreAll + TopKScored
/// bitwise, (b) the SQ8 index == the float32 index bitwise, and (c) the
/// dispatched integer kernels == the scalar reference on every scan
/// score. Sets *sq8_ok to (b) && (c) across all models.
bool RunModelGate(const kgrec::bench::Workbench& bench, bool* sq8_ok,
                  std::vector<std::string>* json_rows) {
  const kgrec::RecContext ctx = bench.Context(17);
  const int32_t num_items = ctx.train->num_items();
  const int32_t num_users = ctx.train->num_users();
  bool all_ok = true;
  *sq8_ok = true;

  std::printf("%-10s %-14s %-8s %-8s %-8s %10s\n", "model", "kernel",
              "bitwise", "sq8", "int8=ref", "scan QPS");
  kgrec::bench::PrintRule(64);
  for (const std::string& name : kgrec::FactorizableMethodNames()) {
    std::unique_ptr<kgrec::Recommender> model = kgrec::MakeRecommender(name);
    model->Fit(ctx);
    const kgrec::DotProductFactors* factors = kgrec::AsFactorizable(*model);
    BruteForceIndex index(factors->item_factors());
    BruteForceIndex sq8_index(factors->item_factors(), Sq8Spec());
    const QuantizedItemFactors* quantized = sq8_index.quantized();

    bool bitwise = index.num_items() == static_cast<size_t>(num_items);
    bool sq8_bitwise = true;
    bool int8_matches_ref = true;
    const int32_t probe_users = std::min<int32_t>(num_users, 32);
    std::vector<float> query(factors->factor_dim());
    Sq8Query q8;
    std::vector<int64_t> dispatched_scores;
    std::vector<int64_t> ref_scores;
    const auto start = Clock::now();
    for (int32_t user = 0; user < probe_users; ++user) {
      const std::vector<float> scores = model->ScoreAll(user, num_items);
      const auto reference = kgrec::TopKScored(scores, kK);
      factors->FillUserQuery(user, query);
      const auto got = index.Query(query, kK);
      if (!SameRanking(reference, got)) {
        bitwise = false;
        std::fprintf(stderr,
                     "FAIL %s user %d: exact index != ScoreAll+TopKScored\n",
                     name.c_str(), user);
        break;
      }
      if (!SameRanking(got, sq8_index.Query(query, kK))) {
        sq8_bitwise = false;
        std::fprintf(stderr,
                     "FAIL %s user %d: SQ8 index != float32 index\n",
                     name.c_str(), user);
        break;
      }
      quantized->PrepareQuery(query, &q8);
      IntegerScanScores(*quantized, q8, /*simd=*/true, &dispatched_scores);
      IntegerScanScores(*quantized, q8, /*simd=*/false, &ref_scores);
      if (dispatched_scores != ref_scores) {
        int8_matches_ref = false;
        std::fprintf(stderr,
                     "FAIL %s user %d: dispatched int8 kernels != scalar "
                     "reference\n",
                     name.c_str(), user);
        break;
      }
    }
    const double wall =
        std::chrono::duration<double>(Clock::now() - start).count();
    const double qps =
        wall > 0 ? static_cast<double>(probe_users) / wall : 0.0;
    const char* kernel =
        kgrec::retrieval::ScoreKernelName(factors->factor_kernel());
    std::printf("%-10s %-14s %-8s %-8s %-8s %10.0f\n", name.c_str(), kernel,
                bitwise ? "yes" : "NO", sq8_bitwise ? "yes" : "NO",
                int8_matches_ref ? "yes" : "NO", qps);
    all_ok = all_ok && bitwise;
    *sq8_ok = *sq8_ok && sq8_bitwise && int8_matches_ref;

    const size_t factor_bytes =
        index.num_items() * index.dim() * sizeof(float);
    json_rows->push_back(kgrec::bench::JsonWriter()
                             .Field("model", name)
                             .Field("kernel", kernel)
                             .Field("bitwise", bitwise)
                             .Field("sq8_bitwise", sq8_bitwise)
                             .Field("int8_kernels_bitwise", int8_matches_ref)
                             .Field("factor_bytes", factor_bytes)
                             .Field("sq8_code_bytes", quantized->code_bytes())
                             .Field("candidate_pool", Sq8Spec().PoolSize(kK))
                             .str());
  }
  return all_ok;
}

struct SweepGate {
  bool ok = true;
  double default_probe_recall = 1.0;
};

/// Part 2: synthetic-embedding sweep, catalog size × probe count.
SweepGate RunSweep(const std::vector<size_t>& catalog_sizes,
                   size_t num_queries, bool smoke,
                   std::vector<std::string>* json_rows) {
  constexpr size_t kDim = 32;
  SweepGate gate;

  std::printf("\n%-9s %-9s %-8s %-7s %10s %9s %9s %9s\n", "catalog",
              "clusters", "probes", "recall", "QPS", "p50 us", "p99 us",
              "speedup");
  kgrec::bench::PrintRule(78);
  for (size_t n : catalog_sizes) {
    kgrec::Rng rng(kgrec::Rng(99).Fork(n).NextUint64());
    // Trained item embeddings cluster (the synthetic worlds build items
    // from latent attribute clusters; real catalogs from genres/brands),
    // so the sweep geometry is a Gaussian mixture, not i.i.d. noise —
    // i.i.d. Gaussian is the adversarial no-structure case where *no*
    // cluster-pruned index can work.
    const size_t gen_clusters = std::max<size_t>(8, n / 40);
    kgrec::Matrix centers(gen_clusters, kDim);
    for (size_t i = 0; i < centers.size(); ++i) {
      centers.data()[i] = static_cast<float>(rng.Normal());
    }
    kgrec::Matrix items(n, kDim);
    for (size_t i = 0; i < n; ++i) {
      const float* center = centers.Row(rng.UniformInt(gen_clusters));
      float* row = items.Row(i);
      for (size_t c = 0; c < kDim; ++c) {
        row[c] = center[c] + 0.15f * static_cast<float>(rng.Normal());
      }
    }
    kgrec::Matrix queries(num_queries, kDim);
    for (size_t i = 0; i < queries.size(); ++i) {
      queries.data()[i] = static_cast<float>(rng.Normal());
    }

    // Every index below borrows `items`, which outlives them all.
    const ItemFactors factors{ScoreKernel::kDot, items.View()};
    BruteForceIndex exact(factors);
    std::vector<std::vector<std::pair<int32_t, float>>> exact_results;
    const QueryTiming exact_timing =
        TimeQueries(exact, queries, kK, &exact_results);
    std::printf("%-9zu %-9s %-8s %-7s %10.0f %9.1f %9.1f %9s\n", n, "-",
                "exact", "1.000", exact_timing.qps, exact_timing.p50_us,
                exact_timing.p99_us, "1.0x");
    json_rows->push_back(kgrec::bench::JsonWriter()
                             .Field("catalog", n)
                             .Field("index", "brute-force")
                             .Field("recall_at_10", 1.0)
                             .Field("qps", exact_timing.qps)
                             .Field("p50_us", exact_timing.p50_us)
                             .Field("p99_us", exact_timing.p99_us)
                             .Field("bitwise", true)
                             .str());

    // SQ8 leg: quantized scan + exact re-rank over the same catalog. The
    // final ranking must be bitwise the float scan's (gate); the recall
    // the pool has *before* the re-rank is reported so the over-fetch
    // margin is visible, not assumed.
    {
      BruteForceIndex sq8(factors, Sq8Spec());
      const QuantizedItemFactors* quantized = sq8.quantized();
      std::vector<std::vector<std::pair<int32_t, float>>> sq8_results;
      const QueryTiming sq8_timing =
          TimeQueries(sq8, queries, kK, &sq8_results);

      const size_t pool_size = Sq8Spec().PoolSize(kK);
      bool sq8_bitwise = true;
      double pre_recall = 0.0;
      Sq8Query q8;
      std::vector<int64_t> iscores;
      kgrec::BoundedTopK pool(pool_size);
      for (size_t q = 0; q < exact_results.size(); ++q) {
        sq8_bitwise = sq8_bitwise &&
                      SameRanking(exact_results[q], sq8_results[q]);
        quantized->PrepareQuery(
            std::span<const float>(queries.Row(q), queries.cols()), &q8);
        IntegerScanScores(*quantized, q8, /*simd=*/true, &iscores);
        pool.Reset(pool_size);
        for (size_t i = 0; i < iscores.size(); ++i) {
          pool.Push(static_cast<int32_t>(i),
                    quantized->ApproxScore(q8, iscores[i]));
        }
        pre_recall += RecallAt(exact_results[q], pool.TakeSorted());
      }
      pre_recall /= exact_results.empty()
                        ? 1.0
                        : static_cast<double>(exact_results.size());
      if (!sq8_bitwise) {
        std::fprintf(stderr,
                     "FAIL catalog %zu: SQ8 scan + re-rank is not bitwise "
                     "the float32 scan\n",
                     n);
        gate.ok = false;
      }

      const double speedup =
          exact_timing.qps > 0 ? sq8_timing.qps / exact_timing.qps : 0.0;
      std::printf("%-9zu %-9s %-8s %-7.3f %10.0f %9.1f %9.1f %8.1fx\n", n,
                  "-", "sq8", pre_recall, sq8_timing.qps, sq8_timing.p50_us,
                  sq8_timing.p99_us, speedup);
      json_rows->push_back(
          kgrec::bench::JsonWriter()
              .Field("catalog", n)
              .Field("index", "brute-sq8")
              .Field("recall_at_10", sq8_bitwise ? 1.0 : 0.0)
              .Field("recall_before_rerank", pre_recall)
              .Field("candidate_pool", pool_size)
              .Field("factor_bytes", n * kDim * sizeof(float))
              .Field("sq8_code_bytes", quantized->code_bytes())
              .Field("qps", sq8_timing.qps)
              .Field("p50_us", sq8_timing.p50_us)
              .Field("p99_us", sq8_timing.p99_us)
              .Field("bitwise", sq8_bitwise)
              .str());
    }

    IvfConfig base;  // num_clusters = 0 -> ceil(sqrt(n))
    IvfIndex probe_of_default(factors, base);
    const size_t num_clusters = probe_of_default.num_clusters();

    std::vector<size_t> probe_counts =
        smoke ? std::vector<size_t>{2, base.num_probes, num_clusters}
              : std::vector<size_t>{1, 2, 4, base.num_probes, 16,
                                    num_clusters};
    for (size_t probes : probe_counts) {
      if (probes > num_clusters) continue;
      IvfConfig config = base;
      config.num_probes = probes;
      IvfIndex ivf(factors, config);

      std::vector<std::vector<std::pair<int32_t, float>>> ivf_results;
      const QueryTiming timing = TimeQueries(ivf, queries, kK, &ivf_results);
      double recall = 0.0;
      bool bitwise = true;
      for (size_t q = 0; q < exact_results.size(); ++q) {
        recall += RecallAt(exact_results[q], ivf_results[q]);
        bitwise = bitwise && SameRanking(exact_results[q], ivf_results[q]);
      }
      recall /= exact_results.empty()
                    ? 1.0
                    : static_cast<double>(exact_results.size());

      if (probes == base.num_probes) {
        gate.default_probe_recall =
            std::min(gate.default_probe_recall, recall);
      }
      if (probes == num_clusters && !bitwise) {
        std::fprintf(stderr,
                     "FAIL catalog %zu: probes==clusters is not bitwise "
                     "the brute-force result\n",
                     n);
        gate.ok = false;
      }

      const double speedup =
          exact_timing.qps > 0 ? timing.qps / exact_timing.qps : 0.0;
      std::printf("%-9zu %-9zu %-8zu %-7.3f %10.0f %9.1f %9.1f %8.1fx\n", n,
                  num_clusters, probes, recall, timing.qps, timing.p50_us,
                  timing.p99_us, speedup);
      json_rows->push_back(kgrec::bench::JsonWriter()
                               .Field("catalog", n)
                               .Field("index", "ivf")
                               .Field("clusters", num_clusters)
                               .Field("probes", probes)
                               .Field("recall_at_10", recall)
                               .Field("qps", timing.qps)
                               .Field("p50_us", timing.p50_us)
                               .Field("p99_us", timing.p99_us)
                               .Field("bitwise", bitwise)
                               .str());
    }
  }
  return gate;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  // Part 1: export-contract gate over the factorizable zoo.
  kgrec::WorldConfig config = kgrec::GetPreset("movielens-100k").config;
  if (smoke) {
    config.num_users = 80;
    config.num_items = 150;
    config.avg_interactions_per_user = 12.0;
  }
  const kgrec::bench::Workbench bench = kgrec::bench::MakeWorkbench(config);
  std::vector<std::string> model_rows;
  bool sq8_models_ok = true;
  const bool models_ok = RunModelGate(bench, &sq8_models_ok, &model_rows);

  // Part 2: catalog × probes sweep on synthetic embeddings.
  const std::vector<size_t> catalog_sizes =
      smoke ? std::vector<size_t>{2000}
            : std::vector<size_t>{10000, 50000, 200000};
  std::vector<std::string> sweep_rows;
  const SweepGate gate =
      RunSweep(catalog_sizes, smoke ? 50 : 200, smoke, &sweep_rows);

  const bool recall_ok = gate.default_probe_recall >= 0.95;
  if (!recall_ok) {
    std::fprintf(stderr,
                 "FAIL recall@10 at default probes = %.3f < 0.95\n",
                 gate.default_probe_recall);
  }

  const bool ok = models_ok && sq8_models_ok && gate.ok && recall_ok;
  const std::string json =
      kgrec::bench::JsonWriter()
          .Field("bench", "retrieval_scaling")
          .Field("mode", smoke ? "smoke" : "full")
          .Field("k", kK)
          .Field("exact_bitwise", models_ok)
          .Field("sq8_exact_bitwise", sq8_models_ok)
          .Field("default_probe_recall_at_10", gate.default_probe_recall)
          .Field("peak_rss_bytes", kgrec::PeakRssBytes())
          .Field("pass", ok)
          .Raw("models", kgrec::bench::JsonWriter::Array(model_rows))
          .Raw("sweep", kgrec::bench::JsonWriter::Array(sweep_rows))
          .str();
  kgrec::bench::JsonWriter::WriteFile("BENCH_retrieval.json", json);

  std::printf("\n%s\n",
              ok ? "PASS: exact + SQ8 indexes bitwise, recall gate met"
                 : "FAIL: see messages above");
  return ok ? 0 : 1;
}
