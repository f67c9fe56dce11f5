#include "serving.h"

#include <sys/prctl.h>

#include <algorithm>
#include <thread>

#include "core/registry.h"
#include "retrieval/factors.h"
#include "retrieval/index.h"

namespace kgbench {

using kgrec::serve::RecommendRequest;
using kgrec::serve::RecommendResponse;
using kgrec::serve::ServeHandle;

void WaitUntil(uint64_t due_ns) {
  // A 1 us timer slack (the default is 50 us) lets the sleep end close
  // to the deadline, so the generator needs only a short spin after it.
  thread_local const bool slack_set = prctl(PR_SET_TIMERSLACK, 1000UL) == 0;
  (void)slack_set;
  for (;;) {
    const uint64_t now = NowNs();
    if (now >= due_ns) return;
    if (due_ns - now > 40'000) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(due_ns - now - 25'000));
    } else {
      std::this_thread::yield();
    }
  }
}

double WindowedPercentile(const LatencyWindows& windows, double q,
                          double across) {
  std::vector<double> per_window;
  for (const std::vector<double>& w : windows) {
    if (!w.empty()) per_window.push_back(Percentile(w, q));
  }
  return Percentile(std::move(per_window), across);
}

void ReportRouterLayer(const std::vector<Outcome>& outcomes,
                       const std::vector<double>& lag_ms,
                       const kgrec::serve::RouterStats& start,
                       const kgrec::serve::RouterStats& closed_end,
                       const kgrec::serve::RouterStats& end,
                       const Tracer& tracer, Report* report) {
  std::vector<double> submit_us, sojourn_ms;
  for (const Outcome& o : outcomes) {
    if (!o.open_loop) continue;
    submit_us.push_back(NsToUs(static_cast<double>(o.return_ns - o.call_ns)));
    if (o.ok) {
      sojourn_ms.push_back(
          NsToMs(static_cast<double>(o.completed_ns - o.submitted_ns)));
    }
  }
  const double accepted =
      static_cast<double>(closed_end.accepted - start.accepted);
  const double batches =
      static_cast<double>(closed_end.batches - start.batches);
  report->Set("loadgen.lag_p99_ms", Percentile(lag_ms, 0.99));
  report->Set("router.submit_us_p50", Median(submit_us));
  report->Set("router.sojourn_ms_p50", Percentile(sojourn_ms, 0.5));
  report->Set("router.sojourn_ms_p99", Percentile(sojourn_ms, 0.99));
  // Only open-loop sojourn spans carry a replayed service-time child.
  report->Set("router.self_ms_p50",
              Median(tracer.SelfTimesMs("router.sojourn")));
  report->Set("router.coalesce_ratio",
              accepted > 0 ? static_cast<double>(closed_end.coalesced -
                                                 start.coalesced) / accepted
                           : 0.0);
  report->Set("router.batch_mean",
              batches > 0 ? static_cast<double>(closed_end.responses -
                                                start.responses) / batches
                          : 0.0);
  report->Set("router.rejected",
              static_cast<double>(end.rejected - start.rejected));
}

void ReportTraceOverhead(const ServingNumbers& untraced,
                         const ServingNumbers& traced, Report* report) {
  report->Set("trace.overhead_p50_ms", traced.p50_ms - untraced.p50_ms);
  report->Set("trace.overhead_throughput_frac",
              untraced.throughput_per_s > 0
                  ? (untraced.throughput_per_s - traced.throughput_per_s) /
                        untraced.throughput_per_s
                  : 0.0);
}

/// Replays each sampled request three ways and compares bitwise with
/// what the router served: the handle's Recommend (handle layer), the
/// index queried with caller scratch (retrieval layer), and ScoreItems
/// over the returned ids (model layer).
void CheckRecommendSamples(
    const RecommendTraffic& traffic,
    const std::function<const ServeHandle*(uint64_t)>& handle_for,
    const std::vector<Sample<RecommendResponse>>& samples, Tracer& tracer,
    Report* report) {
  kgrec::retrieval::SearchScratch scratch;
  std::vector<float> query;
  std::vector<std::pair<int32_t, float>> top;
  std::vector<int32_t> ids;
  std::vector<double> recommend_us, fill_us, query_us, rows, bytes,
      score_items_us, per_candidate_us;
  bool indexed = true;
  for (const Sample<RecommendResponse>& s : samples) {
    const ServeHandle* served = handle_for(s.response.generation);
    if (served == nullptr) continue;
    const ServeHandle& handle = *served;
    const kgrec::DotProductFactors* factors =
        kgrec::AsFactorizable(handle.model());
    const kgrec::retrieval::ItemIndex* index = handle.index();
    if (factors == nullptr || index == nullptr) {
      indexed = false;
      continue;
    }
    // The exact index scores every non-excluded row; other index kinds
    // would need their own count.
    const bool exact = index->name() == "brute-force";
    const size_t element_bytes =
        index->precision() == kgrec::retrieval::ScanPrecision::kSq8
            ? 1
            : sizeof(float);
    query.resize(factors->factor_dim());
    const RecommendRequest request = traffic.Make(s.seq);
    const std::string what = "recommend request " + std::to_string(s.seq);

    uint64_t t0 = NowNs();
    const auto direct =
        handle.Recommend(request.user, request.k, request.exclude);
    const uint64_t handle_ns = NowNs() - t0;
    recommend_us.push_back(NsToUs(static_cast<double>(handle_ns)));
    report->Compare(s.response.generation == handle.generation() &&
                        BitwiseEqual(direct, s.response.items),
                    what);

    t0 = NowNs();
    factors->FillUserQuery(request.user, query);
    const uint64_t fill_ns = NowNs() - t0;
    const std::vector<int32_t> sorted_exclude =
        kgrec::retrieval::SanitizeExclude(request.exclude, handle.num_items());
    t0 = NowNs();
    index->QueryInto(query, request.k, sorted_exclude, scratch, &top);
    const uint64_t query_ns = NowNs() - t0;
    fill_us.push_back(NsToUs(static_cast<double>(fill_ns)));
    query_us.push_back(NsToUs(static_cast<double>(query_ns)));
    report->Compare(BitwiseEqual(top, s.response.items), what + " (index)");
    const double scanned =
        exact ? static_cast<double>(index->num_items() - sorted_exclude.size())
              : 0.0;
    rows.push_back(scanned);
    bytes.push_back(scanned *
                    static_cast<double>(index->dim() * element_bytes));

    ids.clear();
    for (const auto& [item, score] : s.response.items) ids.push_back(item);
    t0 = NowNs();
    const std::vector<float> scores = handle.ScoreItems(request.user, ids);
    score_items_us.push_back(NsToUs(static_cast<double>(NowNs() - t0)));
    t0 = NowNs();
    const std::vector<float> model_scores =
        handle.model().ScoreItems(request.user, ids);
    per_candidate_us.push_back(
        NsToUs(static_cast<double>(NowNs() - t0)) /
        static_cast<double>(std::max<size_t>(1, ids.size())));
    bool same_scores = BitwiseEqual(scores, model_scores) &&
                       scores.size() == s.response.items.size();
    for (size_t i = 0; same_scores && i < scores.size(); ++i) {
      same_scores = SameBits(scores[i], s.response.items[i].second);
    }
    report->Compare(same_scores, what + " (ScoreItems)");

    if (s.sojourn_span != 0) {
      // The direct call's duration, placed at the end of the routed
      // request's sojourn: the router's self time is the rest.
      const uint64_t end = s.response.completed_ns;
      const uint64_t start = end - std::min(handle_ns, end);
      const uint64_t span = tracer.Record("handle.recommend", start, end,
                                          s.sojourn_span, s.seq);
      tracer.Record("retrieval.fill_query", start, start + fill_ns, span,
                    s.seq);
      tracer.Record("retrieval.query", start + fill_ns,
                    start + fill_ns + query_ns, span, s.seq);
      tracer.Count("retrieval.rows", scanned);
    }
  }
  report->Check("MF is served through a retrieval index", indexed, "");
  report->Set("handle.recommend_us_p50", Median(recommend_us));
  report->Set("retrieval.fill_query_us_p50", Median(fill_us));
  report->Set("retrieval.query_us_p50", Median(query_us));
  report->Set("retrieval.rows_per_query", Median(rows));
  report->Set("retrieval.scan_bytes_per_query", Median(bytes));
  report->Set("handle.score_items_us_p50", Median(score_items_us));
  report->Set("model.score_us_per_candidate", Median(per_candidate_us));
}

}  // namespace kgbench
