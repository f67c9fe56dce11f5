// The request-path load generator shared by the serving workloads: a
// closed loop that measures capacity, an open loop at a fixed rate that
// measures latency from each request's due time, sampled bitwise checks
// against direct ServeHandle calls, and a checkpoint + hot-swap check.
#ifndef KGBENCH_SERVING_H_
#define KGBENCH_SERVING_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/recommender.h"
#include "core/status.h"
#include "data/interactions.h"
#include "harness.h"
#include "math/rng.h"
#include "serve/router.h"
#include "serve/serve_handle.h"

namespace kgbench {

/// Router pool for the serving workloads: with the single generator
/// thread, four threads run at once on the 4-core reference box.
inline constexpr size_t kServingWorkers = 3;

/// Window lengths of the capacity and latency medians (seconds).
inline constexpr double kThroughputWindowS = 0.25;
inline constexpr double kLatencyWindowS = 1.0;

/// Blocks until the steady clock reaches `due_ns`: sleeps while the
/// deadline is far, then yields, so the generator is late by scheduler
/// noise only (reported as loadgen.lag_p99_ms).
void WaitUntil(uint64_t due_ns);

/// The load shape of one serving workload. Rates and windows are
/// constants of the benchmark, never derived from a measurement.
struct ServingPlan {
  /// Closed loop: outstanding requests the generator keeps in flight.
  size_t window = 16;
  /// Open loop: fixed arrival rate (requests per second).
  double rate = 1000.0;
  /// Every `sample_every`-th request is re-run directly and compared.
  uint64_t sample_every = 32;
};

/// Per measured request, what the generator saw.
struct Outcome {
  uint64_t seq = 0;
  uint64_t due_ns = 0;   // scheduled send time (closed loop: call entry)
  uint64_t call_ns = 0;  // Submit entered
  uint64_t return_ns = 0;  // Submit returned
  uint64_t submitted_ns = 0;
  uint64_t completed_ns = 0;
  uint64_t generation = 0;
  bool ok = false;
  /// Sent by the open loop (latency), not the closed loop (capacity).
  bool open_loop = false;
};

/// A routed response kept for the sampled direct-call comparison.
template <typename Response>
struct Sample {
  uint64_t seq = 0;
  Response response;
  /// Tracer id of the request's router.sojourn span: set for traced
  /// open-loop requests only, so the replayed service time (a child of
  /// that span) and the router's self time describe the latency loop.
  uint64_t sojourn_span = 0;
};

template <typename Response>
struct LoadRun {
  /// Keep per-request outcomes and generator lag even untraced (a traced
  /// run always keeps them). Off by default so the load generator's own
  /// bookkeeping stays out of peak_rss_mib.
  bool keep_outcomes = false;
  std::vector<Outcome> outcomes;          // measured requests only
  std::vector<double> lag_ms;             // open loop: call - due
  std::vector<Sample<Response>> samples;  // every phase, warm-up included
};

/// End-to-end figures of one measurement (closed loop then open loop),
/// and router counters at its three boundaries: before the closed loop,
/// between the loops, after the open loop.
struct ServingNumbers {
  double throughput_per_s = 0.0;
  double p50_ms = 0.0;
  double tail_ms = 0.0;
  kgrec::serve::RouterStats start, closed_end, end;
};

/// The tail the benchmark reports: p90 per 1 s window, and of those the
/// lower quartile over the run's windows. On the shared reference host a
/// sub-millisecond request's p99 is set by multi-millisecond stalls of
/// the host (it moved 5x between back-to-back runs), and in a busy
/// minute those stalls raise most windows' p90 as well. A stall only
/// ever raises a window, while a slower system raises every window, so
/// the lower quartile follows the system and not the host.
inline constexpr double kTailQuantile = 0.9;
inline constexpr double kTailAcrossWindows = 0.25;

/// Records one delivered (or rejected) request: accounting, spans of a
/// traced measured request, and the sample kept for the comparison.
template <typename Response>
void Finish(Outcome outcome, Response response, bool measured,
            uint64_t sample_every, Tracer& tracer, Phase& phase,
            LoadRun<Response>* run) {
  ++phase.attempted;
  outcome.ok = response.status.ok();
  if (!outcome.ok) ++phase.failed;
  outcome.submitted_ns = response.submitted_ns;
  outcome.completed_ns = response.completed_ns;
  outcome.generation = response.generation;
  uint64_t sojourn = 0;
  if (measured && tracer.enabled()) {
    const uint64_t end = outcome.ok ? outcome.completed_ns : outcome.return_ns;
    const uint64_t root =
        tracer.Record("request", outcome.due_ns, end, 0, outcome.seq);
    if (outcome.call_ns > outcome.due_ns) {
      tracer.Record("loadgen.lag", outcome.due_ns, outcome.call_ns, root,
                    outcome.seq);
    }
    tracer.Record("router.submit", outcome.call_ns, outcome.return_ns, root,
                  outcome.seq);
    if (outcome.ok) {
      const uint64_t span =
          tracer.Record("router.sojourn", outcome.submitted_ns,
                        outcome.completed_ns, root, outcome.seq);
      if (outcome.open_loop) sojourn = span;
    }
  }
  if (outcome.ok && outcome.seq % sample_every == 0) {
    run->samples.push_back({outcome.seq, std::move(response), sojourn});
  }
  if (measured && (run->keep_outcomes || tracer.enabled())) {
    run->outcomes.push_back(outcome);
  }
}

/// Closed loop: keeps `window` requests outstanding for `seconds` and
/// returns the capacity: the median, over windows of kThroughputWindowS,
/// of requests completed per second. The median keeps a short stall of
/// the shared host from moving the figure.
template <typename Traffic>
double ClosedLoop(const Traffic& traffic, kgrec::serve::Router& router,
                  const ServingPlan& plan, double seconds, bool measured,
                  uint64_t* next_seq, Tracer& tracer, Phase& phase,
                  LoadRun<typename Traffic::Response>* run) {
  using Response = typename Traffic::Response;
  std::deque<std::pair<Outcome, std::future<Response>>> inflight;
  const uint64_t start = NowNs();
  const uint64_t stop = start + static_cast<uint64_t>(seconds * 1e9);
  auto submit_one = [&] {
    Outcome outcome;
    outcome.seq = (*next_seq)++;
    auto request = traffic.Make(outcome.seq);
    outcome.call_ns = NowNs();
    outcome.due_ns = outcome.call_ns;
    std::future<Response> future = traffic.Submit(router, std::move(request));
    outcome.return_ns = NowNs();
    inflight.emplace_back(outcome, std::move(future));
  };
  for (size_t i = 0; i < plan.window; ++i) submit_one();
  const size_t windows = std::max<size_t>(
      1, static_cast<size_t>(seconds / kThroughputWindowS));
  const double window_ns = seconds * 1e9 / static_cast<double>(windows);
  std::vector<double> completed(windows, 0.0);
  while (!inflight.empty()) {
    Outcome outcome = inflight.front().first;
    Response response = inflight.front().second.get();
    inflight.pop_front();
    if (response.status.ok() && response.completed_ns < stop) {
      const auto w = static_cast<size_t>(
          static_cast<double>(response.completed_ns - start) / window_ns);
      completed[std::min(w, windows - 1)] += 1.0;
    }
    Finish(outcome, std::move(response), measured, plan.sample_every, tracer,
           phase, run);
    if (NowNs() < stop) submit_one();
  }
  return Median(std::move(completed)) * 1e9 / window_ns;
}

/// Latencies (ms) grouped by the window their due time falls in.
using LatencyWindows = std::vector<std::vector<double>>;

/// The `across`-quantile, over the windows, of each window's
/// q-percentile (by default the median over windows).
double WindowedPercentile(const LatencyWindows& windows, double q,
                          double across = 0.5);

/// Open loop: sends at `plan.rate` for warm-up + `seconds` on a fixed
/// schedule, starting at `start_ns`, that never waits for responses.
/// Latency runs from each request's due time; a failed request counts as
/// +inf, i.e. it misses every latency limit.
template <typename Traffic>
LatencyWindows OpenLoop(const Traffic& traffic, kgrec::serve::Router& router,
                        const ServingPlan& plan, uint64_t start_ns,
                        double warmup_seconds, double seconds,
                        uint64_t* next_seq, Tracer& tracer, Phase& warmup,
                        Phase& phase,
                        LoadRun<typename Traffic::Response>* run) {
  using Response = typename Traffic::Response;
  const size_t warm = static_cast<size_t>(plan.rate * warmup_seconds);
  const size_t total = warm + static_cast<size_t>(plan.rate * seconds);
  const uint64_t measure_start =
      start_ns +
      static_cast<uint64_t>(static_cast<double>(warm) * 1e9 / plan.rate);
  LatencyWindows latency_ms(std::max<size_t>(
      1, static_cast<size_t>(seconds / kLatencyWindowS)));
  // Responses are collected oldest first as they become ready, so the
  // generator holds only what is in flight, not the whole run.
  std::deque<std::pair<Outcome, std::future<Response>>> inflight;
  size_t collected = 0;
  auto collect_front = [&] {
    const Outcome outcome = inflight.front().first;
    Response response = inflight.front().second.get();
    inflight.pop_front();
    const bool measured = collected++ >= warm;
    if (measured) {
      const auto w = static_cast<size_t>(
          static_cast<double>(outcome.due_ns - measure_start) /
          (kLatencyWindowS * 1e9));
      latency_ms[std::min(w, latency_ms.size() - 1)].push_back(
          response.status.ok()
              ? NsToMs(static_cast<double>(response.completed_ns -
                                           outcome.due_ns))
              : std::numeric_limits<double>::infinity());
      if (run->keep_outcomes || tracer.enabled()) {
        run->lag_ms.push_back(
            NsToMs(static_cast<double>(outcome.call_ns - outcome.due_ns)));
      }
    }
    Finish(outcome, std::move(response), measured, plan.sample_every, tracer,
           measured ? phase : warmup, run);
  };
  for (size_t i = 0; i < total; ++i) {
    Outcome outcome;
    outcome.seq = (*next_seq)++;
    outcome.open_loop = true;
    outcome.due_ns = start_ns + static_cast<uint64_t>(static_cast<double>(i) *
                                                      1e9 / plan.rate);
    auto request = traffic.Make(outcome.seq);
    WaitUntil(outcome.due_ns);
    outcome.call_ns = NowNs();
    std::future<Response> future = traffic.Submit(router, std::move(request));
    outcome.return_ns = NowNs();
    inflight.emplace_back(outcome, std::move(future));
    while (!inflight.empty() &&
           inflight.front().second.wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready) {
      collect_front();
    }
  }
  while (!inflight.empty()) collect_front();
  return latency_ms;
}

/// One full measurement: a closed-loop warm-up, the closed loop
/// (capacity) over a third of `seconds` and the open loop (latency) over
/// the other two thirds.
template <typename Traffic>
ServingNumbers MeasureServing(const Traffic& traffic,
                              kgrec::serve::Router& router,
                              const ServingPlan& plan, double seconds,
                              const std::string& label, uint64_t* next_seq,
                              Tracer& tracer, Report* report,
                              LoadRun<typename Traffic::Response>* run) {
  const double warmup_seconds = std::min(0.5, 0.1 * seconds);
  Phase& warmup = report->AddPhase(label + "warmup");
  Phase& closed = report->AddPhase(label + "closed_loop");
  Phase& open = report->AddPhase(label + "open_loop");
  ClosedLoop(traffic, router, plan, warmup_seconds, false, next_seq, tracer,
             warmup, run);
  ServingNumbers numbers;
  numbers.start = router.Stats();
  numbers.throughput_per_s = ClosedLoop(traffic, router, plan, seconds / 3,
                                        true, next_seq, tracer, closed, run);
  numbers.closed_end = router.Stats();
  const LatencyWindows latency_ms =
      OpenLoop(traffic, router, plan, NowNs() + 1'000'000, warmup_seconds,
               2 * seconds / 3, next_seq, tracer, warmup, open, run);
  numbers.end = router.Stats();
  numbers.p50_ms = WindowedPercentile(latency_ms, 0.5);
  numbers.tail_ms =
      WindowedPercentile(latency_ms, kTailQuantile, kTailAcrossWindows);
  return numbers;
}

/// Router-layer figures of a traced measurement. Latency figures
/// (submit, sojourn, self time) come from the open-loop outcomes only;
/// coalescing and batch size are deltas of the counters over the closed
/// loop, whose capacity they set (`start` to `closed_end`); rejections
/// are counted over the whole measurement (`start` to `end`).
void ReportRouterLayer(const std::vector<Outcome>& outcomes,
                       const std::vector<double>& lag_ms,
                       const kgrec::serve::RouterStats& start,
                       const kgrec::serve::RouterStats& closed_end,
                       const kgrec::serve::RouterStats& end,
                       const Tracer& tracer, Report* report);

/// Tracing overhead: traced minus untraced end-to-end figures.
void ReportTraceOverhead(const ServingNumbers& untraced,
                         const ServingNumbers& traced, Report* report);

/// Hot-swap check: adopts `restored` (a checkpoint copy of the served
/// model) as the next generation, swaps it in (timed: router.swap_ms_p50)
/// and replays up to 64 sampled requests through the router. Each reply
/// must come from the new generation and carry bitwise the payload the
/// old generation served.
template <typename Traffic>
void SwapAndReplay(
    const Traffic& traffic, kgrec::serve::Router& router,
    std::unique_ptr<kgrec::Recommender> restored,
    const kgrec::RecContext& context,
    const std::vector<Sample<typename Traffic::Response>>& samples,
    Report* report) {
  const uint64_t generation = router.current()->generation() + 1;
  std::shared_ptr<const kgrec::serve::ServeHandle> fresh =
      kgrec::serve::ServeHandle::Adopt(std::move(restored), context,
                                       generation);
  const uint64_t t0 = NowNs();
  const kgrec::Status swapped = router.Swap(fresh);
  report->Set("router.swap_ms_p50", NsToMs(static_cast<double>(NowNs() - t0)));
  Phase& phase = report->AddPhase("swap_replay");
  bool same = swapped.ok();
  for (size_t i = 0; i < samples.size() && i < 64 && swapped.ok(); ++i) {
    ++phase.attempted;
    const auto response =
        traffic.Submit(router, traffic.Make(samples[i].seq)).get();
    if (!response.status.ok()) {
      ++phase.failed;
      same = false;
      continue;
    }
    const bool equal = response.generation == generation &&
                       Traffic::SamePayload(response, samples[i].response);
    report->Compare(equal, "replay after swap, request " +
                               std::to_string(samples[i].seq));
    same = same && equal;
  }
  report->Check("checkpoint copy hot-swapped in serves bitwise the same",
                same, swapped.ok() ? "" : swapped.ToString());
}

/// Top-10 recommend traffic. Request `seq` is a pure function of (seed,
/// seq): a uniform user of `history` (whose users all exist in every
/// served generation) and that user's history as the exclusion list.
class RecommendTraffic {
 public:
  using Request = kgrec::serve::RecommendRequest;
  using Response = kgrec::serve::RecommendResponse;

  RecommendTraffic(const kgrec::InteractionDataset& history, uint64_t seed)
      : history_(history), base_(seed) {}

  Request Make(uint64_t seq) const {
    kgrec::Rng rng = base_.Fork(seq);
    Request request;
    request.user = static_cast<int32_t>(
        rng.UniformInt(static_cast<uint64_t>(history_.num_users())));
    request.k = 10;
    const std::span<const int32_t> items = history_.UserItems(request.user);
    request.exclude.assign(items.begin(), items.end());
    return request;
  }

  static std::future<Response> Submit(kgrec::serve::Router& router,
                                     Request request) {
    return router.SubmitRecommend(std::move(request));
  }

  static bool SamePayload(const Response& a, const Response& b) {
    return BitwiseEqual(a.items, b.items);
  }

 private:
  const kgrec::InteractionDataset& history_;
  const kgrec::Rng base_;
};

/// Replays each sampled recommend response three ways and compares
/// bitwise with what the router served: the serving handle's Recommend
/// (handle layer), its index queried with caller scratch (retrieval
/// layer) and ScoreItems over the returned ids (model layer).
/// `handle_for(generation)` is the handle of that generation, or nullptr
/// when it was not kept (the sample is skipped).
void CheckRecommendSamples(
    const RecommendTraffic& traffic,
    const std::function<const kgrec::serve::ServeHandle*(uint64_t)>& handle_for,
    const std::vector<Sample<kgrec::serve::RecommendResponse>>& samples,
    Tracer& tracer, Report* report);

/// The skeleton both serving workloads share. `Deployment` holds a
/// `router`, the initial `handle` and the `context` the model was fit
/// under; `check_samples(traffic, deployment, samples, tracer, report)`
/// replays sampled requests directly on the handle and compares them.
///
///   1. kSetupReps set-ups (setup_s is their median), keeping the last;
///   2. the untraced measurement -> end-to-end metrics;
///   3. with --trace 1, the same measurement traced -> per-layer metrics
///      and the tracing overhead;
///   4. sampled bitwise checks, then the checkpoint round trip and the
///      hot-swap replay.
template <typename Traffic, typename Deployment, typename SetUp,
          typename MakeTraffic, typename CheckSamples, typename MakePrototype>
bool RunServing(const Options& options, const ServingPlan& plan,
                const SetUp& set_up, const MakeTraffic& make_traffic,
                const CheckSamples& check_samples,
                const MakePrototype& make_prototype, Report* report) {
  using Response = typename Traffic::Response;
  std::vector<SetupTimes> reps(kSetupReps);
  std::unique_ptr<Deployment> deployment;
  for (SetupTimes& times : reps) {
    deployment.reset();  // one deployment in memory at a time
    deployment = set_up(&times);
    if (deployment == nullptr) return false;
  }
  ReportSetup(reps, report);
  const Traffic traffic = make_traffic(*deployment);
  kgrec::serve::Router& router = *deployment->router;

  Tracer untraced(false);
  Tracer traced(true);
  uint64_t seq = 0;
  LoadRun<Response> untraced_run;
  const ServingNumbers numbers =
      MeasureServing(traffic, router, plan, options.seconds, "", &seq,
                     untraced, report, &untraced_run);
  report->Set("throughput_per_s", numbers.throughput_per_s);
  report->Set("p50_ms", numbers.p50_ms);
  report->Set("tail_ms", numbers.tail_ms);

  check_samples(traffic, *deployment, untraced_run.samples, untraced, report);
  if (options.trace) {
    LoadRun<Response> traced_run;
    const ServingNumbers traced_numbers =
        MeasureServing(traffic, router, plan, options.seconds, "traced_",
                       &seq, traced, report, &traced_run);
    // The handle spans come from the direct replays, so they exist
    // before the router's self time is derived from the span tree.
    check_samples(traffic, *deployment, traced_run.samples, traced, report);
    ReportRouterLayer(traced_run.outcomes, traced_run.lag_ms,
                      traced_numbers.start, traced_numbers.closed_end,
                      traced_numbers.end, traced, report);
    ReportTraceOverhead(numbers, traced_numbers, report);
  }

  std::unique_ptr<kgrec::Recommender> restored =
      CheckpointRoundTrip(deployment->handle->model(), deployment->context,
                          make_prototype, options, report);
  if (restored != nullptr) {
    SwapAndReplay(traffic, router, std::move(restored), deployment->context,
                  untraced_run.samples, report);
  }
  if (options.trace) FinishTrace(traced, options, report);
  return true;
}

}  // namespace kgbench

#endif  // KGBENCH_SERVING_H_
