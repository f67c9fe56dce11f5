// stream_update: an EventStream over a 2000 x 1500 movielens-1m-shaped
// world, served by registry-default MF (SwapFromUpdate restores through
// LoadModel, which builds registry defaults). Fixed-size event batches
// fall due on a fixed schedule and an updater thread folds each one
// through Router::SwapFromUpdate, while the generator sends recommend
// reads at a fixed rate. Writes sit beside reads: Save/Load cloning,
// Update, the index rebuild in Adopt and the swap drain are all on the
// path from an event to the first read that reflects it.
#include <algorithm>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "core/registry.h"
#include "data/event_stream.h"
#include "data/presets.h"
#include "serving.h"

namespace kgbench {
namespace {

using kgrec::serve::RecommendResponse;
using kgrec::serve::Router;
using kgrec::serve::ServeHandle;

constexpr size_t kBatchEvents = 100;
/// Router pool. One worker serves the read rate several times over; with
/// the generator and the updater, three threads run at once, leaving a
/// core of the 4-core reference box for the rest of the host.
constexpr size_t kWorkers = 1;
/// Reads: open loop, fixed rate. Every 32nd read is compared with a
/// direct call when its generation is one of the kept ones.
constexpr ServingPlan kReads{.window = 0, .rate = 4000.0, .sample_every = 32};
/// Every kKeepEvery-th generation's handle is kept alive for the sampled
/// read comparison.
constexpr uint64_t kKeepEvery = 8;
/// The last batch falls due this long before the reads stop, so every
/// fold is seen by some read.
constexpr double kTailSeconds = 0.5;
/// Freshness figures are the median over windows of this length (about
/// 30 folds each, by due time) of each window's percentile, so a burst
/// of host stalls moves one window, not the run's figure.
constexpr double kFreshnessWindowS = 2.0;

constexpr const char* kModel = "MF";

/// The world is the same for every run; --seed drives the interleaving of
/// the stream's events (so every run folds the same events in a
/// different order) and the read traffic.
kgrec::EventStreamConfig StreamConfig(uint64_t seed) {
  kgrec::EventStreamConfig config;
  config.world = kgrec::GetPreset("movielens-1m").config;
  config.world.num_users = 2000;
  config.world.num_items = 1500;
  config.stream_seed = seed;
  return config;
}

/// A served stream. `prev` is the world the live model was last fit or
/// updated under (SwapFromUpdate's restore context); `live` is `prev`
/// plus the batch being folded.
struct Deployment {
  std::unique_ptr<kgrec::EventStream> stream;
  kgrec::InteractionDataset base_train;  // read exclusions
  kgrec::InteractionDataset prev_train, live_train;
  kgrec::KnowledgeGraph prev_kg, live_kg;
  kgrec::RecContext prev, live;
  std::shared_ptr<const ServeHandle> handle;
  std::unique_ptr<Router> router;
};

std::unique_ptr<Deployment> SetUp(uint64_t seed, SetupTimes* times) {
  const uint64_t t0 = NowNs();
  auto d = std::make_unique<Deployment>();
  d->stream = std::make_unique<kgrec::EventStream>(StreamConfig(seed));
  d->base_train = d->stream->BaseInteractions();
  d->prev_train = d->base_train;
  d->live_train = d->base_train;
  d->prev_kg = d->stream->BaseItemKg();
  d->live_kg = d->prev_kg;
  d->prev = kgrec::RecContext{&d->prev_train, &d->prev_kg, nullptr, 17};
  d->live = kgrec::RecContext{&d->live_train, &d->live_kg, nullptr, 17};
  const uint64_t t1 = NowNs();
  std::unique_ptr<kgrec::Recommender> model = kgrec::MakeRecommender(kModel);
  if (model == nullptr) return nullptr;
  model->Fit(d->prev);
  const uint64_t t2 = NowNs();
  d->handle = ServeHandle::Adopt(std::move(model), d->prev, 1);
  const uint64_t t3 = NowNs();
  kgrec::serve::RouterConfig config;
  config.num_threads = kWorkers;
  d->router = std::make_unique<Router>(config, d->handle);
  times->world_s = static_cast<double>(t1 - t0) / 1e9;
  times->fit_s = static_cast<double>(t2 - t1) / 1e9;
  times->adopt_ms = NsToMs(static_cast<double>(t3 - t2));
  times->total_s = static_cast<double>(NowNs() - t0) / 1e9;
  return d;
}

/// What the updater saw for one batch.
struct Fold {
  uint64_t due_ns = 0;
  size_t events = 0;
  uint64_t generation = 0;  // installed by this fold
  double apply_ms = 0.0;
  double fold_s = 0.0;  // Router::SwapFromUpdate
  bool ok = false;
};

/// The updater thread's body: folds every batch of the stream through
/// Router::SwapFromUpdate, batch b due at start_ns + b * period_ns. The
/// fold span runs from the batch's due time to the swap's return, with
/// the world update and the SwapFromUpdate call as its children. Keeps
/// every kKeepEvery-th generation's handle in `kept`.
void Update(Deployment& d, uint64_t start_ns, double period_ns,
            Tracer& tracer, std::vector<Fold>* folds,
            std::map<uint64_t, std::shared_ptr<const ServeHandle>>* kept) {
  const size_t total = d.stream->size();
  const size_t batches = (total + kBatchEvents - 1) / kBatchEvents;
  for (size_t b = 0; b < batches; ++b) {
    Fold fold;
    fold.due_ns =
        start_ns + static_cast<uint64_t>(static_cast<double>(b) * period_ns);
    const size_t begin = b * kBatchEvents;
    const size_t end = std::min(total, begin + kBatchEvents);
    const kgrec::EventBatch batch = d.stream->Batch(begin, end);
    fold.events = batch.size();
    WaitUntil(fold.due_ns);
    uint64_t t0 = NowNs();
    d.stream->ApplyBatch(batch, &d.live_train, &d.live_kg);
    uint64_t t1 = NowNs();
    fold.apply_ms = NsToMs(static_cast<double>(t1 - t0));
    const uint64_t request = b + 1;
    const uint64_t root =
        tracer.Record("fold", fold.due_ns, fold.due_ns, 0, request);
    tracer.Record("data.apply_batch", t0, t1, root, request);
    t0 = NowNs();
    const kgrec::Status status =
        d.router->SwapFromUpdate(d.prev, d.live, batch);
    t1 = NowNs();
    tracer.Record("router.swap_from_update", t0, t1, root, request);
    tracer.End(root, t1);
    fold.fold_s = static_cast<double>(t1 - t0) / 1e9;
    fold.ok = status.ok();
    if (!fold.ok) {
      std::fprintf(stderr, "fold %zu failed: %s\n", b,
                   status.ToString().c_str());
      folds->push_back(fold);
      return;  // the worlds no longer match the served model
    }
    d.stream->ApplyBatch(batch, &d.prev_train, &d.prev_kg);
    const std::shared_ptr<const ServeHandle> current = d.router->current();
    fold.generation = current->generation();
    if (fold.generation % kKeepEvery == 0 || b + 1 == batches) {
      (*kept)[fold.generation] = current;
    }
    folds->push_back(fold);
  }
}

/// Figures of one stream measurement.
struct StreamNumbers {
  double fold_events_per_s = 0.0;
  double freshness_p50_ms = 0.0;
  double freshness_p90_ms = 0.0;
};

/// One stream measurement on a fresh deployment: reads at kReads.rate
/// for warm-up + `seconds` while the updater folds the whole stream over
/// the measured window. Checks sampled reads against the kept
/// generations and reports freshness per batch.
StreamNumbers MeasureStream(Deployment& d, const Options& options,
                            const std::string& label, Tracer& tracer,
                            Report* report) {
  const RecommendTraffic traffic(d.base_train, options.seed);
  const double warmup_seconds = std::min(0.5, 0.1 * options.seconds);
  const uint64_t start_ns = NowNs() + 1'000'000;
  const uint64_t folds_start =
      start_ns + static_cast<uint64_t>(warmup_seconds * 1e9);
  const size_t batches = (d.stream->size() + kBatchEvents - 1) / kBatchEvents;
  const double period_ns =
      std::max(0.0, options.seconds - kTailSeconds) * 1e9 /
      static_cast<double>(std::max<size_t>(1, batches));

  std::map<uint64_t, std::shared_ptr<const ServeHandle>> kept;
  kept[d.handle->generation()] = d.handle;
  std::vector<Fold> folds;
  const kgrec::serve::RouterStats before = d.router->Stats();
  std::jthread updater(
      [&] { Update(d, folds_start, period_ns, tracer, &folds, &kept); });
  Phase& warmup = report->AddPhase(label + "read_warmup");
  Phase& reads = report->AddPhase(label + "reads");
  uint64_t seq = 0;
  LoadRun<RecommendResponse> run;
  run.keep_outcomes = true;  // freshness reads every response's generation
  const LatencyWindows latency =
      OpenLoop(traffic, *d.router, kReads, start_ns, warmup_seconds,
               options.seconds, &seq, tracer, warmup, reads, &run);
  updater.join();
  const kgrec::serve::RouterStats after = d.router->Stats();

  Phase& fold_phase = report->AddPhase(label + "folds");
  std::vector<double> apply_ms, fold_rates;
  for (const Fold& f : folds) {
    ++fold_phase.attempted;
    if (!f.ok) ++fold_phase.failed;
    if (f.ok && f.fold_s > 0.0) {
      fold_rates.push_back(static_cast<double>(f.events) / f.fold_s);
    }
    apply_ms.push_back(f.apply_ms);
  }
  fold_phase.attempted += batches - folds.size();  // never reached
  fold_phase.failed += batches - folds.size();

  // Freshness of batch b: from its due time to the first read completed
  // by a generation that includes it (its own or a later one).
  std::map<uint64_t, uint64_t> first_completed;  // generation -> ns
  for (const Outcome& o : run.outcomes) {
    if (!o.ok) continue;
    auto [it, inserted] = first_completed.emplace(o.generation, o.completed_ns);
    if (!inserted) it->second = std::min(it->second, o.completed_ns);
  }
  LatencyWindows freshness_ms(std::max<size_t>(
      1, static_cast<size_t>(options.seconds / kFreshnessWindowS)));
  uint64_t unseen = 0;
  for (const Fold& f : folds) {
    if (!f.ok) continue;
    uint64_t first = std::numeric_limits<uint64_t>::max();
    for (auto it = first_completed.lower_bound(f.generation);
         it != first_completed.end(); ++it) {
      first = std::min(first, it->second);
    }
    if (first == std::numeric_limits<uint64_t>::max()) {
      ++unseen;
      continue;
    }
    const auto w = static_cast<size_t>(
        static_cast<double>(f.due_ns - folds_start) /
        (kFreshnessWindowS * 1e9));
    freshness_ms[std::min(w, freshness_ms.size() - 1)].push_back(
        NsToMs(static_cast<double>(first - f.due_ns)));
  }
  report->Check(label + "every fold is seen by a read", unseen == 0,
                std::to_string(unseen) + " unseen");

  CheckRecommendSamples(
      traffic,
      [&](uint64_t generation) -> const ServeHandle* {
        auto it = kept.find(generation);
        return it == kept.end() ? nullptr : it->second.get();
      },
      run.samples, tracer, report);

  if (tracer.enabled()) {
    // Reads only: no closed loop, so the counters span the whole run.
    ReportRouterLayer(run.outcomes, run.lag_ms, before, after, after, tracer,
                      report);
    report->Set("data.apply_batch_ms_p50", Median(apply_ms));
  }
  std::printf("%sreads: p50 %.3f ms  p99 %.3f ms (median over %zu windows)\n",
              label.c_str(), WindowedPercentile(latency, 0.5),
              WindowedPercentile(latency, 0.99), latency.size());

  // The batches are the writes whose latency the stream reports.
  StreamNumbers numbers;
  numbers.fold_events_per_s = Median(fold_rates);
  numbers.freshness_p50_ms = WindowedPercentile(freshness_ms, 0.5);
  numbers.freshness_p90_ms = WindowedPercentile(freshness_ms, 0.9);
  std::printf("%sfreshness over %zu folds: p50 %.3f ms  p90 %.3f ms "
              "(median over %zu windows)\n",
              label.c_str(), folds.size() - unseen, numbers.freshness_p50_ms,
              numbers.freshness_p90_ms, freshness_ms.size());
  return numbers;
}

/// Bitwise comparison of two models' stored tensors; counts the floats.
bool SameModel(const kgrec::Recommender& a, const kgrec::Recommender& b,
               const Options& options, size_t* floats, std::string* why) {
  std::vector<kgrec::NamedTensor> want, got;
  kgrec::Status status =
      StoredTensors(a, options.work_dir + "/reference.kgrc", &want);
  if (status.ok()) {
    status = StoredTensors(b, options.work_dir + "/served.kgrc", &got);
  }
  *floats = 0;
  for (const kgrec::NamedTensor& t : got) *floats += t.data.size();
  *why = status.ok() ? std::to_string(*floats) + " floats" : status.ToString();
  return status.ok() && SameTensors(want, got);
}

/// Checkpoint clones of the final reference model made per run; the
/// clone-path figures are their medians.
constexpr int kCloneReps = 3;

/// The served model after the whole stream must be bitwise the
/// reference: a fresh Fit on the base world, then Update over the same
/// batches in order, each against the world after it, with no router,
/// no checkpoint clone and no concurrent reads.
///
/// The replay also gives the fold's layers, timed around the same public
/// calls SwapFromUpdate makes but off the measured fold path: each
/// Update (model.update_ms_p50), then kCloneReps checkpoint clones of the
/// reference, each saved (serialize.save_ms_p50), restored through
/// LoadModel (serialize.load_ms_p50), adopted as the next generation
/// (handle.adopt_ms) and swapped into the router (router.swap_ms_p50).
/// The reads have stopped by then, so the swap's drain waits for nothing.
///
/// With `probe_one_batch`, also reports (without failing the run)
/// whether a single Update with every event against the final world
/// gives the same model. It does not for MF: the fold draws negatives
/// from the post-batch world, so a later interaction of the same user
/// changes which negatives an earlier event may draw.
void CheckFinalModel(const Deployment& d, const Options& options,
                     const std::string& label, bool probe_one_batch,
                     Tracer& tracer, Report* report) {
  kgrec::InteractionDataset train = d.stream->BaseInteractions();
  kgrec::KnowledgeGraph kg = d.stream->BaseItemKg();
  const kgrec::RecContext base{&train, &kg, nullptr, 17};
  std::unique_ptr<kgrec::Recommender> reference =
      kgrec::MakeRecommender(kModel);
  reference->Fit(base);
  std::unique_ptr<kgrec::Recommender> one_batch;
  const std::string path = options.work_dir + "/base.kgrc";
  kgrec::Status status;
  if (probe_one_batch) {
    status = reference->Save(path);
    if (status.ok()) status = kgrec::LoadModel(base, path, &one_batch);
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
  const size_t total = d.stream->size();
  std::vector<double> update_ms;
  for (size_t begin = 0; begin < total && status.ok(); begin += kBatchEvents) {
    const kgrec::EventBatch batch =
        d.stream->Batch(begin, std::min(total, begin + kBatchEvents));
    d.stream->ApplyBatch(batch, &train, &kg);
    const uint64_t t0 = NowNs();
    status = reference->Update(base, batch);
    const uint64_t t1 = NowNs();
    tracer.Record("model.update", t0, t1, 0, begin / kBatchEvents + 1);
    update_ms.push_back(NsToMs(static_cast<double>(t1 - t0)));
  }
  report->Set("model.update_ms_p50", Median(update_ms));
  size_t floats = 0;
  std::string why = status.ToString();
  const bool same =
      status.ok() &&
      SameModel(*reference, d.router->current()->model(), options, &floats,
                &why);
  report->Check(label + "final model == Fit(base) + Update per batch, bitwise",
                same, why);
  report->Set("trainer.param_floats", static_cast<double>(floats));

  // The clone path. The handles serve d.live (the final world, like
  // `base` now), which outlives the router.
  std::vector<double> save_ms, load_ms, adopt_ms, swap_ms;
  const std::string clone_path = options.work_dir + "/clone.kgrc";
  for (int rep = 0; rep < kCloneReps && same && status.ok(); ++rep) {
    uint64_t t0 = NowNs();
    const uint64_t root = tracer.Record("clone", t0, t0);
    status = reference->Save(clone_path);
    uint64_t t1 = NowNs();
    tracer.Record("serialize.save", t0, t1, root);
    save_ms.push_back(NsToMs(static_cast<double>(t1 - t0)));
    std::error_code ec;
    std::unique_ptr<kgrec::Recommender> clone;
    if (status.ok()) {
      report->Set("serialize.checkpoint_bytes",
                  static_cast<double>(
                      std::filesystem::file_size(clone_path, ec)));
      t0 = NowNs();
      status = kgrec::LoadModel(d.live, clone_path, &clone);
      t1 = NowNs();
      tracer.Record("serialize.load", t0, t1, root);
      load_ms.push_back(NsToMs(static_cast<double>(t1 - t0)));
    }
    std::filesystem::remove(clone_path, ec);
    if (!status.ok()) break;
    t0 = NowNs();
    std::shared_ptr<const ServeHandle> fresh = ServeHandle::Adopt(
        std::move(clone), d.live, d.router->current()->generation() + 1);
    t1 = NowNs();
    tracer.Record("handle.adopt", t0, t1, root);
    adopt_ms.push_back(NsToMs(static_cast<double>(t1 - t0)));
    t0 = NowNs();
    status = d.router->Swap(std::move(fresh));
    t1 = NowNs();
    tracer.Record("router.swap", t0, t1, root);
    tracer.End(root, t1);
    swap_ms.push_back(NsToMs(static_cast<double>(t1 - t0)));
  }
  report->Check(label + "reference checkpoint clone adopted and swapped in",
                status.ok(), status.ok() ? "" : status.ToString());
  report->Set("serialize.save_ms_p50", Median(save_ms));
  report->Set("serialize.load_ms_p50", Median(load_ms));
  report->Set("handle.adopt_ms", Median(adopt_ms));
  report->Set("router.swap_ms_p50", Median(swap_ms));
  if (one_batch != nullptr &&
      one_batch->Update(base, d.stream->Batch(0, total)).ok()) {
    const bool equal =
        SameModel(*one_batch, *reference, options, &floats, &why);
    std::printf("note: Fit(base) + one Update(all events) %s the per-batch "
                "fold (%s)\n",
                equal ? "equals" : "differs bitwise from", why.c_str());
  }
}

}  // namespace

bool RunStreamUpdate(const Options& options, Report* report) {
  std::vector<SetupTimes> reps(kSetupReps);
  std::unique_ptr<Deployment> d;
  for (SetupTimes& times : reps) {
    d.reset();
    d = SetUp(options.seed, &times);
    if (d == nullptr) return false;
  }
  ReportSetup(reps, report);

  Tracer untraced(false);
  const StreamNumbers numbers =
      MeasureStream(*d, options, "", untraced, report);
  report->Set("throughput_per_s", numbers.fold_events_per_s);
  report->Set("p50_ms", numbers.freshness_p50_ms);
  report->Set("tail_ms", numbers.freshness_p90_ms);
  CheckFinalModel(*d, options, "", false, untraced, report);
  if (!options.trace) return true;

  // The stream is consumed: the traced measurement replays it on a
  // fresh deployment (not counted in setup_s).
  SetupTimes unused;
  d.reset();
  d = SetUp(options.seed, &unused);
  Tracer traced(true);
  const StreamNumbers traced_numbers =
      MeasureStream(*d, options, "traced_", traced, report);
  CheckFinalModel(*d, options, "traced_", true, traced, report);
  report->Set("trace.overhead_p50_ms",
              traced_numbers.freshness_p50_ms - numbers.freshness_p50_ms);
  report->Set("trace.overhead_throughput_frac",
              (numbers.fold_events_per_s - traced_numbers.fold_events_per_s) /
                  numbers.fold_events_per_s);
  FinishTrace(traced, options, report);
  return true;
}

}  // namespace kgbench
