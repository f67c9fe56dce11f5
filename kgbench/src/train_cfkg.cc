// train_cfkg: fits CfkgRecommender with num_threads = 4 on a 2000 x 1500
// movielens-1m-shaped world, again and again for the measured window.
// The nn/kge sharded trainer is the measured work; the serving layers
// are idle. After the fits, the research loop's evaluation step ranks
// each user's catalog (minus training items) with ScoreItems for the
// held-out AUC check.
#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "data/interactions.h"
#include "data/presets.h"
#include "data/synthetic.h"
#include "embed/cfkg.h"
#include "math/rng.h"
#include "harness.h"

namespace kgbench {
namespace {

constexpr size_t kThreads = 4;
/// Epochs per fit: short enough that a run holds a dozen or more fits,
/// so the reported figures are a median and a p90 over fits.
constexpr int kEpochs = 3;
/// The held-out AUC the fitted model must reach: a 3-epoch fit of this
/// world measures ~0.70; an untrained model scores 0.5.
constexpr double kAucFloor = 0.6;

kgrec::CfkgConfig ModelConfig(size_t threads) {
  kgrec::CfkgConfig config;
  config.epochs = kEpochs;
  config.num_threads = threads;
  return config;
}

/// The world and split are the same for every run; --seed is the
/// training seed (initialization and negative draws).
struct Deployment {
  kgrec::SyntheticWorld world;
  kgrec::DataSplit split;
  kgrec::UserItemGraph graph;
  kgrec::RecContext context;
};

std::unique_ptr<Deployment> SetUp(uint64_t seed, SetupTimes* times) {
  const uint64_t t0 = NowNs();
  auto d = std::make_unique<Deployment>();
  kgrec::WorldConfig config = kgrec::GetPreset("movielens-1m").config;
  config.num_users = 2000;
  config.num_items = 1500;
  d->world = kgrec::GenerateWorld(config);
  kgrec::Rng split_rng(5);
  d->split = kgrec::RatioSplit(d->world.interactions, 0.2, split_rng);
  d->graph = kgrec::BuildUserItemGraph(d->world, d->split.train);
  d->context = kgrec::RecContext{&d->split.train, &d->world.item_kg,
                                 &d->graph, seed};
  times->world_s = static_cast<double>(NowNs() - t0) / 1e9;
  times->total_s = times->world_s;
  return d;
}

struct FitResult {
  std::unique_ptr<kgrec::CfkgRecommender> model;
  double seconds = 0.0;
};

FitResult Fit(const Deployment& d, size_t threads, Tracer& tracer,
              uint64_t request) {
  FitResult result;
  result.model = std::make_unique<kgrec::CfkgRecommender>(ModelConfig(threads));
  const uint64_t t0 = NowNs();
  result.model->Fit(d.context);
  const uint64_t t1 = NowNs();
  tracer.Record(threads == 1 ? "model.fit_1t" : "model.fit", t0, t1, 0,
                request);
  result.seconds = static_cast<double>(t1 - t0) / 1e9;
  return result;
}

/// Fits with `threads` until `seconds` have passed (at least two fits);
/// every fit's stored parameters must be bitwise the first's. Appends
/// each fit's seconds to `fit_s` and keeps the last model.
void FitRepeatedly(const Deployment& d, size_t threads, double seconds,
                   const std::string& label, const Options& options,
                   Tracer& tracer, Report* report, FitResult* last,
                   std::vector<double>* fit_s) {
  Phase& phase = report->AddPhase(label + "fits");
  std::vector<kgrec::NamedTensor> first, stored;
  const uint64_t stop = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  do {
    FitResult fit = Fit(d, threads, tracer, phase.attempted + 1);
    ++phase.attempted;
    const kgrec::Status status =
        StoredTensors(*fit.model, options.work_dir + "/fit.kgrc", &stored);
    if (first.empty()) first = stored;
    if (!status.ok() || !SameTensors(stored, first)) {
      ++phase.failed;
      report->Compare(false, label + "fit " + std::to_string(phase.attempted) +
                                 " differs from the first fit");
    }
    fit_s->push_back(fit.seconds);
    *last = std::move(fit);
  } while (NowNs() < stop || fit_s->size() < 2);
}

struct EvalResult {
  double auc = 0.0;
  std::vector<double> per_candidate_us;  // one ScoreItems call per user
};


/// The evaluation step: for every user with held-out items, one
/// ScoreItems call over the catalog minus the user's training items;
/// AUC of held-out items against the rest, averaged over users.
EvalResult Evaluate(const kgrec::Recommender& model, const Deployment& d,
                    Tracer& tracer, Phase& phase) {
  const kgrec::InteractionDataset& train = d.split.train;
  const kgrec::InteractionDataset& test = d.split.test;
  EvalResult result;
  double auc_sum = 0.0;
  size_t users = 0;
  std::vector<int32_t> candidates;
  std::vector<float> negatives;
  std::vector<char> trained(static_cast<size_t>(train.num_items()));
  for (int32_t u = 0; u < test.num_users(); ++u) {
    const std::span<const int32_t> held_out = test.UserItems(u);
    if (held_out.empty()) continue;
    std::fill(trained.begin(), trained.end(), 0);
    for (int32_t item : train.UserItems(u)) {
      trained[static_cast<size_t>(item)] = 1;
    }
    candidates.clear();
    for (int32_t item = 0; item < train.num_items(); ++item) {
      if (!trained[static_cast<size_t>(item)]) candidates.push_back(item);
    }
    ++phase.attempted;
    const uint64_t t0 = NowNs();
    const std::vector<float> scores = model.ScoreItems(u, candidates);
    const uint64_t t1 = NowNs();
    tracer.Record("model.score_items", t0, t1, 0, static_cast<uint64_t>(u) + 1);
    result.per_candidate_us.push_back(NsToUs(static_cast<double>(t1 - t0)) /
                                      static_cast<double>(candidates.size()));
    bool finite = scores.size() == candidates.size();
    negatives.clear();
    std::vector<float> positives;
    for (size_t i = 0; finite && i < candidates.size(); ++i) {
      finite = std::isfinite(scores[i]);
      if (std::find(held_out.begin(), held_out.end(), candidates[i]) !=
          held_out.end()) {
        positives.push_back(scores[i]);
      } else {
        negatives.push_back(scores[i]);
      }
    }
    if (!finite || positives.empty() || negatives.empty()) {
      ++phase.failed;
      continue;
    }
    std::sort(negatives.begin(), negatives.end());
    double wins = 0.0;
    for (float p : positives) {
      const auto lo = std::lower_bound(negatives.begin(), negatives.end(), p);
      const auto hi = std::upper_bound(lo, negatives.end(), p);
      wins += static_cast<double>(lo - negatives.begin()) +
              0.5 * static_cast<double>(hi - lo);
    }
    auc_sum += wins / (static_cast<double>(positives.size()) *
                       static_cast<double>(negatives.size()));
    ++users;
  }
  result.auc = users > 0 ? auc_sum / static_cast<double>(users) : 0.0;
  return result;
}

}  // namespace

/// Figures of one series of fits: the rate (examples per second of Fit)
/// and the fit latency (time to a trained model).
struct FitFigures {
  double rate = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
};

FitFigures Summarize(const Deployment& d, const std::vector<double>& fit_s) {
  // One epoch visits every triple of the user-item graph once.
  const double examples = static_cast<double>(kEpochs) *
                          static_cast<double>(d.graph.kg.num_triples());
  std::vector<double> rates, fit_ms;
  for (double s : fit_s) {
    rates.push_back(examples / s);
    fit_ms.push_back(s * 1e3);
  }
  return {Median(rates), Percentile(fit_ms, 0.5), Percentile(fit_ms, 0.9)};
}

bool RunTrainCfkg(const Options& options, Report* report) {
  // This set-up takes ~0.2 s, so more repetitions keep its median steady.
  std::vector<SetupTimes> reps(3 * kSetupReps);
  std::unique_ptr<Deployment> d;
  for (SetupTimes& times : reps) {
    d.reset();
    d = SetUp(options.seed, &times);
  }
  ReportSetup(reps, report);

  Tracer untraced(false);
  FitResult last;
  std::vector<double> fit_s;
  FitRepeatedly(*d, kThreads, options.seconds, "", options, untraced, report,
                &last, &fit_s);
  const FitFigures fits = Summarize(*d, fit_s);
  report->Set("throughput_per_s", fits.rate);
  report->Set("p50_ms", fits.p50_ms);
  report->Set("tail_ms", fits.p90_ms);
  report->Set("model.fit_s", Median(fit_s));

  Phase& eval_phase = report->AddPhase("eval_users");
  const EvalResult eval = Evaluate(*last.model, *d, untraced, eval_phase);
  report->Set("model.score_us_per_candidate", Median(eval.per_candidate_us));
  report->Check("held-out AUC >= " + std::to_string(kAucFloor),
                eval.auc >= kAucFloor, "AUC " + std::to_string(eval.auc));

  // The sharded trainer's contract: parameters are bitwise the same at
  // any thread count >= 1.
  FitResult serial = Fit(*d, 1, untraced, 0);
  std::vector<kgrec::NamedTensor> serial_params, threaded_params;
  kgrec::Status status = StoredTensors(
      *serial.model, options.work_dir + "/serial.kgrc", &serial_params);
  if (status.ok()) {
    status = StoredTensors(*last.model, options.work_dir + "/threaded.kgrc",
                           &threaded_params);
  }
  report->Check("1-thread fit == 4-thread fit, bitwise",
                status.ok() && SameTensors(serial_params, threaded_params),
                status.ok() ? "" : status.ToString());

  CheckpointRoundTrip(
      *last.model, d->context,
      [] {
        return std::make_unique<kgrec::CfkgRecommender>(ModelConfig(kThreads));
      },
      options, report);

  if (options.trace) {
    // Half the traced window fits with kThreads, half with one thread;
    // the speedup is the ratio of the two series' medians.
    Tracer traced(true);
    FitResult traced_last, traced_serial;
    std::vector<double> traced_fit_s, serial_fit_s;
    FitRepeatedly(*d, kThreads, options.seconds / 2, "traced_", options,
                  traced, report, &traced_last, &traced_fit_s);
    FitRepeatedly(*d, 1, options.seconds / 2, "traced_serial_", options,
                  traced, report, &traced_serial, &serial_fit_s);
    const FitFigures traced_fits = Summarize(*d, traced_fit_s);
    report->Set("model.fit_s", Median(traced_fit_s));
    Phase& traced_eval_phase = report->AddPhase("traced_eval_users");
    const EvalResult traced_eval =
        Evaluate(*traced_last.model, *d, traced, traced_eval_phase);
    report->Set("model.score_us_per_candidate",
                Median(traced_eval.per_candidate_us));
    report->Set("trainer.speedup_4t",
                Median(serial_fit_s) / Median(traced_fit_s));
    report->Set("trace.overhead_p50_ms", traced_fits.p50_ms - fits.p50_ms);
    report->Set("trace.overhead_throughput_frac",
                (fits.rate - traced_fits.rate) / fits.rate);
    FinishTrace(traced, options, report);
  }
  return true;
}

}  // namespace kgbench
