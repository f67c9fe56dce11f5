// recommend_scan: top-10 SubmitRecommend traffic, excluding each user's
// history, over MF fit on a 100k-user x 50k-item x 1M-fact mega world and
// served through the kAuto exact index. Users are uniform. The float
// scan dominates; per-user coalescing never applies to recommend
// requests, so the router's grouping is idle. BENCHMARK.json leaves it
// out: the scan streams the whole 6.4 MB factor table per request, so
// on a shared host its figures follow the neighbours' memory traffic
// (kgbench/metric_map.json, dropped_workloads).
#include <memory>
#include <utility>
#include <vector>

#include "cf/mf.h"
#include "data/mega.h"
#include "serving.h"

namespace kgbench {
namespace {

using kgrec::serve::RecommendResponse;
using kgrec::serve::Router;
using kgrec::serve::ServeHandle;

// About a third of the closed-loop capacity of three workers on the
// reference box (2400-3700/s as the shared host's load varies), so the
// open loop measures latency below the knee even when the host is busy.
constexpr ServingPlan kPlan{.window = 16, .rate = 1000.0, .sample_every = 32};

// The deployment (world and model) is the same for every run; --seed
// drives the traffic only, so run-to-run differences are the system's.
kgrec::MegaWorldConfig WorldConfig() {
  kgrec::MegaWorldConfig config;
  config.num_users = 100'000;
  config.num_items = 50'000;
  config.num_attr_values = 25'000;
  config.num_facts = 1'000'000;
  return config;
}

// Configured like bench/mega_scale's full tier, at dim 32: large batches
// keep the dense Adagrad step affordable, and no weight decay keeps the
// cold item rows a healthy factor table rather than near-zero noise.
kgrec::MfConfig ModelConfig() {
  kgrec::MfConfig config;
  config.dim = 32;
  config.epochs = 2;
  config.batch_size = 1 << 16;
  config.l2 = 0.0f;
  return config;
}

struct Deployment {
  kgrec::MegaWorld world;
  kgrec::RecContext context;
  std::shared_ptr<const ServeHandle> handle;
  std::unique_ptr<Router> router;
};

std::unique_ptr<Deployment> SetUp(SetupTimes* times) {
  const uint64_t t0 = NowNs();
  auto d = std::make_unique<Deployment>();
  d->world = kgrec::GenerateMegaWorld(WorldConfig());
  d->world.kg.Finalize();
  d->world.kg.ReleaseTriples();
  const uint64_t t1 = NowNs();
  d->context.train = &d->world.interactions;
  d->context.item_kg = &d->world.kg;
  auto model = std::make_unique<kgrec::MfRecommender>(ModelConfig());
  model->Fit(d->context);
  const uint64_t t2 = NowNs();
  d->handle = ServeHandle::Adopt(std::move(model), d->context, 1);
  const uint64_t t3 = NowNs();
  kgrec::serve::RouterConfig config;
  config.num_threads = kServingWorkers;
  d->router = std::make_unique<Router>(config, d->handle);
  times->world_s = static_cast<double>(t1 - t0) / 1e9;
  times->fit_s = static_cast<double>(t2 - t1) / 1e9;
  times->adopt_ms = NsToMs(static_cast<double>(t3 - t2));
  times->total_s = static_cast<double>(NowNs() - t0) / 1e9;
  return d;
}

}  // namespace

bool RunRecommendScan(const Options& options, Report* report) {
  return RunServing<RecommendTraffic, Deployment>(
      options, kPlan,
      SetUp,
      [&](const Deployment& d) {
        return RecommendTraffic(d.world.interactions, options.seed);
      },
      [](const RecommendTraffic& traffic, const Deployment& d,
         const std::vector<Sample<RecommendResponse>>& samples,
         Tracer& tracer, Report* report) {
        CheckRecommendSamples(
            traffic, [&](uint64_t) { return d.handle.get(); }, samples,
            tracer, report);
      },
      [] { return std::make_unique<kgrec::MfRecommender>(ModelConfig()); },
      report);
}

}  // namespace kgbench
