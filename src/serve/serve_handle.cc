#include "serve/serve_handle.h"

#include "core/check.h"
#include "core/registry.h"
#include "math/topk.h"
#include "nn/tensor.h"
#include "retrieval/factors.h"

namespace kgrec::serve {

ServeHandle::ServeHandle(std::unique_ptr<const Recommender> model,
                         const RecContext& context, uint64_t generation)
    : model_(std::move(model)),
      model_name_(model_->name()),
      num_users_(context.train != nullptr ? context.train->num_users() : 0),
      num_items_(context.train != nullptr ? context.train->num_items() : 0),
      generation_(generation) {}

Status ServeHandle::BuildRetrieval(const RetrievalSpec& spec) {
  spec_ = spec;
  factors_ = AsFactorizable(*model_);
  const bool sq8 = spec.scan.precision == retrieval::ScanPrecision::kSq8;
  switch (spec.mode) {
    case RetrievalSpec::Mode::kExhaustive:
      retrieval_mode_ = "exhaustive";
      return Status::OK();
    case RetrievalSpec::Mode::kAuto:
      if (factors_ == nullptr) {
        retrieval_mode_ = "exhaustive";
        return Status::OK();
      }
      [[fallthrough]];
    case RetrievalSpec::Mode::kExact:
    case RetrievalSpec::Mode::kIvf: {
      const bool ivf = spec.mode == RetrievalSpec::Mode::kIvf;
      if (factors_ == nullptr) {
        return Status::FailedPrecondition(
            std::string("RetrievalSpec::") + (ivf ? "kIvf" : "kExact") +
            ": model '" + model_name_ + "' does not export DotProductFactors");
      }
      // The index borrows *model_'s item rows (declared before index_).
      const retrieval::ItemFactors items = factors_->item_factors();
      if (num_items_ > 0) {
        KGREC_CHECK_EQ(items.items.rows, static_cast<size_t>(num_items_));
      }
      if (ivf) {
        index_ = std::make_unique<retrieval::IvfIndex>(items, spec.ivf,
                                                       spec.scan);
      } else {
        index_ = std::make_unique<retrieval::BruteForceIndex>(items, spec.scan);
      }
      retrieval_mode_ = std::string(ivf ? "ivf-index" : "exact-index") +
                        (sq8 ? "+sq8" : "");
      return Status::OK();
    }
    case RetrievalSpec::Mode::kTwoStage: {
      if (spec.candidate_model == nullptr) {
        return Status::InvalidArgument(
            "RetrievalSpec::kTwoStage: no candidate model");
      }
      std::unique_ptr<const retrieval::TwoStageRetriever> two_stage;
      KGREC_RETURN_IF_ERROR(retrieval::TwoStageRetriever::Create(
          spec.candidate_model, spec.two_stage, &two_stage));
      // The candidate model answers for every user this handle admits
      // and retrieves only ids the served model can score. A swap into
      // a grown world fails here, because the candidate is carried over
      // unchanged, and the old generation keeps serving.
      const retrieval::FactorTable candidate =
          AsFactorizable(*spec.candidate_model)->factor_table();
      if (candidate.users.rows < static_cast<size_t>(num_users_) ||
          candidate.items.rows != static_cast<size_t>(num_items_)) {
        return Status::FailedPrecondition(
            "RetrievalSpec::kTwoStage: candidate model '" +
            spec.candidate_model->name() + "' covers " +
            std::to_string(candidate.users.rows) + " users x " +
            std::to_string(candidate.items.rows) + " items; handle '" +
            model_name_ + "' serves " + std::to_string(num_users_) + " x " +
            std::to_string(num_items_));
      }
      two_stage_ = std::move(two_stage);
      retrieval_mode_ =
          spec.two_stage.scan.precision == retrieval::ScanPrecision::kSq8
              ? "two-stage+sq8"
              : "two-stage";
      return Status::OK();
    }
  }
  return Status::InvalidArgument("RetrievalSpec: unknown mode");
}

Status ServeHandle::Open(const RecContext& context, const std::string& path,
                         uint64_t generation,
                         std::shared_ptr<const ServeHandle>* out) {
  return Open(context, path, generation, RetrievalSpec{}, out);
}

Status ServeHandle::Open(const RecContext& context, const std::string& path,
                         uint64_t generation, const RetrievalSpec& spec,
                         std::shared_ptr<const ServeHandle>* out) {
  std::unique_ptr<Recommender> model;
  KGREC_RETURN_IF_ERROR(LoadModel(context, path, &model));
  // std::shared_ptr cannot reach the private constructor through
  // make_shared; the extra allocation is once per checkpoint load.
  std::shared_ptr<ServeHandle> handle(
      new ServeHandle(std::move(model), context, generation));
  KGREC_RETURN_IF_ERROR(handle->BuildRetrieval(spec));
  *out = std::move(handle);
  return Status::OK();
}

Status ServeHandle::Open(const RecContext& context, const std::string& path,
                         std::unique_ptr<Recommender> prototype,
                         uint64_t generation,
                         std::shared_ptr<const ServeHandle>* out) {
  KGREC_CHECK(prototype != nullptr);
  KGREC_RETURN_IF_ERROR(prototype->Load(context, path));
  std::shared_ptr<ServeHandle> handle(
      new ServeHandle(std::move(prototype), context, generation));
  KGREC_RETURN_IF_ERROR(handle->BuildRetrieval(RetrievalSpec{}));
  *out = std::move(handle);
  return Status::OK();
}

std::shared_ptr<const ServeHandle> ServeHandle::Adopt(
    std::unique_ptr<const Recommender> model, const RecContext& context,
    uint64_t generation) {
  KGREC_CHECK(model != nullptr);
  std::shared_ptr<ServeHandle> handle(
      new ServeHandle(std::move(model), context, generation));
  // kAuto cannot fail: it only indexes models that export factors.
  const Status status = handle->BuildRetrieval(RetrievalSpec{});
  KGREC_CHECK(status.ok());
  return handle;
}

Status ServeHandle::Adopt(std::unique_ptr<const Recommender> model,
                          const RecContext& context, uint64_t generation,
                          const RetrievalSpec& spec,
                          std::shared_ptr<const ServeHandle>* out) {
  KGREC_CHECK(model != nullptr);
  std::shared_ptr<ServeHandle> handle(
      new ServeHandle(std::move(model), context, generation));
  KGREC_RETURN_IF_ERROR(handle->BuildRetrieval(spec));
  *out = std::move(handle);
  return Status::OK();
}

Status ServeHandle::CheckIds(int32_t user,
                             std::span<const int32_t> items) const {
  if (user < 0 || user >= num_users_) {
    return Status::InvalidArgument(
        "user " + std::to_string(user) + " outside [0, " +
        std::to_string(num_users_) + ") of handle '" + model_name_ + "'");
  }
  for (int32_t item : items) {
    if (item < 0 || item >= num_items_) {
      return Status::InvalidArgument(
          "item " + std::to_string(item) + " outside [0, " +
          std::to_string(num_items_) + ") of handle '" + model_name_ + "'");
    }
  }
  return Status::OK();
}

float ServeHandle::Score(int32_t user, int32_t item) const {
  const int32_t items[] = {item};
  KGREC_CHECK(CheckIds(user, items).ok());
  nn::NoGradScope no_grad;
  return model_->Score(user, item);
}

Status ServeHandle::Score(int32_t user, int32_t item, float* out) const {
  const int32_t items[] = {item};
  KGREC_RETURN_IF_ERROR(CheckIds(user, items));
  nn::NoGradScope no_grad;
  *out = model_->Score(user, item);
  return Status::OK();
}

std::vector<float> ServeHandle::ScoreItems(
    int32_t user, std::span<const int32_t> items) const {
  KGREC_CHECK(CheckIds(user, items).ok());
  nn::NoGradScope no_grad;
  return model_->ScoreItems(user, items);
}

Status ServeHandle::ScoreItems(int32_t user, std::span<const int32_t> items,
                               std::vector<float>* out) const {
  KGREC_RETURN_IF_ERROR(CheckIds(user, items));
  nn::NoGradScope no_grad;
  *out = model_->ScoreItems(user, items);
  return Status::OK();
}

std::vector<std::pair<int32_t, float>> ServeHandle::Recommend(
    int32_t user, size_t k, std::span<const int32_t> exclude) const {
  KGREC_CHECK(CheckIds(user).ok());
  nn::NoGradScope no_grad;
  const std::vector<int32_t> sorted_exclude =
      retrieval::SanitizeExclude(exclude, num_items_);

  if (two_stage_ != nullptr) {
    return two_stage_->Recommend(*model_, user, k, sorted_exclude);
  }
  if (index_ != nullptr) {
    // One scratch per serving thread: block buffers, heaps, quantized
    // query and the FillUserQuery staging vector all reach steady-state
    // capacity after the first requests, so per-request index traffic
    // stops allocating (the block-scratch hoist; see retrieval/index.h
    // SearchScratch).
    static thread_local retrieval::SearchScratch scratch;
    scratch.user_query.resize(factors_->factor_dim());
    factors_->FillUserQuery(user, scratch.user_query);
    std::vector<std::pair<int32_t, float>> out;
    index_->QueryInto(scratch.user_query, k, sorted_exclude, scratch, &out);
    return out;
  }

  // Exhaustive fallback for non-factorizable models: one ScoreAll, then
  // a streaming bounded top-K that *skips* excluded ids. The old -inf
  // sentinel overwrite is gone — it conflated "excluded" with "scored
  // -inf", returning excluded items whenever a model legitimately
  // produced -inf and dropping legitimate -inf items near a short
  // catalog's tail.
  const std::vector<float> scores = model_->ScoreAll(user, num_items_);
  BoundedTopK top(k);
  size_t e = 0;
  for (int32_t item = 0; item < num_items_; ++item) {
    while (e < sorted_exclude.size() && sorted_exclude[e] < item) ++e;
    if (e < sorted_exclude.size() && sorted_exclude[e] == item) continue;
    top.Push(item, scores[item]);
  }
  return top.TakeSorted();
}

}  // namespace kgrec::serve
