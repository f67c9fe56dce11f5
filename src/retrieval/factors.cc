#include "retrieval/factors.h"

#include <algorithm>

#include "core/check.h"
#include "math/kernels.h"

namespace kgrec::retrieval {

const char* ScoreKernelName(ScoreKernel kernel) {
  switch (kernel) {
    case ScoreKernel::kDot:
      return "dot";
    case ScoreKernel::kNegSquaredL2:
      return "neg-squared-l2";
  }
  return "unknown";
}

float KernelScore(ScoreKernel kernel, const float* query, const float* row,
                  size_t dim) {
  switch (kernel) {
    case ScoreKernel::kDot:
      return kernels::Dot(query, row, dim);
    case ScoreKernel::kNegSquaredL2:
      return -kernels::SquaredDistance(query, row, dim);
  }
  KGREC_CHECK(false);  // unreachable
  return 0.0f;
}

void KernelScoreBatch(ScoreKernel kernel, const float* query,
                      const float* const* rows, size_t count, size_t dim,
                      float* out) {
  switch (kernel) {
    case ScoreKernel::kDot:
      kernels::DotBatch(query, rows, count, dim, out);
      return;
    case ScoreKernel::kNegSquaredL2:
      for (size_t i = 0; i < count; ++i) {
        out[i] = -kernels::SquaredDistance(query, rows[i], dim);
      }
      return;
  }
  KGREC_CHECK(false);  // unreachable
}

std::vector<int32_t> SanitizeExclude(std::span<const int32_t> exclude,
                                     int32_t num_items) {
  std::vector<int32_t> out;
  out.reserve(exclude.size());
  for (int32_t item : exclude) {
    if (item >= 0 && item < num_items) out.push_back(item);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace kgrec::retrieval

namespace kgrec {
namespace {

/// The user's query vector: its stored row when the table has user rows,
/// else FillUserQuery's output staged in `scratch`.
const float* UserQuery(const DotProductFactors& model,
                       const retrieval::FactorTable& table, int32_t user,
                       std::vector<float>& scratch) {
  if (table.users.data != nullptr) return table.users.Row(user);
  scratch.resize(table.items.dim);
  model.FillUserQuery(user, scratch);
  return scratch.data();
}

}  // namespace

retrieval::ItemFactors DotProductFactors::item_factors() const {
  return factor_table();  // sliced to the item side
}

void DotProductFactors::FillUserQuery(int32_t user,
                                      std::span<float> out) const {
  const retrieval::FactorTable table = factor_table();
  KGREC_CHECK(table.users.data != nullptr);
  KGREC_CHECK_EQ(out.size(), table.users.dim);
  KGREC_CHECK_LT(static_cast<size_t>(user), table.users.rows);
  std::copy_n(table.users.Row(user), table.users.dim, out.data());
}

float DotProductFactors::Score(int32_t user, int32_t item) const {
  const retrieval::FactorTable table = factor_table();
  std::vector<float> scratch;
  return retrieval::KernelScore(table.kernel,
                                UserQuery(*this, table, user, scratch),
                                table.items.Row(item), table.items.dim);
}

std::vector<float> DotProductFactors::ScoreItems(
    int32_t user, std::span<const int32_t> items) const {
  const retrieval::FactorTable table = factor_table();
  std::vector<float> scratch;
  const float* query = UserQuery(*this, table, user, scratch);
  std::vector<const float*> rows(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    rows[i] = table.items.Row(items[i]);
  }
  std::vector<float> out(items.size());
  retrieval::KernelScoreBatch(table.kernel, query, rows.data(), rows.size(),
                              table.items.dim, out.data());
  return out;
}

}  // namespace kgrec
