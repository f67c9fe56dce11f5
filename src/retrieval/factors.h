#ifndef KGREC_RETRIEVAL_FACTORS_H_
#define KGREC_RETRIEVAL_FACTORS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/recommender.h"
#include "math/dense.h"

namespace kgrec {
namespace retrieval {

/// The two scoring forms a factorizable model may export (DESIGN §10).
/// Both are evaluated by the shared SIMD kernels (math/kernels.h), so a
/// score computed through an exported (query, item-row) pair is bitwise
/// identical however the rows are batched or blocked:
///  * kDot          — score = Dot(query, item_row); inner-product models
///                    (MF/BPR-MF, CKE, KGAT, Hete-MF/CF, DistMult).
///  * kNegSquaredL2 — score = -SquaredDistance(query, item_row); the
///                    translation-distance KGE family (TransE/H/R/D),
///                    where nearest-in-relation-space means best.
enum class ScoreKernel { kDot, kNegSquaredL2 };

const char* ScoreKernelName(ScoreKernel kernel);

/// score of one (query, item_row) pair under the kernel.
float KernelScore(ScoreKernel kernel, const float* query, const float* row,
                  size_t dim);

/// Batched form over `count` row pointers; out[i] is **bitwise** equal to
/// KernelScore(kernel, query, rows[i], dim) — the kDot path delegates to
/// kernels::DotBatch, whose per-output contract is exactly kernels::Dot.
void KernelScoreBatch(ScoreKernel kernel, const float* query,
                      const float* const* rows, size_t count, size_t dim,
                      float* out);

/// The item side of a factorization: the kernel plus one row per
/// catalog item, in item-id order. A non-owning view (math/dense.h
/// RowsView) of the model's own item table, produced by
/// DotProductFactors::item_factors(). Lifetime rule: whoever holds one —
/// an index built over it included — must not outlive the model it came
/// from, nor survive a mutation of that model (Fit/Load/Update).
/// ServeHandle declares its model before its index and TwoStageRetriever
/// shares ownership of its candidate model, so both hold by construction.
struct ItemFactors {
  ScoreKernel kernel = ScoreKernel::kDot;
  RowsView items;  // [num_items, dim]
};

/// A factorizable model's whole scoring surface: its ItemFactors plus
/// the user side. Both views borrow the model's tensors (the
/// ItemFactors lifetime rule); item_factors() is this table sliced to
/// its base.
struct FactorTable : ItemFactors {
  /// [num_users, dim]. `rows` is always the number of users the model
  /// can answer for; `data` is nullptr when the query is computed per
  /// user, in which case the model overrides FillUserQuery.
  RowsView users;
};

/// Sorted, deduplicated, in-range copy of an exclusion list — the
/// canonical form every retrieval selection consumes (binary-search /
/// merge-walk exclusion instead of the old -inf sentinel overwrite).
std::vector<int32_t> SanitizeExclude(std::span<const int32_t> exclude,
                                     int32_t num_items);

}  // namespace retrieval

/// A factorizable recommender: one whose score is
/// f(u, v) = kernel(q_u, x_v) for a per-user query vector q_u and a
/// per-item factor row x_v. A model states its factorization once, as a
/// FactorTable; Score, ScoreItems, the exported ItemFactors and the
/// default FillUserQuery all derive from it, so the MF/BPR-MF, CKE,
/// CFKG/ECFKG, Hete-MF/CF and KGAT families score through one shared
/// kernel path.
///
/// Contract (locked down by retrieval_test and the retrieval_scaling
/// smoke gate): for a fitted (or checkpoint-restored) model,
///
///   KernelScore(factor_kernel(), q, item_factors().items.Row(v),
///               factor_dim())  ==  Score(u, v)   **bitwise**,
///
/// where q is FillUserQuery(u)'s output. That is what makes an index an
/// exact drop-in for the exhaustive serve path: a BruteForceIndex scan
/// over item_factors() is bitwise `ScoreAll` + `TopKScored`.
///
/// Query it through the registry helpers AsFactorizable() /
/// IsFactorizable().
class DotProductFactors : public Recommender {
 public:
  /// The model's factorization. Only valid after Fit()/Load().
  virtual retrieval::FactorTable factor_table() const = 0;

  /// Dimensionality of the queries and item rows.
  size_t factor_dim() const { return factor_table().items.dim; }

  /// Which kernel evaluates a (query, item row) pair.
  retrieval::ScoreKernel factor_kernel() const {
    return factor_table().kernel;
  }

  /// The item side of factor_table(): a view of the model's item rows,
  /// not a copy (see the ItemFactors lifetime rule).
  retrieval::ItemFactors item_factors() const;

  /// Writes user `user`'s query vector into `out` (size factor_dim()).
  /// The default copies the user's row of factor_table().users; models
  /// that compute the query (CFKG/ECFKG) override it.
  virtual void FillUserQuery(int32_t user, std::span<float> out) const;

  /// kernel(query, item row), through KernelScore / KernelScoreBatch.
  float Score(int32_t user, int32_t item) const override;
  std::vector<float> ScoreItems(int32_t user,
                                std::span<const int32_t> items) const override;
};

}  // namespace kgrec

#endif  // KGREC_RETRIEVAL_FACTORS_H_
