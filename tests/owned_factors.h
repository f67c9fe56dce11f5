#ifndef KGREC_TESTS_OWNED_FACTORS_H_
#define KGREC_TESTS_OWNED_FACTORS_H_

#include "math/dense.h"
#include "retrieval/factors.h"

namespace kgrec::testing_util {

/// Synthetic item factors for the retrieval and quantizer tests: the
/// owning table plus the ItemFactors view an index or an Encode borrows.
/// The table must outlive everything built on the view.
struct OwnedFactors {
  retrieval::ScoreKernel kernel = retrieval::ScoreKernel::kDot;
  Matrix items;

  retrieval::ItemFactors view() const { return {kernel, items.View()}; }
};

}  // namespace kgrec::testing_util

#endif  // KGREC_TESTS_OWNED_FACTORS_H_
