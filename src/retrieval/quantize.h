#ifndef KGREC_RETRIEVAL_QUANTIZE_H_
#define KGREC_RETRIEVAL_QUANTIZE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/aligned.h"
#include "retrieval/factors.h"

namespace kgrec::retrieval {

/// Largest factor dimension the SQ8 layer accepts. Guarantees the int32
/// accumulators of both integer kernels cannot wrap (math/kernels.h
/// overflow caps: 32768 * 255 * 255 < 2^31).
inline constexpr size_t kMaxSq8Dim = 32768;

/// Round to nearest integer, ties to even ("banker's rounding"),
/// implemented with explicit floor/fraction arithmetic so the result
/// never depends on the ambient FP rounding mode (std::rint does) and is
/// identical across compilers and SIMD modes. Exposed for the golden
/// tests in tests/quantize_test.cc.
int64_t RoundHalfEvenToInt(double v);

/// One query, prepared for the integer scan of a QuantizedItemFactors
/// (PrepareQuery). Reusable scratch: buffers keep their capacity across
/// queries so the steady-state serve path performs no allocation.
struct Sq8Query {
  /// kDot: the per-dim weights w[d] = q[d] * delta[d] quantized to a
  /// 15-bit integer W[d] at scale = max|w| / 16256 and split as
  /// W = 128 * hi + lo (hi in [-127,127], lo in [-64,63]) so both halves
  /// fit the u8xi8 kernel. approx(item) =
  ///   bias + scale * (128 * DotI8(hi, c) + DotI8(lo, c)).
  /// Two integer passes over the same streamed block cost little (the
  /// scan is memory-bound) and buy 128x finer weight resolution than a
  /// single i8 pass — which a single outlier-stretched delta[d] would
  /// otherwise collapse to a one-hot weight vector.
  std::vector<int8_t> weights;     // hi
  std::vector<int8_t> weights_lo;  // lo
  /// kNegSquaredL2: the query on the item grid;
  /// approx(item) = -SquaredDistanceI8 (code-space distance).
  std::vector<uint8_t> codes;
  float scale = 0.0f;
  float bias = 0.0f;
};

/// SQ8 (scalar 8-bit) quantization of one ItemFactors view: per
/// dimension d, a uniform 256-step grid
///
///   value(code) = vmin[d] + delta[d] * code,     code in [0, 255],
///
/// where [vmin[d], vmin[d] + 255 * delta[d]] spans the finite values of
/// column d. Codes are one byte per entry, row-major — 4x smaller than
/// the float matrix, which is the whole point: the scan streams a
/// quarter of the bytes and reduces them with the integer kernels.
///
/// The step size depends on the kernel the factors are scanned under:
///  * kDot: per-dimension delta[d] = (vmax[d] - vmin[d]) / 255 (0 when
///    the column is constant) — the tightest grid per column. The query
///    weights absorb delta[d] exactly (PrepareQuery), so per-dim steps
///    cost the dot approximation nothing.
///  * kNegSquaredL2: one shared delta = max_d (vmax[d] - vmin[d]) / 255
///    for every column (vmin stays per-dimension). With a shared step
///    the code-space squared distance is delta^2 times the grid squared
///    distance — *proportional* to the true metric. Per-dim steps would
///    instead re-weight each dimension by 1/delta[d]^2, an arbitrarily
///    distorted proxy that lets true top-k items sink out of any
///    fixed-size candidate pool.
///
/// # Determinism
///
/// Encoding maps x -> RoundHalfEvenToInt((x - vmin[d]) / delta[d]) with
/// the affine computed in double. Every step (double divide, explicit
/// round-half-even, clamp) is exact IEEE arithmetic with no
/// rounding-mode or fast-math dependence, so the codes — and therefore
/// the integer scan scores and the candidate pool — are bitwise
/// identical across scalar/SSE2/AVX2 builds.
///
/// # Non-finite entries
///
/// Non-finite values are excluded from the per-dimension range; at
/// encode time NaN and -inf map to code 0 and +inf to code 255. The
/// code-space score of such an item is an arbitrary finite
/// approximation — and the item's *true* score can be ±inf or NaN, i.e.
/// pinned to the very top or bottom of the RankBetter order regardless
/// of what its codes say. Such rows therefore cannot be trusted to the
/// approximate pool at all: Encode records them in nonfinite_items()
/// and the SQ8 scans force every scanned one into the exact float32
/// re-rank (retrieval/index.h), where its true score places it.
///
/// # Reconstruction error bound
///
/// For finite x in column d, DecodeRow returns x_hat with
///
///   |x - x_hat| <= delta[d] / 2  +  eps_f * (|vmin[d]| + 255 * delta[d])
///
/// — the half-step quantization error plus one float rounding of the
/// decode affine (eps_f = 2^-24). tests/quantize_test.cc verifies the
/// bound over every factorizable model's export.
class QuantizedItemFactors {
 public:
  /// Quantizes the viewed item rows (read once; the codes are owned).
  /// Requires factors.items.dim <= kMaxSq8Dim (KGREC_CHECK — programmer
  /// error, not data error).
  static QuantizedItemFactors Encode(const ItemFactors& factors);

  size_t num_items() const { return num_items_; }
  size_t dim() const { return dim_; }
  ScoreKernel kernel() const { return kernel_; }

  /// Row-major u8 codes of item `item`.
  const uint8_t* Codes(size_t item) const { return codes_.data() + item * dim_; }

  /// Per-dimension grid origin (the "zero point" in affine-quantization
  /// terms) and step size.
  std::span<const float> grid_min() const { return {vmin_.data(), dim_}; }
  std::span<const float> grid_delta() const { return {delta_.data(), dim_}; }

  /// Dequantizes item `item` into `out` (size dim()).
  void DecodeRow(size_t item, std::span<float> out) const;

  /// Items with at least one non-finite factor entry, ascending. Their
  /// true scores can be non-finite, so the SQ8 scans route every scanned
  /// one straight to the exact re-rank instead of the approximate pool.
  std::span<const int32_t> nonfinite_items() const {
    return {nonfinite_items_.data(), nonfinite_items_.size()};
  }

  /// Prepares `query` (size dim()) for the integer scan, reusing `out`'s
  /// buffers. Non-finite query entries are treated as 0 for the
  /// approximate scan (the exact re-rank sees the original query).
  ///
  /// kDot: the exact score decomposes over the grid as
  ///   Dot(q, decode(c)) = sum_d q[d]*vmin[d] + sum_d (q[d]*delta[d])*c[d]
  /// so with w[d] = q[d]*delta[d] quantized symmetrically to the 15-bit
  /// integer W[d] at scale s = max|w|/16256 and split W = 128*hi + lo
  /// (Sq8Query), approx = bias + s * (128*DotI8(hi,c) + DotI8(lo,c)) —
  /// monotone in the combined integer dot, exact up to the 15-bit
  /// rounding of w.
  ///
  /// kNegSquaredL2: the query is encoded onto the item grid and
  /// approx = -SquaredDistanceI8(q8, c). With the shared step the
  /// code-space distance is proportional to the grid distance, so the
  /// only ordering error left is the half-step rounding of items and
  /// query; the residual recall cost is measured by
  /// bench/retrieval_scaling (recall_before_rerank) and the exact
  /// re-rank restores the order.
  void PrepareQuery(std::span<const float> query, Sq8Query* out) const;

  /// Approximate score of one candidate from its combined integer scan
  /// value — the expansion Query uses when filling the candidate pool.
  /// kDot combines the two dual-kernel outputs as 128*hi_dot + lo_dot (the
  /// caller does this in int64: |combined| can reach 128 * 2^30); the
  /// int64 -> float conversion is one IEEE rounding, identical across
  /// builds.
  float ApproxScore(const Sq8Query& q, int64_t integer_score) const {
    if (kernel_ == ScoreKernel::kDot) {
      return q.bias + q.scale * static_cast<float>(integer_score);
    }
    return -static_cast<float>(integer_score);
  }

  /// Bytes of the code matrix (the scan working set).
  size_t code_bytes() const { return codes_.size(); }
  /// Bytes of the grid vectors (vmin + delta, resident but not scanned).
  size_t grid_bytes() const {
    return (vmin_.size() + delta_.size()) * sizeof(float);
  }

 private:
  ScoreKernel kernel_ = ScoreKernel::kDot;
  size_t num_items_ = 0;
  size_t dim_ = 0;
  AlignedVector<uint8_t> codes_;  // [num_items, dim], row-major
  std::vector<float> vmin_;       // [dim]
  std::vector<float> delta_;      // [dim]
  std::vector<int32_t> nonfinite_items_;  // ascending
};

}  // namespace kgrec::retrieval

#endif  // KGREC_RETRIEVAL_QUANTIZE_H_
