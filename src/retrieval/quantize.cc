#include "retrieval/quantize.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/check.h"

namespace kgrec::retrieval {
namespace {

/// Encodes one sanitized value onto the column grid. `x` must be finite;
/// the non-finite policy (NaN/-inf -> 0, +inf -> 255) is applied by the
/// callers before the affine.
uint8_t EncodeFinite(double x, double vmin, double delta) {
  if (delta == 0.0) return 0;
  int64_t code = RoundHalfEvenToInt((x - vmin) / delta);
  if (code < 0) code = 0;
  if (code > 255) code = 255;
  return static_cast<uint8_t>(code);
}

uint8_t EncodeValue(float x, double vmin, double delta) {
  if (std::isnan(x)) return 0;
  if (std::isinf(x)) return x > 0.0f ? 255 : 0;
  return EncodeFinite(static_cast<double>(x), vmin, delta);
}

}  // namespace

int64_t RoundHalfEvenToInt(double v) {
  const double f = std::floor(v);
  const double frac = v - f;
  const int64_t base = static_cast<int64_t>(f);
  if (frac > 0.5) return base + 1;
  if (frac < 0.5) return base;
  return (base % 2 == 0) ? base : base + 1;  // exact tie: toward even
}

QuantizedItemFactors QuantizedItemFactors::Encode(const ItemFactors& factors) {
  const size_t n = factors.items.rows;
  const size_t dim = factors.items.dim;
  KGREC_CHECK_LE(dim, kMaxSq8Dim);

  QuantizedItemFactors q;
  q.kernel_ = factors.kernel;
  q.num_items_ = n;
  q.dim_ = dim;
  q.vmin_.assign(dim, 0.0f);
  q.delta_.assign(dim, 0.0f);
  q.codes_.assign(n * dim, 0);

  // Pass 1: per-dimension finite range. Columns with no finite entry (or
  // a constant one) keep delta 0 — every code decodes to vmin.
  std::vector<float> vmax(dim, 0.0f);
  std::vector<bool> seen(dim, false);
  for (size_t i = 0; i < n; ++i) {
    const float* row = factors.items.Row(i);
    for (size_t d = 0; d < dim; ++d) {
      const float x = row[d];
      if (!std::isfinite(x)) continue;
      if (!seen[d]) {
        seen[d] = true;
        q.vmin_[d] = x;
        vmax[d] = x;
      } else {
        if (x < q.vmin_[d]) q.vmin_[d] = x;
        if (x > vmax[d]) vmax[d] = x;
      }
    }
  }
  for (size_t d = 0; d < dim; ++d) {
    // The range arithmetic runs in double so delta is the correctly
    // rounded float of (vmax - vmin) / 255 even for extreme ranges.
    q.delta_[d] = static_cast<float>(
        (static_cast<double>(vmax[d]) - static_cast<double>(q.vmin_[d])) /
        255.0);
  }
  if (factors.kernel == ScoreKernel::kNegSquaredL2) {
    // Shared step (quantize.h): the code-space distance must be
    // proportional to the grid distance, so every column uses the widest
    // column's delta. vmin stays per-dimension.
    float shared = 0.0f;
    for (size_t d = 0; d < dim; ++d) shared = std::max(shared, q.delta_[d]);
    for (size_t d = 0; d < dim; ++d) q.delta_[d] = shared;
  }

  // Pass 2: encode every entry against the *stored* (float) grid, so the
  // reconstruction bound is relative to exactly what DecodeRow computes.
  // Rows with any non-finite entry are recorded: their true scores can
  // be non-finite, so the scans bypass the approximate pool for them.
  for (size_t i = 0; i < n; ++i) {
    const float* row = factors.items.Row(i);
    uint8_t* out = q.codes_.data() + i * dim;
    bool row_finite = true;
    for (size_t d = 0; d < dim; ++d) {
      if (!std::isfinite(row[d])) row_finite = false;
      out[d] = EncodeValue(row[d], static_cast<double>(q.vmin_[d]),
                           static_cast<double>(q.delta_[d]));
    }
    if (!row_finite) q.nonfinite_items_.push_back(static_cast<int32_t>(i));
  }
  return q;
}

void QuantizedItemFactors::DecodeRow(size_t item, std::span<float> out) const {
  KGREC_CHECK_EQ(out.size(), dim_);
  const uint8_t* codes = Codes(item);
  for (size_t d = 0; d < dim_; ++d) {
    out[d] = vmin_[d] + delta_[d] * static_cast<float>(codes[d]);
  }
}

void QuantizedItemFactors::PrepareQuery(std::span<const float> query,
                                        Sq8Query* out) const {
  KGREC_CHECK_EQ(query.size(), dim_);
  if (kernel_ == ScoreKernel::kNegSquaredL2) {
    out->weights.clear();
    out->codes.resize(dim_);
    for (size_t d = 0; d < dim_; ++d) {
      out->codes[d] = EncodeValue(query[d], static_cast<double>(vmin_[d]),
                                  static_cast<double>(delta_[d]));
    }
    out->scale = 0.0f;
    out->bias = 0.0f;
    return;
  }

  // kDot. Two passes over the dimensions (no scratch buffer): the first
  // finds the symmetric-quantization scale of w[d] = q[d] * delta[d] and
  // accumulates the grid-origin bias, the second emits the hi/lo i8
  // weight split (Sq8Query). Sequential double accumulation — fixed
  // order, no SIMD — keeps the prepared query bitwise identical across
  // builds.
  out->codes.clear();
  out->weights.resize(dim_);
  out->weights_lo.resize(dim_);
  double max_w = 0.0;
  double bias = 0.0;
  for (size_t d = 0; d < dim_; ++d) {
    const float qf = query[d];
    const double qd = std::isfinite(qf) ? static_cast<double>(qf) : 0.0;
    const double w = qd * static_cast<double>(delta_[d]);
    const double mag = std::fabs(w);
    if (mag > max_w) max_w = mag;
    bias += qd * static_cast<double>(vmin_[d]);
  }
  if (max_w == 0.0) {
    for (size_t d = 0; d < dim_; ++d) {
      out->weights[d] = 0;
      out->weights_lo[d] = 0;
    }
    out->scale = 0.0f;
    out->bias = static_cast<float>(bias);
    return;
  }
  const double qscale = max_w / 16256.0;
  for (size_t d = 0; d < dim_; ++d) {
    const float qf = query[d];
    const double qd = std::isfinite(qf) ? static_cast<double>(qf) : 0.0;
    const double w = qd * static_cast<double>(delta_[d]);
    int64_t code = RoundHalfEvenToInt(w / qscale);
    if (code < -16256) code = -16256;
    if (code > 16256) code = 16256;
    // W = 128 * hi + lo with hi = floor((W + 64) / 128): hi lands in
    // [-127, 127] (so 16256 = 127 * 128 is the scale anchor) and lo in
    // [-64, 63] — both valid i8 kernel inputs. C++20 defines >> on a
    // negative value as the arithmetic (floor) shift this needs.
    const int64_t hi = (code + 64) >> 7;
    const int64_t lo = code - (hi << 7);
    out->weights[d] = static_cast<int8_t>(hi);
    out->weights_lo[d] = static_cast<int8_t>(lo);
  }
  out->scale = static_cast<float>(qscale);
  out->bias = static_cast<float>(bias);
}

}  // namespace kgrec::retrieval
