#ifndef KGREC_MATH_DENSE_H_
#define KGREC_MATH_DENSE_H_

#include <cstddef>

#include "core/aligned.h"

namespace kgrec {

/// Plain float vector/matrix kernels used by the non-autodiff parts of the
/// library (PathSim, matrix factorization baselines, the data generator).
/// Matrices are row-major, described by (data, rows, cols).
///
/// These are thin wrappers over the shared SIMD kernel layer
/// (math/kernels.h) and inherit its fixed-block accumulation contract:
/// reductions fold four lane accumulators as (l0+l2)+(l1+l3) with a
/// scalar tail, identically in scalar and SIMD builds.
namespace dense {

/// Dot product of two equal-length vectors.
float Dot(const float* a, const float* b, size_t n);

/// y += alpha * x (axpy).
void Axpy(float alpha, const float* x, float* y, size_t n);

/// Scales x in place by alpha.
void Scale(float* x, size_t n, float alpha);

/// Euclidean norm.
float Norm2(const float* x, size_t n);

/// Squared Euclidean distance between two vectors.
float SquaredDistance(const float* a, const float* b, size_t n);

/// C = A * B with A (m x k), B (k x n), C (m x n). C is overwritten.
/// Every C[i][j] accumulates its k products in ascending p — including
/// exact-zero A entries, which earlier versions skipped.
void MatMul(const float* a, const float* b, float* c, size_t m, size_t k,
            size_t n);

/// C = A * B^T with A (m x k), B (n x k), C (m x n). C is overwritten.
void MatMulTransposeB(const float* a, const float* b, float* c, size_t m,
                      size_t k, size_t n);

/// Cosine similarity; returns 0 when either vector is all-zero. Fused:
/// one pass accumulates the dot and both squared norms.
float CosineSimilarity(const float* a, const float* b, size_t n);

}  // namespace dense

/// Non-owning, read-only view of `rows` contiguous row-major rows of
/// `dim` floats. It borrows the storage of whoever owns the table (a
/// Matrix, an nn::Tensor, a slice of either), so it is valid only while
/// that owner is alive and unresized.
struct RowsView {
  const float* data = nullptr;
  size_t rows = 0;
  size_t dim = 0;

  const float* Row(size_t r) const { return data + r * dim; }
};

/// Row-major owning matrix of floats. The backing store is 64-byte
/// aligned (core/aligned.h) so whole-matrix kernel sweeps start on a
/// cache-line boundary.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  float* Row(size_t r) { return data_.data() + r * cols_; }
  const float* Row(size_t r) const { return data_.data() + r * cols_; }
  float& At(size_t r, size_t c) { return data_[r * cols_ + c]; }
  float At(size_t r, size_t c) const { return data_[r * cols_ + c]; }
  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  size_t size() const { return data_.size(); }
  RowsView View() const { return {data_.data(), rows_, cols_}; }

 private:
  size_t rows_;
  size_t cols_;
  AlignedVector<float> data_;
};

}  // namespace kgrec

#endif  // KGREC_MATH_DENSE_H_
