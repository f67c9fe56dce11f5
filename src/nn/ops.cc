#include "nn/ops.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"
#include "math/kernels.h"

namespace kgrec::nn {
namespace {

using internal::Node;

std::shared_ptr<Node> MakeNode(size_t rows, size_t cols,
                               std::vector<std::shared_ptr<Node>> parents) {
  auto node = std::make_shared<Node>();
  node->rows = rows;
  node->cols = cols;
  node->data.resize(rows * cols);
  node->parents = std::move(parents);
  for (const auto& p : node->parents) {
    if (p->requires_grad) node->requires_grad = true;
  }
  if (node->requires_grad) node->grad.assign(rows * cols, 0.0f);
  return node;
}

enum class Broadcast { kSame, kScalar, kRow, kCol };

Broadcast BroadcastKind(const Node& a, const Node& b) {
  if (a.rows == b.rows && a.cols == b.cols) return Broadcast::kSame;
  if (b.rows == 1 && b.cols == 1) return Broadcast::kScalar;
  if (b.rows == 1 && b.cols == a.cols) return Broadcast::kRow;
  if (b.cols == 1 && b.rows == a.rows) return Broadcast::kCol;
  KGREC_CHECK(false);  // incompatible shapes
  return Broadcast::kSame;
}

/// Index of the b element matched with a's flat index i.
size_t BIndex(Broadcast kind, const Node& a, size_t i) {
  switch (kind) {
    case Broadcast::kSame:
      return i;
    case Broadcast::kScalar:
      return 0;
    case Broadcast::kRow:
      return i % a.cols;
    case Broadcast::kCol:
      return i / a.cols;
  }
  return 0;
}

template <typename Fwd, typename BwdA, typename BwdB>
Tensor BinaryBroadcastOp(const Tensor& a, const Tensor& b, Fwd fwd, BwdA bwd_a,
                         BwdB bwd_b) {
  Node& an = *a.node();
  Node& bn = *b.node();
  const Broadcast kind = BroadcastKind(an, bn);
  auto node = MakeNode(an.rows, an.cols, {a.node(), b.node()});
  for (size_t i = 0; i < node->size(); ++i) {
    node->data[i] = fwd(an.data[i], bn.data[BIndex(kind, an, i)]);
  }
  if (node->requires_grad) {
    node->backward = [kind, bwd_a, bwd_b](Node& self) {
      Node& pa = *self.parents[0];
      Node& pb = *self.parents[1];
      float* ga = internal::GradBuf(pa);
      float* gb = internal::GradBuf(pb);
      for (size_t i = 0; i < self.size(); ++i) {
        const size_t j = BIndex(kind, pa, i);
        const float g = self.grad[i];
        const float av = pa.data[i];
        const float bv = pb.data[j];
        if (pa.requires_grad) ga[i] += g * bwd_a(av, bv);
        if (pb.requires_grad) gb[j] += g * bwd_b(av, bv);
      }
    };
  }
  return Tensor::Wrap(node);
}

template <typename Fwd, typename Bwd>
Tensor UnaryOp(const Tensor& a, Fwd fwd, Bwd bwd) {
  Node& an = *a.node();
  auto node = MakeNode(an.rows, an.cols, {a.node()});
  for (size_t i = 0; i < node->size(); ++i) node->data[i] = fwd(an.data[i]);
  if (node->requires_grad) {
    node->backward = [bwd](Node& self) {
      Node& pa = *self.parents[0];
      float* ga = internal::GradBuf(pa);
      for (size_t i = 0; i < self.size(); ++i) {
        // bwd receives (input, output) so ops like sigmoid can reuse the
        // forward value.
        ga[i] += self.grad[i] * bwd(pa.data[i], self.data[i]);
      }
    };
  }
  return Tensor::Wrap(node);
}

/// UnaryOp whose forward pass is one of the shared elementwise map
/// kernels (sigmoid/tanh/exp/softplus); the backward derivative stays a
/// per-element lambda over (input, output).
template <typename Bwd>
Tensor MapOp(const Tensor& a, void (*map)(const float*, float*, size_t),
             Bwd bwd) {
  Node& an = *a.node();
  auto node = MakeNode(an.rows, an.cols, {a.node()});
  map(an.data.data(), node->data.data(), node->size());
  if (node->requires_grad) {
    node->backward = [bwd](Node& self) {
      Node& pa = *self.parents[0];
      float* ga = internal::GradBuf(pa);
      for (size_t i = 0; i < self.size(); ++i) {
        ga[i] += self.grad[i] * bwd(pa.data[i], self.data[i]);
      }
    };
  }
  return Tensor::Wrap(node);
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  return BinaryBroadcastOp(
      a, b, [](float x, float y) { return x + y; },
      [](float, float) { return 1.0f; }, [](float, float) { return 1.0f; });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  return BinaryBroadcastOp(
      a, b, [](float x, float y) { return x - y; },
      [](float, float) { return 1.0f; }, [](float, float) { return -1.0f; });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  return BinaryBroadcastOp(
      a, b, [](float x, float y) { return x * y; },
      [](float, float y) { return y; }, [](float x, float) { return x; });
}

Tensor Max(const Tensor& a, const Tensor& b) {
  return BinaryBroadcastOp(
      a, b, [](float x, float y) { return x >= y ? x : y; },
      [](float x, float y) { return x >= y ? 1.0f : 0.0f; },
      [](float x, float y) { return x >= y ? 0.0f : 1.0f; });
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  Node& an = *a.node();
  Node& bn = *b.node();
  KGREC_CHECK_EQ(an.cols, bn.rows);
  const size_t m = an.rows, k = an.cols, n = bn.cols;
  auto node = MakeNode(m, n, {a.node(), b.node()});
  kernels::MatMul(an.data.data(), bn.data.data(), node->data.data(), m, k, n);
  if (node->requires_grad) {
    node->backward = [m, k, n](Node& self) {
      Node& pa = *self.parents[0];
      Node& pb = *self.parents[1];
      if (pa.requires_grad) {
        // dA += dC * B^T: each dA[i,p] is a fixed-block dot of dC row i
        // with B row p, accumulated into the (possibly shadowed) buffer.
        kernels::MatMulTransposeB(self.grad.data(), pb.data.data(),
                                  internal::GradBuf(pa), m, n, k,
                                  /*accumulate=*/true);
      }
      if (pb.requires_grad) {
        // dB += A^T * dC, element-wise in ascending i.
        kernels::MatMulTransposeAAcc(pa.data.data(), self.grad.data(),
                                     internal::GradBuf(pb), m, k, n);
      }
    };
  }
  return Tensor::Wrap(node);
}

Tensor Transpose(const Tensor& a) {
  Node& an = *a.node();
  auto node = MakeNode(an.cols, an.rows, {a.node()});
  for (size_t i = 0; i < an.rows; ++i) {
    for (size_t j = 0; j < an.cols; ++j) {
      node->data[j * an.rows + i] = an.data[i * an.cols + j];
    }
  }
  if (node->requires_grad) {
    node->backward = [](Node& self) {
      Node& pa = *self.parents[0];
      float* ga = internal::GradBuf(pa);
      for (size_t i = 0; i < pa.rows; ++i) {
        for (size_t j = 0; j < pa.cols; ++j) {
          ga[i * pa.cols + j] += self.grad[j * pa.rows + i];
        }
      }
    };
  }
  return Tensor::Wrap(node);
}

Tensor ScaleBy(const Tensor& a, float c) {
  return UnaryOp(
      a, [c](float x) { return c * x; }, [c](float, float) { return c; });
}

Tensor AddConst(const Tensor& a, float c) {
  return UnaryOp(
      a, [c](float x) { return x + c; }, [](float, float) { return 1.0f; });
}

Tensor Neg(const Tensor& a) { return ScaleBy(a, -1.0f); }

Tensor Sigmoid(const Tensor& a) {
  return MapOp(a, kernels::SigmoidMap,
               [](float, float y) { return y * (1.0f - y); });
}

Tensor Tanh(const Tensor& a) {
  return MapOp(a, kernels::TanhMap,
               [](float, float y) { return 1.0f - y * y; });
}

Tensor Relu(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return x > 0.0f ? x : 0.0f; },
      [](float x, float) { return x > 0.0f ? 1.0f : 0.0f; });
}

Tensor Exp(const Tensor& a) {
  return MapOp(a, kernels::ExpMap, [](float, float y) { return y; });
}

Tensor Log(const Tensor& a, float eps) {
  return UnaryOp(
      a, [eps](float x) { return std::log(x + eps); },
      [eps](float x, float) { return 1.0f / (x + eps); });
}

Tensor Square(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return x * x; },
      [](float x, float) { return 2.0f * x; });
}

Tensor Softplus(const Tensor& a) {
  return MapOp(a, kernels::SoftplusMap, [](float x, float) {
    return x >= 0.0f ? 1.0f / (1.0f + std::exp(-x))
                     : std::exp(x) / (1.0f + std::exp(x));
  });
}

Tensor Sum(const Tensor& a) {
  Node& an = *a.node();
  auto node = MakeNode(1, 1, {a.node()});
  float acc = 0.0f;
  for (float v : an.data) acc += v;
  node->data[0] = acc;
  if (node->requires_grad) {
    node->backward = [](Node& self) {
      Node& pa = *self.parents[0];
      float* ga = internal::GradBuf(pa);
      const float g = self.grad[0];
      for (size_t i = 0; i < pa.size(); ++i) ga[i] += g;
    };
  }
  return Tensor::Wrap(node);
}

Tensor Mean(const Tensor& a) {
  return ScaleBy(Sum(a), 1.0f / static_cast<float>(a.size()));
}

Tensor SumRows(const Tensor& a) {
  Node& an = *a.node();
  auto node = MakeNode(an.rows, 1, {a.node()});
  for (size_t i = 0; i < an.rows; ++i) {
    float acc = 0.0f;
    for (size_t j = 0; j < an.cols; ++j) acc += an.data[i * an.cols + j];
    node->data[i] = acc;
  }
  if (node->requires_grad) {
    node->backward = [](Node& self) {
      Node& pa = *self.parents[0];
      float* ga = internal::GradBuf(pa);
      for (size_t i = 0; i < pa.rows; ++i) {
        const float g = self.grad[i];
        for (size_t j = 0; j < pa.cols; ++j) ga[i * pa.cols + j] += g;
      }
    };
  }
  return Tensor::Wrap(node);
}

Tensor MeanRows(const Tensor& a) {
  return ScaleBy(SumRows(a), 1.0f / static_cast<float>(a.cols()));
}

Tensor SumCols(const Tensor& a) {
  Node& an = *a.node();
  auto node = MakeNode(1, an.cols, {a.node()});
  std::fill(node->data.begin(), node->data.end(), 0.0f);
  for (size_t i = 0; i < an.rows; ++i) {
    for (size_t j = 0; j < an.cols; ++j) {
      node->data[j] += an.data[i * an.cols + j];
    }
  }
  if (node->requires_grad) {
    node->backward = [](Node& self) {
      Node& pa = *self.parents[0];
      float* ga = internal::GradBuf(pa);
      for (size_t i = 0; i < pa.rows; ++i) {
        for (size_t j = 0; j < pa.cols; ++j) {
          ga[i * pa.cols + j] += self.grad[j];
        }
      }
    };
  }
  return Tensor::Wrap(node);
}

Tensor Softmax(const Tensor& a) {
  Node& an = *a.node();
  auto node = MakeNode(an.rows, an.cols, {a.node()});
  kernels::SoftmaxRows(an.data.data(), node->data.data(), an.rows, an.cols);
  if (node->requires_grad) {
    node->backward = [](Node& self) {
      Node& pa = *self.parents[0];
      float* ga = internal::GradBuf(pa);
      for (size_t i = 0; i < self.rows; ++i) {
        const float* y = self.data.data() + i * self.cols;
        const float* dy = self.grad.data() + i * self.cols;
        const float dot = kernels::Dot(y, dy, self.cols);
        float* dx = ga + i * self.cols;
        for (size_t j = 0; j < self.cols; ++j) dx[j] += y[j] * (dy[j] - dot);
      }
    };
  }
  return Tensor::Wrap(node);
}

Tensor Concat(const Tensor& a, const Tensor& b) {
  Node& an = *a.node();
  Node& bn = *b.node();
  KGREC_CHECK_EQ(an.rows, bn.rows);
  const size_t na = an.cols, nb = bn.cols;
  auto node = MakeNode(an.rows, na + nb, {a.node(), b.node()});
  for (size_t i = 0; i < an.rows; ++i) {
    std::copy_n(an.data.data() + i * na, na,
                node->data.data() + i * (na + nb));
    std::copy_n(bn.data.data() + i * nb, nb,
                node->data.data() + i * (na + nb) + na);
  }
  if (node->requires_grad) {
    node->backward = [na, nb](Node& self) {
      Node& pa = *self.parents[0];
      Node& pb = *self.parents[1];
      float* ga = internal::GradBuf(pa);
      float* gb = internal::GradBuf(pb);
      for (size_t i = 0; i < self.rows; ++i) {
        const float* grow = self.grad.data() + i * (na + nb);
        if (pa.requires_grad) {
          for (size_t j = 0; j < na; ++j) ga[i * na + j] += grow[j];
        }
        if (pb.requires_grad) {
          for (size_t j = 0; j < nb; ++j) gb[i * nb + j] += grow[na + j];
        }
      }
    };
  }
  return Tensor::Wrap(node);
}

Tensor Gather(const Tensor& table, const std::vector<int32_t>& indices) {
  Node& tn = *table.node();
  const size_t d = tn.cols;
  auto node = MakeNode(indices.size(), d, {table.node()});
  for (size_t i = 0; i < indices.size(); ++i) {
    KGREC_CHECK(indices[i] >= 0 && static_cast<size_t>(indices[i]) < tn.rows);
    std::copy_n(tn.data.data() + indices[i] * d, d, node->data.data() + i * d);
  }
  if (node->requires_grad) {
    node->backward = [indices, d](Node& self) {
      Node& pt = *self.parents[0];
      float* gt = internal::GradBuf(pt, &indices);
      for (size_t i = 0; i < indices.size(); ++i) {
        kernels::Axpy(1.0f, self.grad.data() + i * d, gt + indices[i] * d, d);
      }
    };
  }
  return Tensor::Wrap(node);
}

Tensor RowwiseDot(const Tensor& a, const Tensor& b) {
  // First-class fused op (previously SumRows(Mul(a, b))): one fixed-block
  // dot per row forward, two rank-1 Axpy updates per row backward, and no
  // intermediate [rows, cols] product node.
  Node& an = *a.node();
  Node& bn = *b.node();
  KGREC_CHECK_EQ(an.rows, bn.rows);
  KGREC_CHECK_EQ(an.cols, bn.cols);
  const size_t d = an.cols;
  auto node = MakeNode(an.rows, 1, {a.node(), b.node()});
  for (size_t i = 0; i < an.rows; ++i) {
    node->data[i] =
        kernels::Dot(an.data.data() + i * d, bn.data.data() + i * d, d);
  }
  if (node->requires_grad) {
    node->backward = [d](Node& self) {
      Node& pa = *self.parents[0];
      Node& pb = *self.parents[1];
      float* ga = internal::GradBuf(pa);
      float* gb = internal::GradBuf(pb);
      for (size_t i = 0; i < self.rows; ++i) {
        const float g = self.grad[i];
        if (pa.requires_grad) {
          kernels::Axpy(g, pb.data.data() + i * d, ga + i * d, d);
        }
        if (pb.requires_grad) {
          kernels::Axpy(g, pa.data.data() + i * d, gb + i * d, d);
        }
      }
    };
  }
  return Tensor::Wrap(node);
}

Tensor RowwiseVecMat(const Tensor& x, const Tensor& w) {
  Node& xn = *x.node();
  Node& wn = *w.node();
  const size_t batch = xn.rows, d = xn.cols;
  KGREC_CHECK_EQ(wn.rows, batch);
  KGREC_CHECK_EQ(wn.cols, d * d);
  auto node = MakeNode(batch, d, {x.node(), w.node()});
  for (size_t b = 0; b < batch; ++b) {
    // Row b: out = xv . mat, one (1 x d) x (d x d) product.
    kernels::MatMul(xn.data.data() + b * d, wn.data.data() + b * d * d,
                    node->data.data() + b * d, 1, d, d);
  }
  if (node->requires_grad) {
    node->backward = [batch, d](Node& self) {
      Node& px = *self.parents[0];
      Node& pw = *self.parents[1];
      float* gx = internal::GradBuf(px);
      float* gw = internal::GradBuf(pw);
      for (size_t b = 0; b < batch; ++b) {
        const float* dout = self.grad.data() + b * d;
        const float* xv = px.data.data() + b * d;
        const float* mat = pw.data.data() + b * d * d;
        if (px.requires_grad) {
          // dx = dout . mat^T, one fixed-block dot per coordinate.
          kernels::MatMulTransposeB(dout, mat, gx + b * d, 1, d, d,
                                    /*accumulate=*/true);
        }
        if (pw.requires_grad) {
          // dmat[i,:] += xv[i] * dout (rank-1 update).
          for (size_t i = 0; i < d; ++i) {
            kernels::Axpy(xv[i], dout, gw + b * d * d + i * d, d);
          }
        }
      }
    };
  }
  return Tensor::Wrap(node);
}

Tensor Reshape(const Tensor& a, size_t rows, size_t cols) {
  Node& an = *a.node();
  KGREC_CHECK_EQ(an.size(), rows * cols);
  auto node = MakeNode(rows, cols, {a.node()});
  node->data = an.data;
  if (node->requires_grad) {
    node->backward = [](Node& self) {
      Node& pa = *self.parents[0];
      float* ga = internal::GradBuf(pa);
      for (size_t i = 0; i < self.size(); ++i) ga[i] += self.grad[i];
    };
  }
  return Tensor::Wrap(node);
}

Tensor GroupSumRows(const Tensor& a, size_t group_size) {
  Node& an = *a.node();
  KGREC_CHECK_GT(group_size, 0u);
  KGREC_CHECK_EQ(an.rows % group_size, 0u);
  const size_t groups = an.rows / group_size;
  const size_t d = an.cols;
  auto node = MakeNode(groups, d, {a.node()});
  std::fill(node->data.begin(), node->data.end(), 0.0f);
  for (size_t r = 0; r < an.rows; ++r) {
    const size_t g = r / group_size;
    for (size_t c = 0; c < d; ++c) {
      node->data[g * d + c] += an.data[r * d + c];
    }
  }
  if (node->requires_grad) {
    node->backward = [group_size, d](Node& self) {
      Node& pa = *self.parents[0];
      float* ga = internal::GradBuf(pa);
      for (size_t r = 0; r < pa.rows; ++r) {
        const size_t g = r / group_size;
        for (size_t c = 0; c < d; ++c) {
          ga[r * d + c] += self.grad[g * d + c];
        }
      }
    };
  }
  return Tensor::Wrap(node);
}

Tensor IndexedSumRows(const Tensor& values,
                      const std::vector<int32_t>& indices, size_t num_rows) {
  Node& vn = *values.node();
  KGREC_CHECK_EQ(vn.rows, indices.size());
  const size_t d = vn.cols;
  auto node = MakeNode(num_rows, d, {values.node()});
  std::fill(node->data.begin(), node->data.end(), 0.0f);
  for (size_t i = 0; i < indices.size(); ++i) {
    KGREC_CHECK(indices[i] >= 0 &&
                static_cast<size_t>(indices[i]) < num_rows);
    const float* src = vn.data.data() + i * d;
    float* dst = node->data.data() + indices[i] * d;
    for (size_t c = 0; c < d; ++c) dst[c] += src[c];
  }
  if (node->requires_grad) {
    node->backward = [indices, d](Node& self) {
      Node& pv = *self.parents[0];
      float* gv = internal::GradBuf(pv);
      for (size_t i = 0; i < indices.size(); ++i) {
        const float* g = self.grad.data() + indices[i] * d;
        float* dst = gv + i * d;
        for (size_t c = 0; c < d; ++c) dst[c] += g[c];
      }
    };
  }
  return Tensor::Wrap(node);
}

Tensor SliceCols(const Tensor& a, size_t start, size_t len) {
  Node& an = *a.node();
  KGREC_CHECK_LE(start + len, an.cols);
  auto node = MakeNode(an.rows, len, {a.node()});
  for (size_t r = 0; r < an.rows; ++r) {
    std::copy_n(an.data.data() + r * an.cols + start, len,
                node->data.data() + r * len);
  }
  if (node->requires_grad) {
    node->backward = [start, len](Node& self) {
      Node& pa = *self.parents[0];
      float* ga = internal::GradBuf(pa);
      for (size_t r = 0; r < self.rows; ++r) {
        for (size_t c = 0; c < len; ++c) {
          ga[r * pa.cols + start + c] += self.grad[r * len + c];
        }
      }
    };
  }
  return Tensor::Wrap(node);
}

Tensor L2Norm(const Tensor& a) { return Sum(Square(a)); }

Tensor BceWithLogits(const Tensor& logits, const std::vector<float>& targets) {
  Node& ln = *logits.node();
  KGREC_CHECK_EQ(ln.size(), targets.size());
  auto node = MakeNode(1, 1, {logits.node()});
  double acc = 0.0;
  for (size_t i = 0; i < ln.size(); ++i) {
    const float z = ln.data[i];
    const float t = targets[i];
    // Numerically stable: max(z,0) - z*t + log(1 + exp(-|z|)).
    acc += std::max(z, 0.0f) - z * t + std::log1p(std::exp(-std::fabs(z)));
  }
  node->data[0] = static_cast<float>(acc / ln.size());
  if (node->requires_grad) {
    node->backward = [targets](Node& self) {
      Node& pl = *self.parents[0];
      float* gl = internal::GradBuf(pl);
      const float g = self.grad[0] / pl.size();
      for (size_t i = 0; i < pl.size(); ++i) {
        const float z = pl.data[i];
        const float s = z >= 0.0f ? 1.0f / (1.0f + std::exp(-z))
                                  : std::exp(z) / (1.0f + std::exp(z));
        gl[i] += g * (s - targets[i]);
      }
    };
  }
  return Tensor::Wrap(node);
}

Tensor BprLoss(const Tensor& pos_scores, const Tensor& neg_scores) {
  return Mean(Softplus(Sub(neg_scores, pos_scores)));
}

Tensor MarginRankingLoss(const Tensor& pos, const Tensor& neg, float margin) {
  return Mean(Relu(AddConst(Sub(pos, neg), margin)));
}

Tensor MseLoss(const Tensor& a, const std::vector<float>& targets) {
  Node& an = *a.node();
  KGREC_CHECK_EQ(an.size(), targets.size());
  auto node = MakeNode(1, 1, {a.node()});
  double acc = 0.0;
  for (size_t i = 0; i < an.size(); ++i) {
    const double diff = an.data[i] - targets[i];
    acc += diff * diff;
  }
  node->data[0] = static_cast<float>(acc / an.size());
  if (node->requires_grad) {
    node->backward = [targets](Node& self) {
      Node& pa = *self.parents[0];
      float* ga = internal::GradBuf(pa);
      const float g = 2.0f * self.grad[0] / pa.size();
      for (size_t i = 0; i < pa.size(); ++i) {
        ga[i] += g * (pa.data[i] - targets[i]);
      }
    };
  }
  return Tensor::Wrap(node);
}

}  // namespace kgrec::nn
