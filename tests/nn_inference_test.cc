// Inference-mode lockdown of the nn layer (DESIGN §8d, §8f):
//
//  * the per-broadcast-kind loops of Add/Sub/Mul/Max against the old
//    per-element formulation (a BIndex switch per element), bitwise, for
//    forward values and both parents' gradients, over every broadcast
//    kind and the aliased a == b case;
//  * NoGradScope: nesting, thread locality, graph-free results, and the
//    Backward() refusals that keep a misplaced scope from silently
//    freezing training.
//
// The model-level checks (every registry model scores bitwise the same
// under the scope; three threads scoring one model under it) live in
// registry_smoke_test.cc, next to the shared fitted zoo.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "math/rng.h"
#include "nn/ops.h"
#include "nn/tensor.h"

namespace kgrec {
namespace {

using nn::NoGradScope;
using nn::Tensor;

bool BitwiseEqual(const float* a, const float* b, size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

// ---------------------------------------------------------------------
// Reference: the per-element broadcast formulation the kind loops
// replaced — one switch and one division or modulo per element.

enum class RefKind { kSame, kScalar, kRow, kCol };

RefKind KindOf(size_t a_rows, size_t a_cols, size_t b_rows, size_t b_cols) {
  if (a_rows == b_rows && a_cols == b_cols) return RefKind::kSame;
  if (b_rows == 1 && b_cols == 1) return RefKind::kScalar;
  if (b_rows == 1 && b_cols == a_cols) return RefKind::kRow;
  return RefKind::kCol;
}

size_t BIndex(RefKind kind, size_t a_cols, size_t i) {
  switch (kind) {
    case RefKind::kSame:
      return i;
    case RefKind::kScalar:
      return 0;
    case RefKind::kRow:
      return i % a_cols;
    case RefKind::kCol:
      return i / a_cols;
  }
  return 0;
}

struct BinaryCase {
  const char* name;
  Tensor (*op)(const Tensor&, const Tensor&);
  float (*fwd)(float, float);
  float (*bwd_a)(float, float);
  float (*bwd_b)(float, float);
};

const std::vector<BinaryCase>& BinaryCases() {
  static const std::vector<BinaryCase> cases = {
      {"Add", &nn::Add, [](float x, float y) { return x + y; },
       [](float, float) { return 1.0f; }, [](float, float) { return 1.0f; }},
      {"Sub", &nn::Sub, [](float x, float y) { return x - y; },
       [](float, float) { return 1.0f; }, [](float, float) { return -1.0f; }},
      {"Mul", &nn::Mul, [](float x, float y) { return x * y; },
       [](float, float y) { return y; }, [](float x, float) { return x; }},
      {"Max", &nn::Max, [](float x, float y) { return x >= y ? x : y; },
       [](float x, float y) { return x >= y ? 1.0f : 0.0f; },
       [](float x, float y) { return x >= y ? 0.0f : 1.0f; }},
  };
  return cases;
}

std::vector<float> RandomValues(size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.Uniform(-1.5, 1.5));
  return v;
}

/// Runs `c` on a [ra, ca] x [rb, cb] pair with the given grad flags and
/// compares forward values and (after two backward passes over two fresh
/// graphs, so accumulation into nonzero grads is covered) both parents'
/// grads with the reference loop, bitwise.
void CheckAgainstReference(const BinaryCase& c, size_t ra, size_t ca,
                           size_t rb, size_t cb, bool grad_a, bool grad_b,
                           uint64_t seed) {
  SCOPED_TRACE(std::string(c.name) + " a=" + std::to_string(ra) + "x" +
               std::to_string(ca) + " b=" + std::to_string(rb) + "x" +
               std::to_string(cb) + " grad_a=" + std::to_string(grad_a) +
               " grad_b=" + std::to_string(grad_b));
  Rng rng(seed);
  const RefKind kind = KindOf(ra, ca, rb, cb);
  const size_t n = ra * ca;
  std::vector<float> x = RandomValues(n, rng);
  const std::vector<float> y = RandomValues(rb * cb, rng);
  const std::vector<float> w = RandomValues(n, rng);
  // Ties, so Max's tie rule (gradient to a) is exercised.
  for (size_t i = 0; i < n; i += 3) x[i] = y[BIndex(kind, ca, i)];

  std::vector<float> ref_out(n);
  std::vector<float> ref_ga(n, 0.0f);
  std::vector<float> ref_gb(rb * cb, 0.0f);
  for (size_t i = 0; i < n; ++i) {
    ref_out[i] = c.fwd(x[i], y[BIndex(kind, ca, i)]);
  }
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < n; ++i) {
      const size_t j = BIndex(kind, ca, i);
      if (grad_a) ref_ga[i] += w[i] * c.bwd_a(x[i], y[j]);
      if (grad_b) ref_gb[j] += w[i] * c.bwd_b(x[i], y[j]);
    }
  }

  Tensor a = Tensor::FromData(ra, ca, x, grad_a);
  Tensor b = Tensor::FromData(rb, cb, y, grad_b);
  const Tensor weights = Tensor::FromData(ra, ca, w);
  for (int pass = 0; pass < 2; ++pass) {
    Tensor out = c.op(a, b);
    ASSERT_EQ(out.rows(), ra);
    ASSERT_EQ(out.cols(), ca);
    EXPECT_TRUE(BitwiseEqual(out.data(), ref_out.data(), n));
    if (!grad_a && !grad_b) return;
    // d Sum(out * w) / d out is exactly w.
    nn::Backward(nn::Sum(nn::Mul(out, weights)));
  }
  if (grad_a) {
    EXPECT_TRUE(BitwiseEqual(a.grad(), ref_ga.data(), n));
  }
  if (grad_b) {
    EXPECT_TRUE(BitwiseEqual(b.grad(), ref_gb.data(), rb * cb));
  }
}

TEST(NnInferenceBroadcast, EveryKindMatchesThePerElementReference) {
  // a shapes 1x1, 1xn, nx1 and nxm; b every shape that broadcasts onto
  // a (same, scalar, row, column). Odd sizes leave vector-loop tails.
  const std::vector<std::pair<size_t, size_t>> a_shapes = {
      {1, 1}, {1, 19}, {37, 1}, {37, 19}};
  uint64_t seed = 1;
  for (const BinaryCase& c : BinaryCases()) {
    for (const auto& [ra, ca] : a_shapes) {
      const std::vector<std::pair<size_t, size_t>> b_shapes = {
          {ra, ca}, {1, 1}, {1, ca}, {ra, 1}};
      for (const auto& [rb, cb] : b_shapes) {
        for (int flags = 0; flags < 4; ++flags) {
          CheckAgainstReference(c, ra, ca, rb, cb, (flags & 1) != 0,
                                (flags & 2) != 0, seed++);
        }
      }
    }
  }
}

TEST(NnInferenceBroadcast, AliasedOperandsMatchTheReference) {
  // op(x, x): both parents are one node, so the a and b gradient
  // updates of each element land in one buffer, in that order.
  for (const BinaryCase& c : BinaryCases()) {
    SCOPED_TRACE(c.name);
    Rng rng(99);
    const size_t rows = 23, cols = 11, n = rows * cols;
    const std::vector<float> x = RandomValues(n, rng);
    const std::vector<float> w = RandomValues(n, rng);
    std::vector<float> ref_g(n, 0.0f);
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t i = 0; i < n; ++i) {
        ref_g[i] += w[i] * c.bwd_a(x[i], x[i]);
        ref_g[i] += w[i] * c.bwd_b(x[i], x[i]);
      }
    }
    Tensor a = Tensor::FromData(rows, cols, x, /*requires_grad=*/true);
    const Tensor weights = Tensor::FromData(rows, cols, w);
    for (int pass = 0; pass < 2; ++pass) {
      Tensor out = c.op(a, a);
      for (size_t i = 0; i < n; ++i) {
        const float expected = c.fwd(x[i], x[i]);
        EXPECT_TRUE(BitwiseEqual(&out.data()[i], &expected, 1)) << i;
      }
      nn::Backward(nn::Sum(nn::Mul(out, weights)));
    }
    EXPECT_TRUE(BitwiseEqual(a.grad(), ref_g.data(), n));
  }
}

// ---------------------------------------------------------------------
// NoGradScope.

TEST(NnInferenceScope, NestsAndRestores) {
  EXPECT_FALSE(NoGradScope::active());
  {
    NoGradScope outer;
    EXPECT_TRUE(NoGradScope::active());
    {
      NoGradScope inner;
      EXPECT_TRUE(NoGradScope::active());
    }
    EXPECT_TRUE(NoGradScope::active());
  }
  EXPECT_FALSE(NoGradScope::active());
}

TEST(NnInferenceScope, DoesNotLeakToAnotherThread) {
  const Tensor param = Tensor::Zeros(2, 3, /*requires_grad=*/true);
  NoGradScope scope;
  bool other_active = true;
  bool other_requires_grad = false;
  std::thread other([&] {
    other_active = NoGradScope::active();
    other_requires_grad = nn::Add(param, param).requires_grad();
  });
  other.join();
  EXPECT_FALSE(other_active);
  EXPECT_TRUE(other_requires_grad);
  EXPECT_FALSE(nn::Add(param, param).requires_grad());
}

/// A small graph over trainable leaves touching the op families the
/// zoo scores with: gather, matmul, broadcasts, maps, softmax, rowwise
/// ops and reductions.
Tensor ScoringGraph(const Tensor& table, const Tensor& weight,
                    const Tensor& bias) {
  const Tensor rows = nn::Gather(table, {3, 0, 3, 5});
  const Tensor hidden =
      nn::Tanh(nn::Add(nn::MatMul(rows, weight), bias));  // [4, 6]
  const Tensor att = nn::Softmax(nn::Mul(hidden, hidden));
  return nn::Sigmoid(nn::RowwiseDot(att, nn::Relu(hidden)));  // [4, 1]
}

TEST(NnInferenceScope, ResultsCarryNoGraphAndTheSameValues) {
  Rng rng(7);
  const Tensor table = Tensor::FromData(6, 5, RandomValues(30, rng), true);
  const Tensor weight = Tensor::FromData(5, 6, RandomValues(30, rng), true);
  const Tensor bias = Tensor::FromData(1, 6, RandomValues(6, rng), true);

  const Tensor with_graph = ScoringGraph(table, weight, bias);
  EXPECT_TRUE(with_graph.requires_grad());
  EXPECT_FALSE(with_graph.node()->parents.empty());

  NoGradScope scope;
  const Tensor without = ScoringGraph(table, weight, bias);
  EXPECT_FALSE(without.requires_grad());
  EXPECT_TRUE(without.node()->parents.empty());
  EXPECT_TRUE(without.node()->grad.empty());
  EXPECT_FALSE(static_cast<bool>(without.node()->backward));
  ASSERT_EQ(without.size(), with_graph.size());
  EXPECT_TRUE(BitwiseEqual(without.data(), with_graph.data(), without.size()));
}

using NnInferenceDeathTest = ::testing::Test;

TEST(NnInferenceDeathTest, BackwardRefusesALossWithoutGrad) {
  const Tensor constant = Tensor::FromData(1, 1, {3.0f});
  const Tensor loss = nn::Square(constant);
  EXPECT_DEATH(nn::Backward(loss), "KGREC_CHECK failed");
}

TEST(NnInferenceDeathTest, BackwardRefusesToRunInsideAScope) {
  const Tensor param = Tensor::FromData(1, 1, {3.0f}, /*requires_grad=*/true);
  const Tensor loss = nn::Square(param);  // built with a graph
  EXPECT_DEATH(
      {
        NoGradScope scope;
        nn::Backward(loss);
      },
      "KGREC_CHECK failed");
}

TEST(NnInferenceDeathTest, BackwardRefusesALossBuiltInsideAScope) {
  const Tensor param = Tensor::FromData(1, 1, {3.0f}, /*requires_grad=*/true);
  Tensor loss;
  {
    NoGradScope scope;
    loss = nn::Square(param);
  }
  EXPECT_DEATH(nn::Backward(loss), "KGREC_CHECK failed");
}

}  // namespace
}  // namespace kgrec
