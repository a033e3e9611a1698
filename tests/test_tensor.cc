// Unit tests for Tensor and dense math in src/tensor.
#include <gtest/gtest.h>

#include <cmath>

#include "support/rng.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace triad {
namespace {

TEST(Tensor, ShapeAndFill) {
  Tensor t = Tensor::zeros(3, 4);
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 4);
  EXPECT_EQ(t.numel(), 12);
  for (float v : t.flat()) EXPECT_EQ(v, 0.f);
  t.fill(2.5f);
  EXPECT_EQ(t.at(2, 3), 2.5f);
}

TEST(Tensor, SharedOwnership) {
  Tensor a = Tensor::full(2, 2, 1.f);
  Tensor b = a;  // shallow
  b.at(0, 0) = 9.f;
  EXPECT_EQ(a.at(0, 0), 9.f);
  Tensor c = a.clone();
  c.at(0, 0) = 7.f;
  EXPECT_EQ(a.at(0, 0), 9.f);
}

TEST(Tensor, OutOfRangeThrows) {
  Tensor t = Tensor::zeros(2, 2);
  EXPECT_THROW(t.at(2, 0), Error);
  EXPECT_THROW(t.at(0, -1), Error);
}

TEST(Tensor, XavierWithinBound) {
  Rng rng(1);
  Tensor t = Tensor::xavier(64, 32, rng, MemTag::kActivations);
  const float bound = std::sqrt(6.f / (64 + 32));
  for (float v : t.flat()) {
    EXPECT_LE(std::fabs(v), bound);
  }
}

TEST(Ops, MatmulIdentity) {
  Tensor a(2, 3);
  float* pa = a.data();
  for (int i = 0; i < 6; ++i) pa[i] = static_cast<float>(i + 1);
  Tensor eye = Tensor::zeros(3, 3);
  for (int i = 0; i < 3; ++i) eye.at(i, i) = 1.f;
  Tensor c = Tensor::zeros(2, 3);
  ops::matmul(a, eye, c);
  EXPECT_TRUE(ops::allclose(a, c));
}

TEST(Ops, MatmulKnownValues) {
  Tensor a(2, 2), b(2, 2), c(2, 2);
  a.at(0, 0) = 1; a.at(0, 1) = 2; a.at(1, 0) = 3; a.at(1, 1) = 4;
  b.at(0, 0) = 5; b.at(0, 1) = 6; b.at(1, 0) = 7; b.at(1, 1) = 8;
  ops::matmul(a, b, c);
  EXPECT_FLOAT_EQ(c.at(0, 0), 19.f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 22.f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 43.f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 50.f);
}

TEST(Ops, MatmulTransposedMatchesManual) {
  Rng rng(3);
  Tensor a = Tensor::randn(7, 5, rng);
  Tensor b = Tensor::randn(7, 4, rng);
  // c = aᵀ b : (5,4)
  Tensor c = Tensor::zeros(5, 4);
  ops::matmul(a, b, c, /*trans_a=*/true);
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 4; ++j) {
      float ref = 0.f;
      for (int k = 0; k < 7; ++k) ref += a.at(k, i) * b.at(k, j);
      EXPECT_EQ(c.at(i, j), ref);
    }
  }
}

TEST(Ops, MatmulTransBMatchesManual) {
  Rng rng(4);
  Tensor a = Tensor::randn(3, 5, rng);
  Tensor b = Tensor::randn(6, 5, rng);
  Tensor c = Tensor::zeros(3, 6);
  ops::matmul(a, b, c, false, /*trans_b=*/true);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 6; ++j) {
      float ref = 0.f;
      for (int k = 0; k < 5; ++k) ref += a.at(i, k) * b.at(j, k);
      EXPECT_EQ(c.at(i, j), ref);
    }
  }
}

TEST(Ops, MatmulAccumulate) {
  Tensor a = Tensor::full(2, 2, 1.f);
  Tensor b = Tensor::full(2, 2, 1.f);
  Tensor c = Tensor::full(2, 2, 10.f);
  ops::matmul(a, b, c, false, false, /*accumulate=*/true);
  EXPECT_FLOAT_EQ(c.at(0, 0), 12.f);
}

TEST(Ops, MatmulShapeMismatchThrows) {
  Tensor a(2, 3), b(4, 2), c(2, 2);
  EXPECT_THROW(ops::matmul(a, b, c), Error);
}

TEST(Ops, ActivationsPointwise) {
  Tensor x(1, 4);
  x.at(0, 0) = -2.f; x.at(0, 1) = -0.5f; x.at(0, 2) = 0.f; x.at(0, 3) = 3.f;
  Tensor y(1, 4);
  ops::leaky_relu(x, y, 0.1f);
  EXPECT_FLOAT_EQ(y.at(0, 0), -0.2f);
  EXPECT_FLOAT_EQ(y.at(0, 3), 3.f);
  ops::relu(x, y);
  EXPECT_FLOAT_EQ(y.at(0, 1), 0.f);
  EXPECT_FLOAT_EQ(y.at(0, 3), 3.f);
  ops::elu(x, y, 1.f);
  EXPECT_NEAR(y.at(0, 0), std::exp(-2.f) - 1.f, 1e-6f);
  ops::exp(x, y);
  EXPECT_NEAR(y.at(0, 3), std::exp(3.f), 1e-3f);
}

TEST(Ops, BinaryElementwise) {
  Tensor a = Tensor::full(2, 2, 6.f);
  Tensor b = Tensor::full(2, 2, 3.f);
  Tensor c(2, 2);
  ops::add(a, b, c);
  EXPECT_FLOAT_EQ(c.at(0, 0), 9.f);
  ops::sub(a, b, c);
  EXPECT_FLOAT_EQ(c.at(0, 0), 3.f);
  ops::mul(a, b, c);
  EXPECT_FLOAT_EQ(c.at(0, 0), 18.f);
  ops::div(a, b, c);
  EXPECT_FLOAT_EQ(c.at(0, 0), 2.f);
}

TEST(Ops, MulHeadBroadcastsPerHead) {
  // 2 heads, f=3: b scales each head block.
  Tensor a(1, 6);
  for (int j = 0; j < 6; ++j) a.at(0, j) = 1.f;
  Tensor b(1, 2);
  b.at(0, 0) = 2.f;
  b.at(0, 1) = 5.f;
  Tensor c(1, 6);
  ops::mul_head(a, b, c, 2);
  EXPECT_FLOAT_EQ(c.at(0, 0), 2.f);
  EXPECT_FLOAT_EQ(c.at(0, 2), 2.f);
  EXPECT_FLOAT_EQ(c.at(0, 3), 5.f);
  EXPECT_FLOAT_EQ(c.at(0, 5), 5.f);
}

TEST(Ops, DotHeadReducesPerHead) {
  Tensor a(1, 4), b(1, 4);
  for (int j = 0; j < 4; ++j) {
    a.at(0, j) = static_cast<float>(j + 1);
    b.at(0, j) = 1.f;
  }
  Tensor c(1, 2);
  ops::dot_head(a, b, c, 2);
  EXPECT_FLOAT_EQ(c.at(0, 0), 3.f);   // 1+2
  EXPECT_FLOAT_EQ(c.at(0, 1), 7.f);   // 3+4
}

TEST(Ops, HeadSumAndBroadcastRoundTrip) {
  Tensor x(2, 6);  // 3 heads, f=2
  for (int r = 0; r < 2; ++r) {
    for (int j = 0; j < 6; ++j) x.at(r, j) = static_cast<float>(j);
  }
  Tensor s(2, 2);
  ops::head_sum(x, s, 3, 0.5f);
  EXPECT_FLOAT_EQ(s.at(0, 0), 0.5f * (0 + 2 + 4));
  EXPECT_FLOAT_EQ(s.at(0, 1), 0.5f * (1 + 3 + 5));
  Tensor b(2, 6);
  ops::head_broadcast(s, b, 3, 2.f);
  EXPECT_FLOAT_EQ(b.at(0, 0), 2.f * s.at(0, 0));
  EXPECT_FLOAT_EQ(b.at(0, 5), 2.f * s.at(0, 1));
}

TEST(Ops, ConcatAndSlice) {
  Tensor a = Tensor::full(2, 2, 1.f);
  Tensor b = Tensor::full(2, 3, 2.f);
  Tensor c(2, 5);
  ops::concat_cols(a, b, c);
  EXPECT_FLOAT_EQ(c.at(0, 1), 1.f);
  EXPECT_FLOAT_EQ(c.at(0, 2), 2.f);
  Tensor s(2, 3);
  ops::slice_cols(c, s, 2, 5);
  EXPECT_FLOAT_EQ(s.at(1, 0), 2.f);
}

TEST(Ops, BiasAndBiasGrad) {
  Tensor x = Tensor::zeros(3, 2);
  Tensor b(1, 2);
  b.at(0, 0) = 1.f;
  b.at(0, 1) = -1.f;
  ops::add_bias(x, b, x);
  EXPECT_FLOAT_EQ(x.at(2, 0), 1.f);
  EXPECT_FLOAT_EQ(x.at(2, 1), -1.f);
  Tensor g = Tensor::full(3, 2, 2.f);
  Tensor bg(1, 2);
  ops::bias_grad(g, bg, false);
  EXPECT_FLOAT_EQ(bg.at(0, 0), 6.f);
}

TEST(Ops, SoftmaxCrossEntropyUniformLogits) {
  Tensor logits = Tensor::zeros(4, 3);
  IntTensor labels(4, 1);
  labels.fill(1);
  Tensor grad(4, 3);
  const float loss = ops::softmax_cross_entropy(logits, labels, &grad);
  EXPECT_NEAR(loss, std::log(3.f), 1e-5f);
  // gradient rows sum to zero, true-class entry negative.
  for (int r = 0; r < 4; ++r) {
    float row_sum = 0.f;
    for (int j = 0; j < 3; ++j) row_sum += grad.at(r, j);
    EXPECT_NEAR(row_sum, 0.f, 1e-6f);
    EXPECT_LT(grad.at(r, 1), 0.f);
  }
}

TEST(Ops, SoftmaxCrossEntropyGradMatchesFiniteDiff) {
  Rng rng(11);
  Tensor logits = Tensor::randn(5, 4, rng);
  IntTensor labels(5, 1);
  for (int r = 0; r < 5; ++r) labels.at(r, 0) = r % 4;
  Tensor grad(5, 4);
  ops::softmax_cross_entropy(logits, labels, &grad);
  const float eps = 1e-3f;
  for (int r = 0; r < 5; ++r) {
    for (int j = 0; j < 4; ++j) {
      Tensor pert = logits.clone();
      pert.at(r, j) += eps;
      const float lp = ops::softmax_cross_entropy(pert, labels, nullptr);
      pert.at(r, j) -= 2 * eps;
      const float lm = ops::softmax_cross_entropy(pert, labels, nullptr);
      EXPECT_NEAR(grad.at(r, j), (lp - lm) / (2 * eps), 2e-3f);
    }
  }
}

TEST(Ops, AccuracyCounts) {
  Tensor logits = Tensor::zeros(4, 2);
  logits.at(0, 1) = 1.f;  // pred 1
  logits.at(1, 0) = 1.f;  // pred 0
  logits.at(2, 1) = 1.f;  // pred 1
  logits.at(3, 1) = 1.f;  // pred 1
  IntTensor labels(4, 1);
  labels.at(0, 0) = 1;
  labels.at(1, 0) = 0;
  labels.at(2, 0) = 0;
  labels.at(3, 0) = 1;
  EXPECT_FLOAT_EQ(ops::accuracy(logits, labels), 0.75f);
}

TEST(Ops, AllcloseRespectsTolerance) {
  Tensor a = Tensor::full(2, 2, 1.f);
  Tensor b = Tensor::full(2, 2, 1.00001f);
  EXPECT_TRUE(ops::allclose(a, b));
  b.at(0, 0) = 1.1f;
  EXPECT_FALSE(ops::allclose(a, b));
  EXPECT_NEAR(ops::max_abs_diff(a, b), 0.1f, 1e-5f);
}

}  // namespace
}  // namespace triad
