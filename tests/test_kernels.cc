// Unit tests for the unfused engine kernels, including the Figure-5 claim
// that both thread mappings compute identical reductions.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "engine/kernels.h"
#include "graph/generators.h"
#include "support/counters.h"
#include "support/rng.h"
#include "tensor/ops.h"

namespace triad {
namespace {

Graph path3() {
  // 0 -> 1 -> 2 plus 0 -> 2.
  return Graph(3, {{0, 1}, {1, 2}, {0, 2}});
}

TEST(Kernels, ScatterCopyU) {
  Graph g = path3();
  Tensor h(3, 2);
  for (int v = 0; v < 3; ++v) {
    h.at(v, 0) = static_cast<float>(v);
    h.at(v, 1) = static_cast<float>(10 * v);
  }
  Tensor out(3, 2);
  kernels::scatter(g, ScatterFn::CopyU, h, nullptr, out, 1);
  EXPECT_FLOAT_EQ(out.at(0, 0), 0.f);  // edge 0: src 0
  EXPECT_FLOAT_EQ(out.at(1, 0), 1.f);  // edge 1: src 1
  EXPECT_FLOAT_EQ(out.at(2, 1), 0.f);  // edge 2: src 0
}

TEST(Kernels, ScatterBinaryFns) {
  Graph g = path3();
  Tensor a(3, 1), b(3, 1);
  for (int v = 0; v < 3; ++v) {
    a.at(v, 0) = static_cast<float>(v + 1);      // u-side
    b.at(v, 0) = static_cast<float>(10 * (v + 1));  // v-side
  }
  Tensor out(3, 1);
  kernels::scatter(g, ScatterFn::AddUV, a, &b, out, 1);
  EXPECT_FLOAT_EQ(out.at(0, 0), 1.f + 20.f);  // 0->1
  kernels::scatter(g, ScatterFn::SubUV, a, &b, out, 1);
  EXPECT_FLOAT_EQ(out.at(1, 0), 2.f - 30.f);  // 1->2
  kernels::scatter(g, ScatterFn::MulUV, a, &b, out, 1);
  EXPECT_FLOAT_EQ(out.at(2, 0), 1.f * 30.f);  // 0->2
}

TEST(Kernels, ScatterConcatAndDot) {
  Graph g = path3();
  Tensor a = Tensor::full(3, 2, 1.f);
  Tensor b = Tensor::full(3, 2, 2.f);
  Tensor cat(3, 4);
  kernels::scatter(g, ScatterFn::ConcatUV, a, &b, cat, 1);
  EXPECT_FLOAT_EQ(cat.at(0, 0), 1.f);
  EXPECT_FLOAT_EQ(cat.at(0, 3), 2.f);
  Tensor dot(3, 1);
  kernels::scatter(g, ScatterFn::DotUV, a, &b, dot, 1);
  EXPECT_FLOAT_EQ(dot.at(0, 0), 4.f);
}

TEST(Kernels, GatherSumMaxMean) {
  Graph g = path3();
  Tensor e(3, 1);
  e.at(0, 0) = 1.f;  // into 1
  e.at(1, 0) = 5.f;  // into 2
  e.at(2, 0) = 3.f;  // into 2
  Tensor out(3, 1);
  kernels::gather(g, ReduceFn::Sum, false, e, out, nullptr);
  EXPECT_FLOAT_EQ(out.at(0, 0), 0.f);
  EXPECT_FLOAT_EQ(out.at(1, 0), 1.f);
  EXPECT_FLOAT_EQ(out.at(2, 0), 8.f);
  IntTensor argmax(3, 1);
  kernels::gather(g, ReduceFn::Max, false, e, out, &argmax);
  EXPECT_FLOAT_EQ(out.at(2, 0), 5.f);
  EXPECT_EQ(argmax.at(2, 0), 1);   // edge id 1 wins
  EXPECT_FLOAT_EQ(out.at(0, 0), 0.f);  // isolated -> 0
  EXPECT_EQ(argmax.at(0, 0), -1);
  kernels::gather(g, ReduceFn::Mean, false, e, out, nullptr);
  EXPECT_FLOAT_EQ(out.at(2, 0), 4.f);
}

TEST(Kernels, GatherReverseReducesOutgoing) {
  Graph g = path3();
  Tensor e(3, 1);
  e.at(0, 0) = 1.f;
  e.at(1, 0) = 5.f;
  e.at(2, 0) = 3.f;
  Tensor out(3, 1);
  kernels::gather(g, ReduceFn::Sum, true, e, out, nullptr);
  EXPECT_FLOAT_EQ(out.at(0, 0), 4.f);  // edges 0 and 2 leave vertex 0
  EXPECT_FLOAT_EQ(out.at(1, 0), 5.f);
  EXPECT_FLOAT_EQ(out.at(2, 0), 0.f);
}

TEST(Kernels, EdgeBalancedGatherMatchesVertexBalanced) {
  Rng rng(17);
  Graph g = gen::erdos_renyi(40, 300, rng);
  Tensor e = Tensor::randn(300, 5, rng);
  Tensor a(40, 5), b(40, 5);
  kernels::gather(g, ReduceFn::Sum, false, e, a, nullptr);
  kernels::gather_edge_balanced(g, e, b, false);
  EXPECT_LT(ops::max_abs_diff(a, b), 1e-3f);
  kernels::gather(g, ReduceFn::Sum, true, e, a, nullptr);
  kernels::gather_edge_balanced(g, e, b, true);
  EXPECT_LT(ops::max_abs_diff(a, b), 1e-3f);
}

TEST(Kernels, EdgeBalancedChargesAtomics) {
  Rng rng(17);
  Graph g = gen::erdos_renyi(10, 50, rng);
  Tensor e = Tensor::randn(50, 2, rng);
  Tensor out(10, 2);
  CounterScope scope;
  kernels::gather_edge_balanced(g, e, out, false);
  EXPECT_EQ(scope.delta().atomic_ops, 100u);  // |E| * width
  CounterScope scope2;
  kernels::gather(g, ReduceFn::Sum, false, e, out, nullptr);
  EXPECT_EQ(scope2.delta().atomic_ops, 0u);
}

TEST(Kernels, EdgeSoftmaxNormalizesPerVertex) {
  Graph g = path3();
  Tensor s(3, 2);
  s.at(0, 0) = 1.f; s.at(0, 1) = -1.f;
  s.at(1, 0) = 2.f; s.at(1, 1) = 0.f;
  s.at(2, 0) = -1.f; s.at(2, 1) = 3.f;
  Tensor w(3, 2);
  kernels::edge_softmax(g, s, w);
  // vertex 1 has single incoming edge 0 -> weight 1.
  EXPECT_NEAR(w.at(0, 0), 1.f, 1e-6f);
  EXPECT_NEAR(w.at(0, 1), 1.f, 1e-6f);
  // vertex 2: edges 1 and 2 normalize.
  EXPECT_NEAR(w.at(1, 0) + w.at(2, 0), 1.f, 1e-6f);
  EXPECT_NEAR(w.at(1, 1) + w.at(2, 1), 1.f, 1e-6f);
  EXPECT_GT(w.at(1, 0), w.at(2, 0));  // 2 > -1
}

TEST(Kernels, EdgeSoftmaxGradMatchesFiniteDiff) {
  Rng rng(23);
  Graph g = gen::erdos_renyi(8, 30, rng);
  Tensor s = Tensor::randn(30, 2, rng);
  Tensor w(30, 2), grad(30, 2), ds(30, 2);
  kernels::edge_softmax(g, s, w);
  for (auto& v : grad.flat()) v = rng.normalf();
  kernels::edge_softmax_grad(g, grad, w, ds);
  // loss = <grad, softmax(s)>; check d loss/d s numerically.
  const float eps = 1e-3f;
  Tensor w2(30, 2);
  for (int e = 0; e < 6; ++e) {
    for (int j = 0; j < 2; ++j) {
      Tensor sp = s.clone();
      sp.at(e, j) += eps;
      kernels::edge_softmax(g, sp, w2);
      float lp = 0.f;
      for (std::int64_t i = 0; i < w2.numel(); ++i) {
        lp += grad.data()[i] * w2.data()[i];
      }
      sp.at(e, j) -= 2 * eps;
      kernels::edge_softmax(g, sp, w2);
      float lm = 0.f;
      for (std::int64_t i = 0; i < w2.numel(); ++i) {
        lm += grad.data()[i] * w2.data()[i];
      }
      EXPECT_NEAR(ds.at(e, j), (lp - lm) / (2 * eps), 5e-2f);
    }
  }
}

TEST(Kernels, GatherMaxBwdRoutesToWinners) {
  Graph g = path3();
  Tensor e(3, 1);
  e.at(0, 0) = 1.f;
  e.at(1, 0) = 5.f;
  e.at(2, 0) = 3.f;
  Tensor mx(3, 1);
  IntTensor argmax(3, 1);
  kernels::gather(g, ReduceFn::Max, false, e, mx, &argmax);
  Tensor gv(3, 1);
  gv.at(0, 0) = 7.f;
  gv.at(1, 0) = 2.f;
  gv.at(2, 0) = 4.f;
  Tensor ge(3, 1);
  kernels::gather_max_bwd(g, gv, argmax, ge, false);
  EXPECT_FLOAT_EQ(ge.at(0, 0), 2.f);  // edge 0 is max into vertex 1
  EXPECT_FLOAT_EQ(ge.at(1, 0), 4.f);  // edge 1 is max into vertex 2
  EXPECT_FLOAT_EQ(ge.at(2, 0), 0.f);  // loser
}

TEST(Kernels, DegreeInv) {
  Graph g = path3();
  Tensor d(3, 1);
  kernels::degree_inv(g, d, false);
  EXPECT_FLOAT_EQ(d.at(0, 0), 1.f);  // isolated: clamp to 1
  EXPECT_FLOAT_EQ(d.at(2, 0), 0.5f);
  kernels::degree_inv(g, d, true);
  EXPECT_FLOAT_EQ(d.at(0, 0), 0.5f);  // two outgoing
}

TEST(Kernels, GaussianPeaksAtMu) {
  Tensor pseudo(2, 2);
  pseudo.at(0, 0) = 0.5f; pseudo.at(0, 1) = 0.5f;
  pseudo.at(1, 0) = 2.f;  pseudo.at(1, 1) = 2.f;
  Tensor mu(1, 2);
  mu.at(0, 0) = 0.5f; mu.at(0, 1) = 0.5f;
  Tensor sigma = Tensor::full(1, 2, 1.f);
  Tensor w(2, 1);
  kernels::gaussian(pseudo, mu, sigma, w);
  EXPECT_NEAR(w.at(0, 0), 1.f, 1e-6f);  // at the mean
  EXPECT_NEAR(w.at(1, 0), std::exp(-0.5f * (1.5f * 1.5f * 2)), 1e-5f);
}

TEST(Kernels, GaussianGradsMatchFiniteDiff) {
  Rng rng(31);
  Tensor pseudo = Tensor::randn(20, 2, rng);
  Tensor mu = Tensor::randn(3, 2, rng);
  Tensor sigma = Tensor::full(3, 2, 0.8f);
  Tensor w(20, 3), grad(20, 3);
  kernels::gaussian(pseudo, mu, sigma, w);
  for (auto& v : grad.flat()) v = rng.normalf();
  Tensor dmu(3, 2), dsig(3, 2);
  kernels::gaussian_grad_mu(grad, pseudo, mu, sigma, w, dmu);
  kernels::gaussian_grad_sigma(grad, pseudo, mu, sigma, w, dsig);
  auto loss = [&](const Tensor& m, const Tensor& s) {
    Tensor ww(20, 3);
    kernels::gaussian(pseudo, m, s, ww);
    float l = 0.f;
    for (std::int64_t i = 0; i < ww.numel(); ++i) {
      l += grad.data()[i] * ww.data()[i];
    }
    return l;
  };
  const float eps = 1e-3f;
  for (int k = 0; k < 3; ++k) {
    for (int j = 0; j < 2; ++j) {
      Tensor mp = mu.clone();
      mp.at(k, j) += eps;
      Tensor mm = mu.clone();
      mm.at(k, j) -= eps;
      EXPECT_NEAR(dmu.at(k, j), (loss(mp, sigma) - loss(mm, sigma)) / (2 * eps),
                  5e-2f);
      Tensor sp = sigma.clone();
      sp.at(k, j) += eps;
      Tensor sm = sigma.clone();
      sm.at(k, j) -= eps;
      EXPECT_NEAR(dsig.at(k, j), (loss(mu, sp) - loss(mu, sm)) / (2 * eps),
                  5e-2f);
    }
  }
}

TEST(Kernels, LinearRowWindowMatchesManualSlice) {
  Rng rng(41);
  Tensor x = Tensor::randn(6, 3, rng);
  Tensor w = Tensor::randn(8, 4, rng);  // use rows [2, 5)
  Tensor out(6, 4);
  kernels::linear(x, w, out, 2, 5);
  Tensor wslice(3, 4);
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 4; ++c) wslice.at(r, c) = w.at(r + 2, c);
  }
  Tensor ref(6, 4);
  ops::matmul(x, wslice, ref);
  EXPECT_EQ(std::memcmp(out.data(), ref.data(), out.bytes()), 0);
}

TEST(Kernels, LinearWGradWindowWritesOnlyWindow) {
  Rng rng(43);
  Tensor x = Tensor::randn(6, 3, rng);
  Tensor grad = Tensor::randn(6, 4, rng);
  Tensor out(8, 4);
  kernels::linear_wgrad(x, grad, out, 2, 5);
  for (int c = 0; c < 4; ++c) {
    EXPECT_FLOAT_EQ(out.at(0, c), 0.f);
    EXPECT_FLOAT_EQ(out.at(7, c), 0.f);
  }
  // window content = xᵀ grad
  Tensor ref(3, 4);
  ops::matmul(x, grad, ref, true);
  EXPECT_EQ(std::memcmp(out.row(2), ref.data(), ref.bytes()), 0);
}

TEST(Kernels, ChargesIoForScatter) {
  Graph g = path3();
  Tensor h = Tensor::zeros(3, 4);
  Tensor out(3, 4);
  CounterScope scope;
  kernels::scatter(g, ScatterFn::CopyU, h, nullptr, out, 1);
  const PerfCounters d = scope.delta();
  // 3 edges * 4 cols * 4 B read + index, 3*4*4 write.
  EXPECT_EQ(d.dram_write_bytes, 48u);
  EXPECT_GE(d.dram_read_bytes, 48u);
  EXPECT_EQ(d.kernel_launches, 1u);
}

}  // namespace
}  // namespace triad
