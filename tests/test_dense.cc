// Bitwise tests of the dense-kernel contract in tensor/ops.h: matmul sums
// every output element as one chain `acc = acc + a*b` over ascending k, so
// its result equals a naive triple loop bit for bit at every shape, for any
// tiling and thread count; the elementwise ops, bias and bias_grad equal
// their serial loops once the pool splits them into chunks. The equivalence
// sweeps (K shards = 1 shard, pipelined = barrier, batched = solo) rely on
// this: the same rows must give the same bits whatever else runs beside them.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>

#include "support/parallel.h"
#include "support/rng.h"
#include "tensor/ops.h"

namespace triad {
namespace {

// Four pool threads even on a 1-vCPU host, so the tile-parallel and chunked
// paths run. Set before any test touches the pool.
const bool kPoolPinned = set_global_pool_threads(4);

bool same_bits(const Tensor& x, const Tensor& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(), x.bytes()) == 0;
}

/// The contract spelled out: C (+)= op(A) op(B), one chain per element.
void naive_matmul(const Tensor& a, const Tensor& b, Tensor& c, bool trans_a,
                  bool trans_b, bool accumulate) {
  const std::int64_t m = c.rows();
  const std::int64_t n = c.cols();
  const std::int64_t k = trans_a ? a.rows() : a.cols();
  const float* pa = a.data();
  const float* pb = b.data();
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float acc = accumulate ? c.row(i)[j] : 0.f;
      for (std::int64_t p = 0; p < k; ++p) {
        const float av = trans_a ? pa[p * a.cols() + i] : pa[i * a.cols() + p];
        const float bv = trans_b ? pb[j * b.cols() + p] : pb[p * b.cols() + j];
        acc = acc + av * bv;
      }
      c.row(i)[j] = acc;
    }
  }
}

/// Runs matmul and the naive loop on the same random operands; true when
/// the outputs are bitwise equal. `accumulate` starts both from a random C.
bool matmul_matches(std::int64_t m, std::int64_t n, std::int64_t k,
                    bool trans_a, bool trans_b, bool accumulate, Rng& rng) {
  const Tensor a = trans_a ? Tensor::randn(k, m, rng) : Tensor::randn(m, k, rng);
  const Tensor b = trans_b ? Tensor::randn(n, k, rng) : Tensor::randn(k, n, rng);
  const Tensor c0 = accumulate ? Tensor::randn(m, n, rng) : Tensor::zeros(m, n);
  Tensor got = c0.clone();
  Tensor want = c0.clone();
  ops::matmul(a, b, got, trans_a, trans_b, accumulate);
  naive_matmul(a, b, want, trans_a, trans_b, accumulate);
  return same_bits(got, want);
}

TEST(Dense, PoolIsPinnedToFourThreads) {
  ASSERT_TRUE(kPoolPinned);
  EXPECT_EQ(global_pool().size(), 4u);
}

// Full tiles, edge tiles in both directions, and k crossing block bounds.
TEST(Dense, MatmulSweepIsBitwiseNaive) {
  const std::int64_t sizes[] = {1, 3, 4, 5, 8, 9, 63, 64, 65, 300};
  Rng rng(11);
  for (const bool trans_a : {false, true}) {
    for (const bool trans_b : {false, true}) {
      for (const bool accumulate : {false, true}) {
        for (const std::int64_t m : sizes) {
          for (const std::int64_t n : sizes) {
            for (const std::int64_t k : sizes) {
              ASSERT_TRUE(matmul_matches(m, n, k, trans_a, trans_b, accumulate, rng))
                  << "m=" << m << " n=" << n << " k=" << k
                  << " trans_a=" << trans_a << " trans_b=" << trans_b
                  << " accumulate=" << accumulate;
            }
          }
        }
      }
    }
  }
}

// The shapes the benchmark workloads run: EdgeConv's layer-3 Linear, its
// input gradient and weight gradient, and GAT's two weight gradients over
// all 2^14 vertices.
TEST(Dense, BenchmarkShapesAreBitwiseNaive) {
  struct Case {
    const char* name;
    std::int64_t m, n, k;
    bool trans_a, trans_b;
  };
  const Case cases[] = {
      {"edgeconv linear 2048x128 . 128x256", 2048, 256, 128, false, false},
      {"edgeconv xgrad 2048x256 . (128x256)^T", 2048, 128, 256, false, true},
      {"edgeconv wgrad 128x256, k=2048", 128, 256, 2048, true, false},
      {"gat wgrad 32x64, k=16384", 32, 64, 16384, true, false},
      {"gat wgrad 64x4, k=16384", 64, 4, 16384, true, false},
  };
  Rng rng(13);
  for (const Case& c : cases) {
    EXPECT_TRUE(matmul_matches(c.m, c.n, c.k, c.trans_a, c.trans_b, false, rng))
        << c.name;
  }
}

// Windows of rows read and written in place, as the Linear kernels use them.
TEST(Dense, RowWindowsAreBitwiseCopies) {
  Rng rng(17);
  const Tensor x = Tensor::randn(300, 24, rng);
  const Tensor w = Tensor::randn(70, 40, rng);
  Tensor got = Tensor::zeros(300, 40);
  ops::matmul(ops::rows_of(x), ops::rows_of(w, 30, 54), ops::rows_of(got));
  Tensor slice(24, 40);
  std::memcpy(slice.data(), w.row(30), slice.bytes());
  Tensor want = Tensor::zeros(300, 40);
  naive_matmul(x, slice, want, false, false, false);
  EXPECT_TRUE(same_bits(got, want));

  Tensor out = Tensor::full(70, 40, 5.f);
  const Tensor g = Tensor::randn(300, 40, rng);
  ops::matmul(ops::rows_of(x), ops::rows_of(g), ops::rows_of(out, 30, 54),
              /*trans_a=*/true);
  Tensor window = Tensor::zeros(24, 40);
  naive_matmul(x, g, window, true, false, false);
  EXPECT_EQ(std::memcmp(out.row(30), window.data(), window.bytes()), 0);
  EXPECT_EQ(out.at(29, 39), 5.f);  // rows outside the window untouched
  EXPECT_EQ(out.at(54, 0), 5.f);
  EXPECT_THROW(ops::rows_of(w, 60, 71), Error);
}

// Sizes above every chunk grain, so the pool splits each op.
constexpr std::int64_t kRows = 1500;
constexpr std::int64_t kCols = 53;

template <typename Op, typename F>
void expect_unary_serial(const char* name, Op op, F f) {
  Rng rng(19);
  const Tensor x = Tensor::randn(kRows, kCols, rng);
  Tensor got(kRows, kCols);
  Tensor want(kRows, kCols);
  op(x, got);
  for (std::int64_t i = 0; i < x.numel(); ++i) want.data()[i] = f(x.data()[i]);
  EXPECT_TRUE(same_bits(got, want)) << name;
}

template <typename Op, typename F>
void expect_binary_serial(const char* name, Op op, F f) {
  Rng rng(23);
  const Tensor a = Tensor::randn(kRows, kCols, rng);
  const Tensor b = Tensor::randn(kRows, kCols, rng);
  Tensor got(kRows, kCols);
  Tensor want(kRows, kCols);
  op(a, b, got);
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    want.data()[i] = f(a.data()[i], b.data()[i]);
  }
  EXPECT_TRUE(same_bits(got, want)) << name;
}

TEST(Dense, ElementwiseChunksAreBitwiseSerial) {
  const float s = 0.2f;
  expect_unary_serial("leaky_relu", [&](const Tensor& x, Tensor& o) { ops::leaky_relu(x, o, s); },
                      [&](float v) { return v > 0.f ? v : s * v; });
  expect_unary_serial("relu", [](const Tensor& x, Tensor& o) { ops::relu(x, o); },
                      [](float v) { return v > 0.f ? v : 0.f; });
  expect_unary_serial("elu", [&](const Tensor& x, Tensor& o) { ops::elu(x, o, s); },
                      [&](float v) { return v > 0.f ? v : s * (std::exp(v) - 1.f); });
  expect_unary_serial("exp", [](const Tensor& x, Tensor& o) { ops::exp(x, o); },
                      [](float v) { return std::exp(v); });
  expect_unary_serial("neg", [](const Tensor& x, Tensor& o) { ops::neg(x, o); },
                      [](float v) { return -v; });
  expect_unary_serial("scale", [&](const Tensor& x, Tensor& o) { ops::scale(x, o, s); },
                      [&](float v) { return s * v; });

  expect_binary_serial("add", [](const Tensor& a, const Tensor& b, Tensor& o) { ops::add(a, b, o); },
                       [](float x, float y) { return x + y; });
  expect_binary_serial("sub", [](const Tensor& a, const Tensor& b, Tensor& o) { ops::sub(a, b, o); },
                       [](float x, float y) { return x - y; });
  expect_binary_serial("mul", [](const Tensor& a, const Tensor& b, Tensor& o) { ops::mul(a, b, o); },
                       [](float x, float y) { return x * y; });
  expect_binary_serial("div", [](const Tensor& a, const Tensor& b, Tensor& o) { ops::div(a, b, o); },
                       [](float x, float y) { return x / y; });
  expect_binary_serial(
      "leaky_relu_grad",
      [&](const Tensor& g, const Tensor& x, Tensor& o) { ops::leaky_relu_grad(g, x, o, s); },
      [&](float g, float v) { return v > 0.f ? g : s * g; });
  expect_binary_serial(
      "relu_grad", [](const Tensor& g, const Tensor& x, Tensor& o) { ops::relu_grad(g, x, o); },
      [](float g, float v) { return v > 0.f ? g : 0.f; });
  expect_binary_serial(
      "elu_grad",
      [&](const Tensor& g, const Tensor& x, Tensor& o) { ops::elu_grad(g, x, o, s); },
      [&](float g, float v) { return v > 0.f ? g : g * s * std::exp(v); });
  expect_binary_serial(
      "exp_grad", [](const Tensor& g, const Tensor& y, Tensor& o) { ops::exp_grad(g, y, o); },
      [](float g, float v) { return g * v; });
}

TEST(Dense, BiasChunksAreBitwiseSerial) {
  Rng rng(29);
  const Tensor x = Tensor::randn(kRows, kCols, rng);
  const Tensor b = Tensor::randn(1, kCols, rng);
  Tensor got(kRows, kCols);
  ops::add_bias(x, b, got);
  Tensor want(kRows, kCols);
  for (std::int64_t r = 0; r < kRows; ++r) {
    for (std::int64_t c = 0; c < kCols; ++c) want.row(r)[c] = x.row(r)[c] + b.data()[c];
  }
  EXPECT_TRUE(same_bits(got, want));
  Tensor in_place = x.clone();
  ops::add_bias(in_place, b, in_place);
  EXPECT_TRUE(same_bits(in_place, want));
}

TEST(Dense, BiasGradColumnBlocksAreBitwiseSerial) {
  Rng rng(31);
  const Tensor g = Tensor::randn(kRows, kCols, rng);
  for (const bool accumulate : {false, true}) {
    const Tensor start = Tensor::randn(1, kCols, rng);
    Tensor got = start.clone();
    ops::bias_grad(g, got, accumulate);
    Tensor want = start.clone();
    for (std::int64_t c = 0; c < kCols; ++c) {
      float acc = accumulate ? start.data()[c] : 0.f;
      for (std::int64_t r = 0; r < kRows; ++r) acc = acc + g.row(r)[c];
      want.data()[c] = acc;
    }
    EXPECT_TRUE(same_bits(got, want)) << "accumulate=" << accumulate;
  }
}

}  // namespace
}  // namespace triad
