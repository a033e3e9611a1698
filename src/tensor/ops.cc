#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "support/parallel.h"

namespace triad::ops {

namespace {

// --- GEMM core --------------------------------------------------------------
//
// One pool task computes one output tile of up to kTileM x kTileN elements.
// Inside it, k runs in blocks of kBlockK (a block is never split across
// tasks), and each block sweeps register tiles of up to kMR rows x kNR
// columns. Every output element stays a single chain `acc = acc + a*b` over
// ascending k: a register tile holds kMR x kNR such chains side by side,
// vector lanes run across output columns only, and a chain parks its partial
// sum in C between k blocks (a float store and reload is exact). Tiling and
// threading therefore never change a bit (the contract in ops.h).

// Four float lanes (GCC/Clang vector extension). Lane-wise * and + are the
// scalar IEEE operations, and -ffp-contract=off keeps them unfused.
typedef float Vec4 __attribute__((vector_size(16)));

constexpr std::int64_t kTileM = 64;
constexpr std::int64_t kTileN = 64;
constexpr std::int64_t kBlockK = 256;
constexpr int kMR = 4;
constexpr int kNR = 8;
// Products below this many multiply-adds run on the calling thread: the pool
// fan-out would cost more than it saves.
constexpr std::int64_t kMinParallelMacs = std::int64_t{1} << 17;

inline Vec4 load4(const float* p) {
  Vec4 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store4(float* p, Vec4 v) { std::memcpy(p, &v, sizeof v); }

/// One product, strides resolved: op(A)(i, p) = a[i * a_rs + p * a_cs] reads
/// A in place whether or not it is transposed; op(B) is row-major with row
/// stride ldb (packed beforehand when B is transposed).
struct Gemm {
  const float* a;
  std::int64_t a_rs, a_cs;
  const float* b;
  std::int64_t ldb;
  float* c;
  std::int64_t ldc;
  std::int64_t k;
  bool accumulate;
};

/// C[i:i+MR, j:j+4*NV] over k in [k0, k0 + kc); starts from C when load_c,
/// else from zero.
template <int MR, int NV>
void register_tile(const Gemm& g, std::int64_t i, std::int64_t j,
                   std::int64_t k0, std::int64_t kc, bool load_c) {
  float* c = g.c + i * g.ldc + j;
  Vec4 acc[MR][NV];
  for (int r = 0; r < MR; ++r) {
    for (int v = 0; v < NV; ++v) {
      acc[r][v] = load_c ? load4(c + r * g.ldc + 4 * v) : Vec4{};
    }
  }
  const float* a = g.a + i * g.a_rs + k0 * g.a_cs;
  const float* b = g.b + k0 * g.ldb + j;
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* brow = b + p * g.ldb;
    Vec4 bv[NV];
    for (int v = 0; v < NV; ++v) bv[v] = load4(brow + 4 * v);
    for (int r = 0; r < MR; ++r) {
      const float s = a[r * g.a_rs + p * g.a_cs];
      const Vec4 av = {s, s, s, s};
      for (int v = 0; v < NV; ++v) acc[r][v] = acc[r][v] + av * bv[v];
    }
  }
  for (int r = 0; r < MR; ++r) {
    for (int v = 0; v < NV; ++v) store4(c + r * g.ldc + 4 * v, acc[r][v]);
  }
}

/// Rows [i0, i1) of one 4*NV-column strip: full kMR-row tiles, then the
/// leftover rows as one shorter tile.
template <int NV>
void strip(const Gemm& g, std::int64_t i0, std::int64_t i1, std::int64_t j,
           std::int64_t k0, std::int64_t kc, bool load_c) {
  std::int64_t i = i0;
  for (; i + kMR <= i1; i += kMR) register_tile<kMR, NV>(g, i, j, k0, kc, load_c);
  switch (i1 - i) {
    case 3: register_tile<3, NV>(g, i, j, k0, kc, load_c); break;
    case 2: register_tile<2, NV>(g, i, j, k0, kc, load_c); break;
    case 1: register_tile<1, NV>(g, i, j, k0, kc, load_c); break;
    default: break;
  }
}

/// The last n % 4 columns, one scalar chain per element.
void scalar_cols(const Gemm& g, std::int64_t i0, std::int64_t i1,
                 std::int64_t j0, std::int64_t j1, std::int64_t k0,
                 std::int64_t kc, bool load_c) {
  for (std::int64_t i = i0; i < i1; ++i) {
    for (std::int64_t j = j0; j < j1; ++j) {
      float* c = g.c + i * g.ldc + j;
      float acc = load_c ? *c : 0.f;
      const float* a = g.a + i * g.a_rs + k0 * g.a_cs;
      const float* b = g.b + k0 * g.ldb + j;
      for (std::int64_t p = 0; p < kc; ++p) acc = acc + a[p * g.a_cs] * b[p * g.ldb];
      *c = acc;
    }
  }
}

/// One task: output tile [i0, i1) x [j0, j1), all of k.
void output_tile(const Gemm& g, std::int64_t i0, std::int64_t i1,
                 std::int64_t j0, std::int64_t j1) {
  for (std::int64_t k0 = 0; k0 < g.k; k0 += kBlockK) {
    const std::int64_t kc = std::min(kBlockK, g.k - k0);
    const bool load_c = g.accumulate || k0 > 0;
    std::int64_t j = j0;
    for (; j + kNR <= j1; j += kNR) strip<kNR / 4>(g, i0, i1, j, k0, kc, load_c);
    if (j + 4 <= j1) {
      strip<1>(g, i0, i1, j, k0, kc, load_c);
      j += 4;
    }
    if (j < j1) scalar_cols(g, i0, i1, j, j1, k0, kc, load_c);
  }
}

// Elementwise work per pool task; ranges up to this size run on the calling
// thread. Each element is independent, so any chunking gives the same bits.
constexpr std::int64_t kElemGrain = std::int64_t{1} << 14;
// bias_grad's column block: one cache line of floats per row.
constexpr std::int64_t kColBlock = 16;

template <typename F>
void unary(const Tensor& x, Tensor& out, F f) {
  TRIAD_CHECK_EQ(x.rows(), out.rows());
  TRIAD_CHECK_EQ(x.cols(), out.cols());
  const float* in = x.data();
  float* o = out.data();
  parallel_for_chunks(0, x.numel(), [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) o[i] = f(in[i]);
  }, kElemGrain);
}

template <typename F>
void binary(const Tensor& a, const Tensor& b, Tensor& out, F f) {
  TRIAD_CHECK(a.rows() == b.rows() && a.cols() == b.cols() &&
                  a.rows() == out.rows() && a.cols() == out.cols(),
              "binary op shape mismatch: (" << a.rows() << "," << a.cols()
              << ") vs (" << b.rows() << "," << b.cols() << ")");
  const float* pa = a.data();
  const float* pb = b.data();
  float* o = out.data();
  parallel_for_chunks(0, a.numel(), [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) o[i] = f(pa[i], pb[i]);
  }, kElemGrain);
}

}  // namespace

MatView<const float> rows_of(const Tensor& t, std::int64_t lo, std::int64_t hi) {
  if (hi < 0) hi = t.rows();
  TRIAD_CHECK(0 <= lo && lo <= hi && hi <= t.rows(),
              "row window [" << lo << "," << hi << ") of " << t.rows() << " rows");
  return {t.data() + lo * t.cols(), hi - lo, t.cols(), t.cols()};
}

MatView<float> rows_of(Tensor& t, std::int64_t lo, std::int64_t hi) {
  const MatView<const float> v = rows_of(std::as_const(t), lo, hi);
  return {const_cast<float*>(v.data), v.rows, v.cols, v.ld};
}

void matmul(MatView<const float> a, MatView<const float> b, MatView<float> c,
            bool trans_a, bool trans_b, bool accumulate) {
  const std::int64_t m = trans_a ? a.cols : a.rows;
  const std::int64_t k = trans_a ? a.rows : a.cols;
  const std::int64_t kb = trans_b ? b.cols : b.rows;
  const std::int64_t n = trans_b ? b.rows : b.cols;
  TRIAD_CHECK_EQ(k, kb, "matmul inner dim");
  TRIAD_CHECK_EQ(c.rows, m);
  TRIAD_CHECK_EQ(c.cols, n);
  if (m == 0 || n == 0) return;
  if (k == 0) {
    if (!accumulate) {
      for (std::int64_t i = 0; i < m; ++i) std::fill_n(c.data + i * c.ld, n, 0.f);
    }
    return;
  }
  Gemm g{a.data, trans_a ? 1 : a.ld, trans_a ? a.ld : 1, b.data, b.ld,
         c.data, c.ld, k, accumulate};
  // A transposed B (the small weight of LinearXGrad) is packed row-major so
  // the vector lanes can load op(B) rows.
  Tensor bt;
  if (trans_b) {
    bt = Tensor(k, n, MemTag::kWorkspace);
    float* dst = bt.data();
    for (std::int64_t j = 0; j < n; ++j) {
      const float* src = b.data + j * b.ld;
      for (std::int64_t p = 0; p < k; ++p) dst[p * n + j] = src[p];
    }
    g.b = dst;
    g.ldb = n;
  }
  const std::int64_t tiles_n = (n + kTileN - 1) / kTileN;
  const std::int64_t tiles = (m + kTileM - 1) / kTileM * tiles_n;
  const auto run = [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t t = lo; t < hi; ++t) {
      const std::int64_t i0 = t / tiles_n * kTileM;
      const std::int64_t j0 = t % tiles_n * kTileN;
      output_tile(g, i0, std::min(i0 + kTileM, m), j0, std::min(j0 + kTileN, n));
    }
  };
  if (m * n * k < kMinParallelMacs) {
    run(0, tiles);
  } else {
    parallel_for_chunks(0, tiles, run, 1);
  }
}

void matmul(const Tensor& a, const Tensor& b, Tensor& c, bool trans_a,
            bool trans_b, bool accumulate) {
  matmul(rows_of(a), rows_of(b), rows_of(c), trans_a, trans_b, accumulate);
}

void add_bias(const Tensor& x, const Tensor& bias, Tensor& out) {
  TRIAD_CHECK_EQ(bias.rows(), 1);
  TRIAD_CHECK_EQ(bias.cols(), x.cols());
  TRIAD_CHECK_EQ(out.rows(), x.rows());
  TRIAD_CHECK_EQ(out.cols(), x.cols());
  const std::int64_t cols = x.cols();
  const float* b = bias.data();
  parallel_for_chunks(0, x.rows(), [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t r = lo; r < hi; ++r) {
      const float* in = x.row(r);
      float* o = out.row(r);
      for (std::int64_t c = 0; c < cols; ++c) o[c] = in[c] + b[c];
    }
  }, std::max<std::int64_t>(1, kElemGrain / std::max<std::int64_t>(1, cols)));
}

void bias_grad(const Tensor& grad, Tensor& bg, bool accumulate) {
  TRIAD_CHECK_EQ(bg.rows(), 1);
  TRIAD_CHECK_EQ(bg.cols(), grad.cols());
  const std::int64_t rows = grad.rows();
  float* out = bg.data();
  // Each column is one sum in row order, so column blocks run independently.
  const auto sum_cols = [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t c0 = lo; c0 < hi; c0 += kColBlock) {
      const std::int64_t w = std::min(kColBlock, hi - c0);
      float acc[kColBlock];
      for (std::int64_t c = 0; c < w; ++c) acc[c] = accumulate ? out[c0 + c] : 0.f;
      for (std::int64_t r = 0; r < rows; ++r) {
        const float* row = grad.row(r) + c0;
        for (std::int64_t c = 0; c < w; ++c) acc[c] += row[c];
      }
      std::copy_n(acc, w, out + c0);
    }
  };
  if (grad.numel() <= kElemGrain) {
    sum_cols(0, grad.cols());
  } else {
    parallel_for_chunks(0, grad.cols(), sum_cols, kColBlock);
  }
}

void leaky_relu(const Tensor& x, Tensor& out, float slope) {
  unary(x, out, [slope](float v) { return v > 0.f ? v : slope * v; });
}
void relu(const Tensor& x, Tensor& out) {
  unary(x, out, [](float v) { return v > 0.f ? v : 0.f; });
}
void elu(const Tensor& x, Tensor& out, float alpha) {
  unary(x, out, [alpha](float v) { return v > 0.f ? v : alpha * (std::exp(v) - 1.f); });
}
void exp(const Tensor& x, Tensor& out) {
  unary(x, out, [](float v) { return std::exp(v); });
}
void neg(const Tensor& x, Tensor& out) {
  unary(x, out, [](float v) { return -v; });
}
void scale(const Tensor& x, Tensor& out, float s) {
  unary(x, out, [s](float v) { return s * v; });
}
void copy(const Tensor& x, Tensor& out) {
  TRIAD_CHECK_EQ(x.numel(), out.numel());
  std::memcpy(out.data(), x.data(), x.bytes());
}

void leaky_relu_grad(const Tensor& gy, const Tensor& x, Tensor& out, float slope) {
  binary(gy, x, out, [slope](float g, float v) { return v > 0.f ? g : slope * g; });
}
void relu_grad(const Tensor& gy, const Tensor& x, Tensor& out) {
  binary(gy, x, out, [](float g, float v) { return v > 0.f ? g : 0.f; });
}
void elu_grad(const Tensor& gy, const Tensor& x, Tensor& out, float alpha) {
  binary(gy, x, out, [alpha](float g, float v) {
    return v > 0.f ? g : g * alpha * std::exp(v);
  });
}
void exp_grad(const Tensor& gy, const Tensor& y, Tensor& out) {
  binary(gy, y, out, [](float g, float v) { return g * v; });
}

void add(const Tensor& a, const Tensor& b, Tensor& out) {
  binary(a, b, out, [](float x, float y) { return x + y; });
}
void sub(const Tensor& a, const Tensor& b, Tensor& out) {
  binary(a, b, out, [](float x, float y) { return x - y; });
}
void mul(const Tensor& a, const Tensor& b, Tensor& out) {
  binary(a, b, out, [](float x, float y) { return x * y; });
}
void div(const Tensor& a, const Tensor& b, Tensor& out) {
  binary(a, b, out, [](float x, float y) { return x / y; });
}

void mul_head(const Tensor& a, const Tensor& b, Tensor& out, std::int64_t heads) {
  TRIAD_CHECK_EQ(a.rows(), b.rows());
  TRIAD_CHECK_EQ(b.cols(), heads);
  TRIAD_CHECK_EQ(a.cols() % heads, 0, "feature width not divisible by heads");
  TRIAD_CHECK_EQ(out.rows(), a.rows());
  TRIAD_CHECK_EQ(out.cols(), a.cols());
  const std::int64_t f = a.cols() / heads;
  for (std::int64_t r = 0; r < a.rows(); ++r) {
    const float* arow = a.row(r);
    const float* brow = b.row(r);
    float* orow = out.row(r);
    for (std::int64_t h = 0; h < heads; ++h) {
      const float s = brow[h];
      for (std::int64_t j = 0; j < f; ++j) orow[h * f + j] = s * arow[h * f + j];
    }
  }
}

void dot_head(const Tensor& a, const Tensor& b, Tensor& out, std::int64_t heads) {
  TRIAD_CHECK_EQ(a.rows(), b.rows());
  TRIAD_CHECK_EQ(a.cols(), b.cols());
  TRIAD_CHECK_EQ(a.cols() % heads, 0);
  TRIAD_CHECK_EQ(out.rows(), a.rows());
  TRIAD_CHECK_EQ(out.cols(), heads);
  const std::int64_t f = a.cols() / heads;
  for (std::int64_t r = 0; r < a.rows(); ++r) {
    const float* arow = a.row(r);
    const float* brow = b.row(r);
    float* orow = out.row(r);
    for (std::int64_t h = 0; h < heads; ++h) {
      float acc = 0.f;
      for (std::int64_t j = 0; j < f; ++j) acc += arow[h * f + j] * brow[h * f + j];
      orow[h] = acc;
    }
  }
}

void head_sum(const Tensor& x, Tensor& out, std::int64_t heads, float alpha) {
  TRIAD_CHECK_EQ(x.cols() % heads, 0);
  const std::int64_t f = x.cols() / heads;
  TRIAD_CHECK_EQ(out.rows(), x.rows());
  TRIAD_CHECK_EQ(out.cols(), f);
  for (std::int64_t r = 0; r < x.rows(); ++r) {
    const float* xr = x.row(r);
    float* orow = out.row(r);
    for (std::int64_t j = 0; j < f; ++j) {
      float acc = 0.f;
      for (std::int64_t k = 0; k < heads; ++k) acc += xr[k * f + j];
      orow[j] = alpha * acc;
    }
  }
}

void head_broadcast(const Tensor& x, Tensor& out, std::int64_t heads, float alpha) {
  const std::int64_t f = x.cols();
  TRIAD_CHECK_EQ(out.rows(), x.rows());
  TRIAD_CHECK_EQ(out.cols(), f * heads);
  for (std::int64_t r = 0; r < x.rows(); ++r) {
    const float* xr = x.row(r);
    float* orow = out.row(r);
    for (std::int64_t k = 0; k < heads; ++k) {
      for (std::int64_t j = 0; j < f; ++j) orow[k * f + j] = alpha * xr[j];
    }
  }
}

void axpy(Tensor& y, const Tensor& x, float alpha) {
  TRIAD_CHECK_EQ(y.numel(), x.numel());
  float* py = y.data();
  const float* px = x.data();
  const std::int64_t n = y.numel();
  for (std::int64_t i = 0; i < n; ++i) py[i] += alpha * px[i];
}

void concat_cols(const Tensor& a, const Tensor& b, Tensor& out) {
  TRIAD_CHECK_EQ(a.rows(), b.rows());
  TRIAD_CHECK_EQ(out.rows(), a.rows());
  TRIAD_CHECK_EQ(out.cols(), a.cols() + b.cols());
  for (std::int64_t r = 0; r < a.rows(); ++r) {
    std::memcpy(out.row(r), a.row(r), static_cast<std::size_t>(a.cols()) * sizeof(float));
    std::memcpy(out.row(r) + a.cols(), b.row(r),
                static_cast<std::size_t>(b.cols()) * sizeof(float));
  }
}

void slice_cols(const Tensor& x, Tensor& out, std::int64_t lo, std::int64_t hi) {
  TRIAD_CHECK(lo >= 0 && lo < hi && hi <= x.cols(), "bad slice [" << lo << "," << hi << ")");
  TRIAD_CHECK_EQ(out.rows(), x.rows());
  TRIAD_CHECK_EQ(out.cols(), hi - lo);
  for (std::int64_t r = 0; r < x.rows(); ++r) {
    std::memcpy(out.row(r), x.row(r) + lo,
                static_cast<std::size_t>(hi - lo) * sizeof(float));
  }
}

float softmax_cross_entropy(const Tensor& logits, const IntTensor& labels,
                            Tensor* grad) {
  TRIAD_CHECK_EQ(labels.rows(), logits.rows());
  TRIAD_CHECK_EQ(labels.cols(), 1);
  if (grad != nullptr) {
    TRIAD_CHECK_EQ(grad->rows(), logits.rows());
    TRIAD_CHECK_EQ(grad->cols(), logits.cols());
  }
  const std::int64_t n = logits.rows();
  const std::int64_t c = logits.cols();
  const float inv_n = 1.f / static_cast<float>(n);
  double loss = 0.0;
  for (std::int64_t r = 0; r < n; ++r) {
    const float* row = logits.row(r);
    const std::int32_t y = labels.at(r, 0);
    TRIAD_CHECK(y >= 0 && y < c, "label " << y << " out of range " << c);
    float mx = row[0];
    for (std::int64_t j = 1; j < c; ++j) mx = std::max(mx, row[j]);
    double denom = 0.0;
    for (std::int64_t j = 0; j < c; ++j) denom += std::exp(static_cast<double>(row[j] - mx));
    loss += std::log(denom) - static_cast<double>(row[y] - mx);
    if (grad != nullptr) {
      float* grow = grad->row(r);
      for (std::int64_t j = 0; j < c; ++j) {
        const float p = static_cast<float>(std::exp(static_cast<double>(row[j] - mx)) / denom);
        grow[j] = (p - (j == y ? 1.f : 0.f)) * inv_n;
      }
    }
  }
  return static_cast<float>(loss / static_cast<double>(n));
}

float accuracy(const Tensor& logits, const IntTensor& labels) {
  std::int64_t hit = 0;
  for (std::int64_t r = 0; r < logits.rows(); ++r) {
    const float* row = logits.row(r);
    std::int64_t best = 0;
    for (std::int64_t j = 1; j < logits.cols(); ++j) {
      if (row[j] > row[best]) best = j;
    }
    if (best == labels.at(r, 0)) ++hit;
  }
  return static_cast<float>(hit) / static_cast<float>(logits.rows());
}

float max_abs_diff(const Tensor& a, const Tensor& b) {
  TRIAD_CHECK_EQ(a.rows(), b.rows());
  TRIAD_CHECK_EQ(a.cols(), b.cols());
  float m = 0.f;
  const float* pa = a.data();
  const float* pb = b.data();
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    m = std::max(m, std::fabs(pa[i] - pb[i]));
  }
  return m;
}

bool allclose(const Tensor& a, const Tensor& b, float atol, float rtol) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  const float* pa = a.data();
  const float* pb = b.data();
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    const float diff = std::fabs(pa[i] - pb[i]);
    if (diff > atol + rtol * std::fabs(pb[i])) return false;
  }
  return true;
}

}  // namespace triad::ops
