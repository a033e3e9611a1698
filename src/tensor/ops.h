/// \file
/// Raw dense math used by the engine's kernels.
///
/// These routines do the arithmetic only; cost accounting (FLOPs/DRAM bytes)
/// is charged by the engine kernels that invoke them, so the same math can be
/// reused by tests without polluting the experiment counters.
#pragma once

#include <cstdint>

#include "tensor/tensor.h"

namespace triad::ops {

/// A row-major matrix read or written in place: element (r, c) lives at
/// data[r * ld + c]. Views a whole Tensor or a window of its rows.
template <typename T>
struct MatView {
  T* data = nullptr;
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::int64_t ld = 0;  ///< row stride in elements (>= cols)
};

/// Rows [lo, hi) of t; hi < 0 means t.rows().
MatView<const float> rows_of(const Tensor& t, std::int64_t lo = 0,
                             std::int64_t hi = -1);
MatView<float> rows_of(Tensor& t, std::int64_t lo = 0, std::int64_t hi = -1);

/// C (+)= op(A) * op(B), row-major.
/// A is (m,k) when !trans_a else (k,m); B is (k,n) when !trans_b else (n,k).
///
/// Contract: every output element is summed as `acc = acc + a*b` over k in
/// ascending order, starting from 0 (or from C's value when `accumulate`),
/// with each multiply and add rounded separately. The result is therefore the
/// same bits for any tiling and any thread count (tests/test_dense.cc).
void matmul(MatView<const float> a, MatView<const float> b, MatView<float> c,
            bool trans_a = false, bool trans_b = false, bool accumulate = false);
void matmul(const Tensor& a, const Tensor& b, Tensor& c, bool trans_a = false,
            bool trans_b = false, bool accumulate = false);

/// out[r, :] = x[r, :] + bias[0, :] for every row (out may alias x).
void add_bias(const Tensor& x, const Tensor& bias, Tensor& out);
/// bias_grad[0, :] (+)= column-sums of grad, each column summed in row order.
void bias_grad(const Tensor& grad, Tensor& bias_grad, bool accumulate);

// --- Elementwise unary (out may alias x) ---------------------------------
void leaky_relu(const Tensor& x, Tensor& out, float slope);
void relu(const Tensor& x, Tensor& out);
void elu(const Tensor& x, Tensor& out, float alpha);
void exp(const Tensor& x, Tensor& out);
void neg(const Tensor& x, Tensor& out);
void scale(const Tensor& x, Tensor& out, float s);
void copy(const Tensor& x, Tensor& out);

// Derivatives: out = grad_y * f'(x or y), see each signature.
void leaky_relu_grad(const Tensor& grad_y, const Tensor& x, Tensor& out, float slope);
void relu_grad(const Tensor& grad_y, const Tensor& x, Tensor& out);
void elu_grad(const Tensor& grad_y, const Tensor& x, Tensor& out, float alpha);
/// exp'(x) = exp(x) = y, so the derivative reuses the forward *output*.
void exp_grad(const Tensor& grad_y, const Tensor& y, Tensor& out);

// --- Elementwise binary ----------------------------------------------------
void add(const Tensor& a, const Tensor& b, Tensor& out);
void sub(const Tensor& a, const Tensor& b, Tensor& out);
void mul(const Tensor& a, const Tensor& b, Tensor& out);
void div(const Tensor& a, const Tensor& b, Tensor& out);
/// out[r, k*f+j] = a[r, k*f+j] * b[r, k] — per-head scalar × feature block.
void mul_head(const Tensor& a, const Tensor& b, Tensor& out, std::int64_t heads);
/// Head-reduction: out[r, k] = sum_j a[r, k*f+j] * b[r, k*f+j].
void dot_head(const Tensor& a, const Tensor& b, Tensor& out, std::int64_t heads);
/// out[r, j] = alpha * sum_k x[r, k*f+j] (x has heads*f cols).
void head_sum(const Tensor& x, Tensor& out, std::int64_t heads, float alpha);
/// out[r, k*f+j] = alpha * x[r, j].
void head_broadcast(const Tensor& x, Tensor& out, std::int64_t heads, float alpha);
void axpy(Tensor& y, const Tensor& x, float alpha);  ///< y += alpha * x

/// out[:, 0:a.cols] = a, out[:, a.cols:] = b.
void concat_cols(const Tensor& a, const Tensor& b, Tensor& out);
/// out = x[:, lo:hi].
void slice_cols(const Tensor& x, Tensor& out, std::int64_t lo, std::int64_t hi);

// --- Losses / classification ----------------------------------------------
/// Row-wise softmax cross-entropy against integer labels.
/// Returns mean loss; if grad != nullptr, writes d loss / d logits into it.
float softmax_cross_entropy(const Tensor& logits, const IntTensor& labels,
                            Tensor* grad);
/// Fraction of rows whose argmax matches the label.
float accuracy(const Tensor& logits, const IntTensor& labels);

// --- Comparisons (tests) ----------------------------------------------------
/// max_i |a_i - b_i|; shapes must match.
float max_abs_diff(const Tensor& a, const Tensor& b);
bool allclose(const Tensor& a, const Tensor& b, float atol = 1e-5f,
              float rtol = 1e-4f);

}  // namespace triad::ops
