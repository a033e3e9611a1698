#include "engine/kernels.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/counters.h"
#include "support/parallel.h"
#include "tensor/ops.h"

namespace triad::kernels {

namespace {

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

void charge(std::uint64_t read, std::uint64_t write, std::uint64_t flops,
            std::uint64_t atomics = 0) {
  PerfCounters& c = global_counters();
  c.dram_read_bytes += read;
  c.dram_write_bytes += write;
  c.flops += flops;
  c.atomic_ops += atomics;
  c.kernel_launches += 1;
}

/// Drives a serial vertex-range core, one pool task per shard.
template <typename Core>
void for_each_vertex_shard(const Partitioning& part, const Core& core) {
  parallel_for(0, part.num_shards(), [&](std::int64_t s) {
    const Shard& sh = part.shard(static_cast<int>(s));
    core(sh.v_lo, sh.v_hi);
  }, /*grain=*/1);
}

/// Drives a serial edge-range core over K even flat-edge splits.
template <typename Core>
void for_each_edge_shard(const Partitioning& part, std::int64_t m,
                         const Core& core) {
  parallel_for(0, part.num_shards(), [&](std::int64_t s) {
    const EdgeRange r = edge_shard_range(m, part.num_shards(), static_cast<int>(s));
    core(r.lo, r.hi);
  }, /*grain=*/1);
}

// --- Serial cores over shard views ------------------------------------------

void scatter_range(const Graph& g, ScatterFn fn, const Tensor& a,
                   const Tensor* b, Tensor& out, std::int64_t heads,
                   std::int64_t e_lo, std::int64_t e_hi) {
  const std::int64_t ca = a.cols();
  const auto& src = g.edge_src();
  const auto& dst = g.edge_dst();
  switch (fn) {
    case ScatterFn::CopyU:
      for (std::int64_t e = e_lo; e < e_hi; ++e) {
        std::copy_n(a.row(src[e]), ca, out.row(e));
      }
      return;
    case ScatterFn::CopyV:
      for (std::int64_t e = e_lo; e < e_hi; ++e) {
        std::copy_n(a.row(dst[e]), ca, out.row(e));
      }
      return;
    case ScatterFn::AddUV:
    case ScatterFn::SubUV:
    case ScatterFn::MulUV:
      for (std::int64_t e = e_lo; e < e_hi; ++e) {
        const float* pu = a.row(src[e]);
        const float* pv = b->row(dst[e]);
        float* po = out.row(e);
        switch (fn) {
          case ScatterFn::AddUV:
            for (std::int64_t j = 0; j < ca; ++j) po[j] = pu[j] + pv[j];
            break;
          case ScatterFn::SubUV:
            for (std::int64_t j = 0; j < ca; ++j) po[j] = pu[j] - pv[j];
            break;
          default:
            for (std::int64_t j = 0; j < ca; ++j) po[j] = pu[j] * pv[j];
        }
      }
      return;
    case ScatterFn::ConcatUV: {
      const std::int64_t cb = b->cols();
      for (std::int64_t e = e_lo; e < e_hi; ++e) {
        float* po = out.row(e);
        std::copy_n(a.row(src[e]), ca, po);
        std::copy_n(b->row(dst[e]), cb, po + ca);
      }
      return;
    }
    case ScatterFn::DotUV: {
      const std::int64_t f = ca / heads;
      for (std::int64_t e = e_lo; e < e_hi; ++e) {
        const float* pu = a.row(src[e]);
        const float* pv = b->row(dst[e]);
        float* po = out.row(e);
        for (std::int64_t h = 0; h < heads; ++h) {
          float acc = 0.f;
          for (std::int64_t j = 0; j < f; ++j) acc += pu[h * f + j] * pv[h * f + j];
          po[h] = acc;
        }
      }
      return;
    }
  }
}

void charge_scatter(ScatterFn fn, std::int64_t ca, std::int64_t cb,
                    std::int64_t heads, std::uint64_t m) {
  switch (fn) {
    case ScatterFn::CopyU:
    case ScatterFn::CopyV:
      charge(m * ca * 4 + m * 4, m * ca * 4, 0);
      return;
    case ScatterFn::AddUV:
    case ScatterFn::SubUV:
    case ScatterFn::MulUV:
      charge(2 * m * ca * 4 + m * 8, m * ca * 4, m * ca);
      return;
    case ScatterFn::ConcatUV:
      charge(m * (ca + cb) * 4 + m * 8, m * (ca + cb) * 4, 0);
      return;
    case ScatterFn::DotUV:
      charge(2 * m * ca * 4 + m * 8, m * heads * 4, 2 * m * ca);
      return;
  }
}

void gather_range(const Graph& g, ReduceFn fn, bool reverse,
                  const Tensor& edge_feat, Tensor& out, IntTensor* argmax,
                  std::int64_t v_lo, std::int64_t v_hi) {
  const std::int64_t c = edge_feat.cols();
  const auto& ptr = reverse ? g.out_ptr() : g.in_ptr();
  const auto& eid = reverse ? g.out_eid() : g.in_eid();
  for (std::int64_t v = v_lo; v < v_hi; ++v) {
    float* po = out.row(v);
    const std::int64_t lo = ptr[v];
    const std::int64_t hi = ptr[v + 1];
    switch (fn) {
      case ReduceFn::Sum:
      case ReduceFn::Mean: {
        std::fill_n(po, c, 0.f);
        for (std::int64_t i = lo; i < hi; ++i) {
          const float* pe = edge_feat.row(eid[i]);
          for (std::int64_t j = 0; j < c; ++j) po[j] += pe[j];
        }
        if (fn == ReduceFn::Mean && hi > lo) {
          const float inv = 1.f / static_cast<float>(hi - lo);
          for (std::int64_t j = 0; j < c; ++j) po[j] *= inv;
        }
        break;
      }
      case ReduceFn::Max: {
        std::fill_n(po, c, kNegInf);
        std::int32_t* pm = argmax != nullptr ? argmax->data() + v * c : nullptr;
        if (pm != nullptr) std::fill_n(pm, c, -1);
        for (std::int64_t i = lo; i < hi; ++i) {
          const std::int32_t e = eid[i];
          const float* pe = edge_feat.row(e);
          for (std::int64_t j = 0; j < c; ++j) {
            if (pe[j] > po[j]) {
              po[j] = pe[j];
              if (pm != nullptr) pm[j] = e;
            }
          }
        }
        // Isolated vertices produce 0 rather than -inf.
        if (hi == lo) std::fill_n(po, c, 0.f);
        break;
      }
    }
  }
}

void charge_gather(std::uint64_t n, std::uint64_t m, std::int64_t c) {
  charge(m * c * 4 + m * 4 + (n + 1) * 8, n * c * 4, m * c);
}

}  // namespace

void scatter(const Graph& g, ScatterFn fn, const Tensor& a, const Tensor* b,
             Tensor& out, std::int64_t heads) {
  parallel_for_chunks(0, g.num_edges(), [&](std::int64_t lo, std::int64_t hi) {
    scatter_range(g, fn, a, b, out, heads, lo, hi);
  });
  charge_scatter(fn, a.cols(), b != nullptr ? b->cols() : 0, heads,
                 static_cast<std::uint64_t>(g.num_edges()));
}

void scatter_sharded(const Graph& g, const Partitioning& part, ScatterFn fn,
                     const Tensor& a, const Tensor* b, Tensor& out,
                     std::int64_t heads) {
  const std::int64_t m = g.num_edges();
  for_each_edge_shard(part, m, [&](std::int64_t lo, std::int64_t hi) {
    scatter_range(g, fn, a, b, out, heads, lo, hi);
  });
  for (int s = 0; s < part.num_shards(); ++s) {
    const EdgeRange r = edge_shard_range(m, part.num_shards(), s);
    charge_scatter(fn, a.cols(), b != nullptr ? b->cols() : 0, heads,
                   static_cast<std::uint64_t>(r.hi - r.lo));
  }
}

void gather(const Graph& g, ReduceFn fn, bool reverse, const Tensor& edge_feat,
            Tensor& out, IntTensor* argmax) {
  parallel_for_chunks(0, g.num_vertices(), [&](std::int64_t lo, std::int64_t hi) {
    gather_range(g, fn, reverse, edge_feat, out, argmax, lo, hi);
  });
  charge_gather(static_cast<std::uint64_t>(g.num_vertices()),
                static_cast<std::uint64_t>(g.num_edges()), edge_feat.cols());
}

void gather_sharded(const Graph& g, const Partitioning& part, ReduceFn fn,
                    bool reverse, const Tensor& edge_feat, Tensor& out,
                    IntTensor* argmax) {
  for_each_vertex_shard(part, [&](std::int64_t lo, std::int64_t hi) {
    gather_range(g, fn, reverse, edge_feat, out, argmax, lo, hi);
  });
  const auto& ptr = reverse ? g.out_ptr() : g.in_ptr();
  for (int s = 0; s < part.num_shards(); ++s) {
    const Shard& sh = part.shard(s);
    charge_gather(static_cast<std::uint64_t>(sh.num_vertices()),
                  static_cast<std::uint64_t>(ptr[sh.v_hi] - ptr[sh.v_lo]),
                  edge_feat.cols());
  }
}

void gather_edge_balanced(const Graph& g, const Tensor& edge_feat, Tensor& out,
                          bool reverse) {
  const std::int64_t m = g.num_edges();
  const std::int64_t c = edge_feat.cols();
  const auto& tgt = reverse ? g.edge_src() : g.edge_dst();
  out.fill(0.f);
  parallel_for(0, m, [&](std::int64_t e) {
    const float* pe = edge_feat.row(e);
    float* po = out.row(tgt[e]);
    for (std::int64_t j = 0; j < c; ++j) atomic_add(po + j, pe[j]);
  });
  // Atomic read-modify-write per element: charged as a read and a write.
  charge(static_cast<std::uint64_t>(m) * c * 4 * 2 + m * 4,
         static_cast<std::uint64_t>(m) * c * 4, static_cast<std::uint64_t>(m) * c,
         static_cast<std::uint64_t>(m) * c);
}

void apply_unary(ApplyFn fn, const Tensor& x, Tensor& out, float alpha) {
  switch (fn) {
    case ApplyFn::LeakyReLU: ops::leaky_relu(x, out, alpha); break;
    case ApplyFn::ReLU: ops::relu(x, out); break;
    case ApplyFn::ELU: ops::elu(x, out, alpha); break;
    case ApplyFn::Exp: ops::exp(x, out); break;
    case ApplyFn::Neg: ops::neg(x, out); break;
    case ApplyFn::Scale: ops::scale(x, out, alpha); break;
    case ApplyFn::Identity: ops::copy(x, out); break;
    default: TRIAD_CHECK(false, "not a unary apply: " << to_string(fn));
  }
  const auto n = static_cast<std::uint64_t>(x.numel());
  charge(n * 4, n * 4, n);
}

void apply_binary(ApplyFn fn, const Tensor& a, const Tensor& b, Tensor& out,
                  std::int64_t heads, float alpha) {
  switch (fn) {
    case ApplyFn::Add: ops::add(a, b, out); break;
    case ApplyFn::Sub: ops::sub(a, b, out); break;
    case ApplyFn::Mul: ops::mul(a, b, out); break;
    case ApplyFn::Div: ops::div(a, b, out); break;
    case ApplyFn::MulHead: ops::mul_head(a, b, out, heads); break;
    case ApplyFn::DotHead: ops::dot_head(a, b, out, heads); break;
    case ApplyFn::LeakyReLUGrad: ops::leaky_relu_grad(a, b, out, alpha); break;
    case ApplyFn::ReLUGrad: ops::relu_grad(a, b, out); break;
    case ApplyFn::ELUGrad: ops::elu_grad(a, b, out, alpha); break;
    case ApplyFn::ExpGrad: ops::exp_grad(a, b, out); break;
    default: TRIAD_CHECK(false, "not a binary apply: " << to_string(fn));
  }
  const auto na = static_cast<std::uint64_t>(a.numel());
  const auto nb = static_cast<std::uint64_t>(b.numel());
  const auto no = static_cast<std::uint64_t>(out.numel());
  charge((na + nb) * 4, no * 4, std::max(na, nb));
}

void linear(const Tensor& x, const Tensor& w, Tensor& out, std::int64_t wrow_lo,
            std::int64_t wrow_hi) {
  if (wrow_hi == 0) wrow_hi = w.rows();
  ops::matmul(ops::rows_of(x), ops::rows_of(w, wrow_lo, wrow_hi), ops::rows_of(out));
  const auto k = static_cast<std::uint64_t>(wrow_hi - wrow_lo);
  charge(x.bytes() + k * w.cols() * 4, out.bytes(),
         2 * static_cast<std::uint64_t>(x.rows()) * k * w.cols());
}

void linear_wgrad(const Tensor& x, const Tensor& grad, Tensor& out,
                  std::int64_t wrow_lo, std::int64_t wrow_hi) {
  if (wrow_hi == 0) wrow_hi = out.rows();
  ops::matmul(ops::rows_of(x), ops::rows_of(grad),
              ops::rows_of(out, wrow_lo, wrow_hi), /*trans_a=*/true);
  // Rows outside the window get no gradient.
  std::fill(out.data(), out.row(wrow_lo), 0.f);
  std::fill(out.row(wrow_hi), out.row(out.rows()), 0.f);
  charge(x.bytes() + grad.bytes(), out.bytes(),
         2 * static_cast<std::uint64_t>(x.rows()) * x.cols() * grad.cols());
}

void linear_xgrad(const Tensor& grad, const Tensor& w, Tensor& out,
                  std::int64_t wrow_lo, std::int64_t wrow_hi) {
  if (wrow_hi == 0) wrow_hi = w.rows();
  ops::matmul(ops::rows_of(grad), ops::rows_of(w, wrow_lo, wrow_hi), ops::rows_of(out),
              /*trans_a=*/false, /*trans_b=*/true);
  const auto k = static_cast<std::uint64_t>(wrow_hi - wrow_lo);
  charge(grad.bytes() + k * w.cols() * 4, out.bytes(),
         2 * static_cast<std::uint64_t>(grad.rows()) * grad.cols() * out.cols());
}

void head_sum(const Tensor& x, Tensor& out, std::int64_t heads, float alpha) {
  ops::head_sum(x, out, heads, alpha);
  charge(x.bytes(), out.bytes(), static_cast<std::uint64_t>(x.numel()));
}

void head_broadcast(const Tensor& x, Tensor& out, std::int64_t heads, float alpha) {
  ops::head_broadcast(x, out, heads, alpha);
  charge(x.bytes(), out.bytes(), static_cast<std::uint64_t>(out.numel()));
}

void bias(const Tensor& x, const Tensor& b, Tensor& out) {
  ops::add_bias(x, b, out);
  charge(x.bytes() + b.bytes(), out.bytes(), static_cast<std::uint64_t>(x.numel()));
}

void bias_grad(const Tensor& grad, Tensor& out) {
  ops::bias_grad(grad, out, /*accumulate=*/false);
  charge(grad.bytes(), out.bytes(), static_cast<std::uint64_t>(grad.numel()));
}

void slice_cols(const Tensor& x, Tensor& out, std::int64_t lo, std::int64_t hi) {
  ops::slice_cols(x, out, lo, hi);
  charge(out.bytes(), out.bytes(), 0);
}

namespace {

void edge_softmax_range(const Graph& g, const Tensor& scores, Tensor& out,
                        std::int64_t v_lo, std::int64_t v_hi) {
  const std::int64_t h = scores.cols();
  const auto& ptr = g.in_ptr();
  const auto& eid = g.in_eid();
  for (std::int64_t v = v_lo; v < v_hi; ++v) {
    const std::int64_t lo = ptr[v];
    const std::int64_t hi = ptr[v + 1];
    for (std::int64_t j = 0; j < h; ++j) {
      float mx = kNegInf;
      for (std::int64_t i = lo; i < hi; ++i) mx = std::max(mx, scores.at(eid[i], j));
      float denom = 0.f;
      for (std::int64_t i = lo; i < hi; ++i) {
        denom += std::exp(scores.at(eid[i], j) - mx);
      }
      denom = std::max(denom, 1e-20f);
      for (std::int64_t i = lo; i < hi; ++i) {
        out.at(eid[i], j) = std::exp(scores.at(eid[i], j) - mx) / denom;
      }
    }
  }
}

void charge_edge_softmax(std::uint64_t m, std::int64_t h) {
  // Fused three-pass kernel: score read thrice, output written once.
  charge(3 * m * h * 4 + m * 4, m * h * 4, 4 * m * h);
}

void edge_softmax_grad_range(const Graph& g, const Tensor& grad, const Tensor& w,
                             Tensor& out, std::int64_t v_lo, std::int64_t v_hi) {
  const std::int64_t h = grad.cols();
  const auto& ptr = g.in_ptr();
  const auto& eid = g.in_eid();
  for (std::int64_t v = v_lo; v < v_hi; ++v) {
    const std::int64_t lo = ptr[v];
    const std::int64_t hi = ptr[v + 1];
    for (std::int64_t j = 0; j < h; ++j) {
      float dot = 0.f;
      for (std::int64_t i = lo; i < hi; ++i) {
        dot += grad.at(eid[i], j) * w.at(eid[i], j);
      }
      for (std::int64_t i = lo; i < hi; ++i) {
        out.at(eid[i], j) = w.at(eid[i], j) * (grad.at(eid[i], j) - dot);
      }
    }
  }
}

void gather_max_bwd_range(const Tensor& grad_v, const IntTensor& argmax,
                          Tensor& out, std::int64_t v_lo, std::int64_t v_hi) {
  const std::int64_t c = grad_v.cols();
  for (std::int64_t v = v_lo; v < v_hi; ++v) {
    const float* pg = grad_v.row(v);
    const std::int32_t* pm = argmax.data() + v * c;
    for (std::int64_t j = 0; j < c; ++j) {
      if (pm[j] >= 0) out.at(pm[j], j) = pg[j];
    }
  }
}

void degree_inv_range(const Graph& g, Tensor& out, bool reverse,
                      std::int64_t v_lo, std::int64_t v_hi) {
  for (std::int64_t v = v_lo; v < v_hi; ++v) {
    const std::int64_t d = reverse ? g.out_degree(v) : g.in_degree(v);
    out.at(v, 0) = 1.f / static_cast<float>(std::max<std::int64_t>(1, d));
  }
}

/// In-edges covered by a shard's owned range (the work unit of the
/// dst-oriented special kernels).
std::uint64_t shard_in_edges(const Graph& g, const Shard& sh) {
  return static_cast<std::uint64_t>(g.in_ptr()[sh.v_hi] - g.in_ptr()[sh.v_lo]);
}

}  // namespace

void edge_softmax(const Graph& g, const Tensor& scores, Tensor& out) {
  parallel_for_chunks(0, g.num_vertices(), [&](std::int64_t lo, std::int64_t hi) {
    edge_softmax_range(g, scores, out, lo, hi);
  });
  charge_edge_softmax(static_cast<std::uint64_t>(g.num_edges()), scores.cols());
}

void edge_softmax_sharded(const Graph& g, const Partitioning& part,
                          const Tensor& scores, Tensor& out) {
  for_each_vertex_shard(part, [&](std::int64_t lo, std::int64_t hi) {
    edge_softmax_range(g, scores, out, lo, hi);
  });
  for (int s = 0; s < part.num_shards(); ++s) {
    charge_edge_softmax(shard_in_edges(g, part.shard(s)), scores.cols());
  }
}

void edge_softmax_grad(const Graph& g, const Tensor& grad, const Tensor& w,
                       Tensor& out) {
  parallel_for_chunks(0, g.num_vertices(), [&](std::int64_t lo, std::int64_t hi) {
    edge_softmax_grad_range(g, grad, w, out, lo, hi);
  });
  const std::uint64_t m = g.num_edges();
  const std::int64_t h = grad.cols();
  charge(4 * m * h * 4 + m * 4, m * h * 4, 4 * m * h);
}

void edge_softmax_grad_sharded(const Graph& g, const Partitioning& part,
                               const Tensor& grad, const Tensor& w, Tensor& out) {
  for_each_vertex_shard(part, [&](std::int64_t lo, std::int64_t hi) {
    edge_softmax_grad_range(g, grad, w, out, lo, hi);
  });
  const std::int64_t h = grad.cols();
  for (int s = 0; s < part.num_shards(); ++s) {
    const std::uint64_t m = shard_in_edges(g, part.shard(s));
    charge(4 * m * h * 4 + m * 4, m * h * 4, 4 * m * h);
  }
}

void gather_max_bwd(const Graph& g, const Tensor& grad_v, const IntTensor& argmax,
                    Tensor& out, bool reverse) {
  out.fill(0.f);
  parallel_for_chunks(0, g.num_vertices(), [&](std::int64_t lo, std::int64_t hi) {
    gather_max_bwd_range(grad_v, argmax, out, lo, hi);
  });
  (void)reverse;  // orientation only affects which aux was recorded
  const std::uint64_t m = g.num_edges();
  const std::int64_t c = grad_v.cols();
  charge(static_cast<std::uint64_t>(g.num_vertices()) * c * 8, m * c * 4, 0);
}

void gather_max_bwd_sharded(const Graph& g, const Partitioning& part,
                            const Tensor& grad_v, const IntTensor& argmax,
                            Tensor& out, bool reverse) {
  out.fill(0.f);
  for_each_vertex_shard(part, [&](std::int64_t lo, std::int64_t hi) {
    gather_max_bwd_range(grad_v, argmax, out, lo, hi);
  });
  (void)reverse;
  const std::int64_t c = grad_v.cols();
  for (int s = 0; s < part.num_shards(); ++s) {
    const Shard& sh = part.shard(s);
    charge(static_cast<std::uint64_t>(sh.num_vertices()) * c * 8,
           shard_in_edges(g, sh) * c * 4, 0);
  }
}

void degree_inv(const Graph& g, Tensor& out, bool reverse) {
  const std::int64_t n = g.num_vertices();
  degree_inv_range(g, out, reverse, 0, n);
  charge((n + 1) * 8, static_cast<std::uint64_t>(n) * 4, static_cast<std::uint64_t>(n));
}

void degree_inv_sharded(const Graph& g, const Partitioning& part, Tensor& out,
                        bool reverse) {
  for_each_vertex_shard(part, [&](std::int64_t lo, std::int64_t hi) {
    degree_inv_range(g, out, reverse, lo, hi);
  });
  for (int s = 0; s < part.num_shards(); ++s) {
    const auto n = static_cast<std::uint64_t>(part.shard(s).num_vertices());
    charge((n + 1) * 8, n * 4, n);
  }
}

void gaussian(const Tensor& pseudo, const Tensor& mu, const Tensor& sigma,
              Tensor& out) {
  const std::int64_t m = pseudo.rows();
  const std::int64_t r = pseudo.cols();
  const std::int64_t k = mu.rows();
  parallel_for(0, m, [&](std::int64_t e) {
    const float* pe = pseudo.row(e);
    float* po = out.row(e);
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float* pm = mu.row(kk);
      const float* ps = sigma.row(kk);
      float acc = 0.f;
      for (std::int64_t j = 0; j < r; ++j) {
        const float d = pe[j] - pm[j];
        acc += ps[j] * ps[j] * d * d;
      }
      po[kk] = std::exp(-0.5f * acc);
    }
  });
  charge(static_cast<std::uint64_t>(m) * r * 4 + 2 * k * r * 4,
         static_cast<std::uint64_t>(m) * k * 4,
         static_cast<std::uint64_t>(m) * k * (4 * r + 1));
}

void gaussian_grad_mu(const Tensor& grad, const Tensor& pseudo, const Tensor& mu,
                      const Tensor& sigma, const Tensor& w, Tensor& out) {
  const std::int64_t m = pseudo.rows();
  const std::int64_t r = pseudo.cols();
  const std::int64_t k = mu.rows();
  out.fill(0.f);
  for (std::int64_t e = 0; e < m; ++e) {
    const float* pe = pseudo.row(e);
    const float* pg = grad.row(e);
    const float* pw = w.row(e);
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float gw = pg[kk] * pw[kk];
      const float* pm = mu.row(kk);
      const float* ps = sigma.row(kk);
      float* po = out.row(kk);
      // d w / d mu = w * sigma^2 * (p - mu)
      for (std::int64_t j = 0; j < r; ++j) {
        po[j] += gw * ps[j] * ps[j] * (pe[j] - pm[j]);
      }
    }
  }
  charge(static_cast<std::uint64_t>(m) * (r + 2 * k) * 4, out.bytes(),
         static_cast<std::uint64_t>(m) * k * 4 * r);
}

void gaussian_grad_sigma(const Tensor& grad, const Tensor& pseudo,
                         const Tensor& mu, const Tensor& sigma, const Tensor& w,
                         Tensor& out) {
  const std::int64_t m = pseudo.rows();
  const std::int64_t r = pseudo.cols();
  const std::int64_t k = mu.rows();
  out.fill(0.f);
  for (std::int64_t e = 0; e < m; ++e) {
    const float* pe = pseudo.row(e);
    const float* pg = grad.row(e);
    const float* pw = w.row(e);
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float gw = pg[kk] * pw[kk];
      const float* pm = mu.row(kk);
      const float* ps = sigma.row(kk);
      float* po = out.row(kk);
      // d w / d sigma = -w * sigma * (p - mu)^2
      for (std::int64_t j = 0; j < r; ++j) {
        const float d = pe[j] - pm[j];
        po[j] -= gw * ps[j] * d * d;
      }
    }
  }
  charge(static_cast<std::uint64_t>(m) * (r + 2 * k) * 4, out.bytes(),
         static_cast<std::uint64_t>(m) * k * 4 * r);
}

}  // namespace triad::kernels
