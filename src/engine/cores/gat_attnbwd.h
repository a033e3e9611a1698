/// \file
/// Specialized core for the GAT attention-aggregation backward (dst-major).
/// Fusion emits one such two-phase program per GAT layer:
///
///   phase 0, per in-edge (u -> v, e):
///     s   = al[u] + ar[v]                        ; store_e -> e0
///     a   = exp(leaky_relu(s) - max[v]) / sum[v] // the softmax weight
///     a * g[v] per head                          ; reduce -> rev (boundary)
///     dot = dot_head(g[v], ht[u])
///     (dot * a) / sum[v]                         ; reduce -> acc1
///   phase 1, per in-edge:
///     r = (dot / sum[v] - acc1[v]) * exp(leaky_relu(s) - max[v])
///                                                ; store_e -> e1, reduce -> acc2
///
/// The walk core computes both phases' sequential reductions and edge stores.
/// The boundary output — the feature gradient dX[u] = sum_e a_e * g[dst(e)],
/// heads * f wide — is finalized by the combine core, which recomputes each
/// out-edge's softmax weight from the program's input tensors instead of
/// reading an O(|E| * heads * f) stash (the interpreter must stash it: the
/// contribution costs far more than the two ops stash elision replays).
///
/// Bit-identity with the interpreter: every value is the same expression in
/// the same association — (dot * a) / sum, not dot * (a / sum) — with the
/// same scalar std::exp, each head's dot summed over ascending j from 0.f, and
/// every fold in the interpreter's edge order. Phase 1 recomputes dot and exp
/// exactly as the interpreter does rather than caching them per vertex.
#pragma once

#include <cmath>
#include <cstdint>

#include "support/macros.h"

namespace triad::cores {

/// exp(leaky_relu(al + ar) - mx): the unnormalized softmax numerator.
inline float gat_attnbwd_exp(float al, float ar, float mx, float alpha) {
  const float s = al + ar;
  const float ls = s > 0.f ? s : alpha * s;
  return std::exp(ls - mx);
}

/// One head's dot product, summed in the interpreter's DotHead order. A
/// sequential reduction: no TRIAD_SIMD, which would reassociate it.
template <int kF>
inline float gat_attnbwd_dot(const float* TRIAD_RESTRICT a,
                             const float* TRIAD_RESTRICT b, std::int64_t f_rt) {
  const std::int64_t f = kF > 0 ? kF : f_rt;
  float s = 0.f;
  for (std::int64_t j = 0; j < f; ++j) s += a[j] * b[j];
  return s;
}

/// Walk: both sequential (dst-side) reductions and both edge stores over the
/// in-edges of each visited dst. kF is the per-head feature width; 0 =
/// runtime width.
template <int kF>
inline void gat_attnbwd(
    const std::int64_t* TRIAD_RESTRICT ptr,
    const std::int32_t* TRIAD_RESTRICT adj,
    const std::int32_t* TRIAD_RESTRICT eid, const float* TRIAD_RESTRICT ht,
    std::int64_t ht_cols, const float* TRIAD_RESTRICT al, std::int64_t al_cols,
    const float* TRIAD_RESTRICT ar, std::int64_t ar_cols,
    const float* TRIAD_RESTRICT mx, std::int64_t mx_cols,
    const float* TRIAD_RESTRICT sm, std::int64_t sm_cols,
    const float* TRIAD_RESTRICT g, std::int64_t g_cols, float alpha,
    std::int64_t heads, std::int64_t f_rt, float* TRIAD_RESTRICT out_acc1,
    float* TRIAD_RESTRICT out_acc2, float* TRIAD_RESTRICT e0,
    std::int64_t e0_cols, float* TRIAD_RESTRICT e1, std::int64_t e1_cols,
    const std::int32_t* TRIAD_RESTRICT list, std::int64_t count,
    std::int64_t v_lo, std::int64_t v_hi) {
  const std::int64_t f = kF > 0 ? kF : f_rt;
  const std::int64_t total = list != nullptr ? count : v_hi - v_lo;
  for (std::int64_t idx = 0; idx < total; ++idx) {
    const std::int64_t v = list != nullptr ? list[idx] : v_lo + idx;
    const std::int64_t elo = ptr[v];
    const std::int64_t ehi = ptr[v + 1];
    const float* TRIAD_RESTRICT arv = ar + v * ar_cols;
    const float* TRIAD_RESTRICT mxv = mx + v * mx_cols;
    const float* TRIAD_RESTRICT smv = sm + v * sm_cols;
    const float* TRIAD_RESTRICT gv = g + v * g_cols;
    // Phase 0 folds straight into the finalized row phase 1 reads back (the
    // interpreter's LoadAcc of the same output).
    float* TRIAD_RESTRICT acc1 = out_acc1 + v * heads;
    for (std::int64_t h = 0; h < heads; ++h) acc1[h] = 0.f;
    for (std::int64_t i = elo; i < ehi; ++i) {
      const std::int64_t u = adj[i];
      const std::int64_t e = eid[i];
      const float* TRIAD_RESTRICT alu = al + u * al_cols;
      const float* TRIAD_RESTRICT hu = ht + u * ht_cols;
      float* TRIAD_RESTRICT e0r = e0 + e * e0_cols;
      for (std::int64_t h = 0; h < heads; ++h) {
        e0r[h] = alu[h] + arv[h];
        const float a = gat_attnbwd_exp(alu[h], arv[h], mxv[h], alpha) / smv[h];
        const float dot = gat_attnbwd_dot<kF>(gv + h * f, hu + h * f, f);
        acc1[h] += (dot * a) / smv[h];
      }
    }
    float* TRIAD_RESTRICT acc2 = out_acc2 + v * heads;
    for (std::int64_t h = 0; h < heads; ++h) acc2[h] = 0.f;
    for (std::int64_t i = elo; i < ehi; ++i) {
      const std::int64_t u = adj[i];
      const std::int64_t e = eid[i];
      const float* TRIAD_RESTRICT alu = al + u * al_cols;
      const float* TRIAD_RESTRICT hu = ht + u * ht_cols;
      float* TRIAD_RESTRICT e1r = e1 + e * e1_cols;
      for (std::int64_t h = 0; h < heads; ++h) {
        const float dot = gat_attnbwd_dot<kF>(gv + h * f, hu + h * f, f);
        const float t = dot / smv[h] - acc1[h];
        const float r = t * gat_attnbwd_exp(alu[h], arv[h], mxv[h], alpha);
        e1r[h] = r;
        acc2[h] += r;
      }
    }
  }
}

/// Combine: the boundary (src-side) feature gradient over the out-adjacency
/// of each target u; `adj[k]` is the dst d whose weight and gradient row the
/// replay reads.
template <int kF>
inline void gat_attnbwd_combine(
    const std::int64_t* TRIAD_RESTRICT ptr,
    const std::int32_t* TRIAD_RESTRICT adj, const float* TRIAD_RESTRICT al,
    std::int64_t al_cols, const float* TRIAD_RESTRICT ar, std::int64_t ar_cols,
    const float* TRIAD_RESTRICT mx, std::int64_t mx_cols,
    const float* TRIAD_RESTRICT sm, std::int64_t sm_cols,
    const float* TRIAD_RESTRICT g, std::int64_t g_cols, float alpha,
    std::int64_t heads, std::int64_t f_rt, float* TRIAD_RESTRICT out,
    const std::int32_t* TRIAD_RESTRICT list, std::int64_t count,
    std::int64_t t_lo, std::int64_t t_hi) {
  const std::int64_t f = kF > 0 ? kF : f_rt;
  const std::int64_t w = heads * f;
  const std::int64_t total = list != nullptr ? count : t_hi - t_lo;
  for (std::int64_t idx = 0; idx < total; ++idx) {
    const std::int64_t u = list != nullptr ? list[idx] : t_lo + idx;
    float* TRIAD_RESTRICT row = out + u * w;
    for (std::int64_t j = 0; j < w; ++j) row[j] = 0.f;
    const float* TRIAD_RESTRICT alu = al + u * al_cols;
    const std::int64_t klo = ptr[u];
    const std::int64_t khi = ptr[u + 1];
    for (std::int64_t k = klo; k < khi; ++k) {
      const std::int64_t d = adj[k];
      const float* TRIAD_RESTRICT ard = ar + d * ar_cols;
      const float* TRIAD_RESTRICT mxd = mx + d * mx_cols;
      const float* TRIAD_RESTRICT smd = sm + d * sm_cols;
      const float* TRIAD_RESTRICT gd = g + d * g_cols;
      for (std::int64_t h = 0; h < heads; ++h) {
        const float a = gat_attnbwd_exp(alu[h], ard[h], mxd[h], alpha) / smd[h];
        const float* TRIAD_RESTRICT gr = gd + h * f;
        float* TRIAD_RESTRICT orow = row + h * f;
        TRIAD_SIMD
        for (std::int64_t j = 0; j < f; ++j) orow[j] += a * gr[j];
      }
    }
  }
}

}  // namespace triad::cores
