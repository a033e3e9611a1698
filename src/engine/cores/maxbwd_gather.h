/// \file
/// Specialized core for the Max-backward argmax-replay gather (dst-major) —
/// the EdgeConv gradient shape:
///
///   r0 = load_v g             // upstream gradient at the center vertex
///   r1 = max_bwd_mask r0 aux  // g[j] where aux[v][j] == eid, else 0
///   reduce r1 -> acc_seq (Sum)         // center-side gradient
///   reduce r1 -> acc_rev (Sum, rev)    // neighbor-side gradient (boundary)
///
/// The walk core computes the sequential output; the boundary output is
/// finalized by maxbwd_gather_combine, folding each target row over the
/// reverse-orientation adjacency in fixed edge order — the same fold the
/// interpreter's elided combine replay performs.
///
/// Bit-identity: per element both loops accumulate the identical sequence
/// `acc[j] += (aux==e ? g[j] : 0.f)` over the identical edge order — the
/// masked zero terms are added, not skipped, because `x += 0.f` is not a
/// bitwise no-op for x == -0.f and the interpreter adds them too.
#pragma once

#include <cstdint>

#include "support/macros.h"

namespace triad::cores {

/// Walk: sequential (center-side) reduction over in-edges of each visited
/// dst vertex in [v_lo, v_hi).
template <int kW>
inline void maxbwd_gather(const std::int64_t* TRIAD_RESTRICT ptr,
                          const std::int32_t* TRIAD_RESTRICT eid,
                          const float* TRIAD_RESTRICT g, std::int64_t g_cols,
                          const std::int32_t* TRIAD_RESTRICT aux,
                          std::int64_t aux_cols, float* TRIAD_RESTRICT out,
                          std::int64_t w_rt,
                          std::int64_t v_lo, std::int64_t v_hi) {
  const std::int64_t w = kW > 0 ? kW : w_rt;
  for (std::int64_t v = v_lo; v < v_hi; ++v) {
    float* TRIAD_RESTRICT acc = out + v * w;
    for (std::int64_t j = 0; j < w; ++j) acc[j] = 0.f;
    const float* TRIAD_RESTRICT gv = g + v * g_cols;
    const std::int32_t* TRIAD_RESTRICT av = aux + v * aux_cols;
    const std::int64_t elo = ptr[v];
    const std::int64_t ehi = ptr[v + 1];
    for (std::int64_t i = elo; i < ehi; ++i) {
      const std::int32_t e = eid[i];
      TRIAD_SIMD
      for (std::int64_t j = 0; j < w; ++j) {
        acc[j] += av[j] == e ? gv[j] : 0.f;
      }
    }
  }
}

/// Combine: boundary (neighbor-side) reduction. Targets are src vertices
/// (the output is reverse), folded over the out-adjacency; `adj[k]` is the
/// dst vertex whose gradient/argmax rows the replay reads.
template <int kW>
inline void maxbwd_gather_combine(const std::int64_t* TRIAD_RESTRICT ptr,
                                  const std::int32_t* TRIAD_RESTRICT adj,
                                  const std::int32_t* TRIAD_RESTRICT eid,
                                  const float* TRIAD_RESTRICT g,
                                  std::int64_t g_cols,
                                  const std::int32_t* TRIAD_RESTRICT aux,
                                  std::int64_t aux_cols,
                                  float* TRIAD_RESTRICT out, std::int64_t w_rt,
                                  std::int64_t t_lo, std::int64_t t_hi) {
  const std::int64_t w = kW > 0 ? kW : w_rt;
  for (std::int64_t t = t_lo; t < t_hi; ++t) {
    float* TRIAD_RESTRICT row = out + t * w;
    for (std::int64_t j = 0; j < w; ++j) row[j] = 0.f;
    const std::int64_t klo = ptr[t];
    const std::int64_t khi = ptr[t + 1];
    for (std::int64_t k = klo; k < khi; ++k) {
      const std::int64_t d = adj[k];
      const std::int32_t e = eid[k];
      const float* TRIAD_RESTRICT gd = g + d * g_cols;
      const std::int32_t* TRIAD_RESTRICT ad = aux + d * aux_cols;
      TRIAD_SIMD
      for (std::int64_t j = 0; j < w; ++j) {
        row[j] += ad[j] == e ? gd[j] : 0.f;
      }
    }
  }
}

}  // namespace triad::cores
