/// \file
/// Specialized core for the MoNet backward store_e stash shape (src-major):
///
///   r0 = load_e ps            // (r) edge pseudo-coordinates
///   r1 = gauss r0 mu sigma    // (K) mixture weights
///   store_e r1 -> e0          // stashed for the mu/sigma gradient kernels
///   r2 = load_v g             // (K*f) upstream gradient at dst
///   r3 = load_u feat          // (K*f) center (src) transformed features
///   r4 = dot_head r2 r3       // (K) per-kernel <g, feat>
///   store_e r4 -> e1          // stashed likewise
///   r5 = mul_head r2 r1       // (K*f)
///   reduce r5 -> acc (Sum, rev = sequential under src-major)
///
/// All outputs are center-side: the two StoreE rows are written once per
/// edge by the owning walker and the reduction is sequential, so there is no
/// combine. Bit-identity: the gaussian copies the interpreter's exact
/// expression (accv += sg^2 * diff^2, same association, same std::exp), the
/// dot folds j ascending, and the weighted accumulate is the interpreter's
/// mul-then-add per element in the same edge order (-ffp-contract=off).
#pragma once

#include <cmath>
#include <cstdint>

#include "support/macros.h"

namespace triad::cores {

/// kF is the per-kernel feature width (W / kernels); 0 = runtime width.
/// `r` is the pseudo-coordinate dimension (row stride of mu/sigma).
template <int kF>
inline void gauss_bwd(const std::int64_t* TRIAD_RESTRICT ptr,
                      const std::int32_t* TRIAD_RESTRICT adj,
                      const std::int32_t* TRIAD_RESTRICT eid,
                      const float* TRIAD_RESTRICT feat, std::int64_t feat_cols,
                      const float* TRIAD_RESTRICT g, std::int64_t g_cols,
                      const float* TRIAD_RESTRICT pseudo,
                      std::int64_t pseudo_cols, const float* TRIAD_RESTRICT mu,
                      const float* TRIAD_RESTRICT sigma, std::int64_t r,
                      std::int64_t kernels, std::int64_t f_rt,
                      float* TRIAD_RESTRICT out,
                      float* TRIAD_RESTRICT oute0, std::int64_t oute0_cols,
                      float* TRIAD_RESTRICT oute1, std::int64_t oute1_cols,
                      std::int64_t v_lo, std::int64_t v_hi) {
  const std::int64_t f = kF > 0 ? kF : f_rt;
  const std::int64_t wout = kernels * f;
  for (std::int64_t v = v_lo; v < v_hi; ++v) {
    float* TRIAD_RESTRICT acc = out + v * wout;
    for (std::int64_t j = 0; j < wout; ++j) acc[j] = 0.f;
    const float* TRIAD_RESTRICT xv = feat + v * feat_cols;
    const std::int64_t elo = ptr[v];
    const std::int64_t ehi = ptr[v + 1];
    for (std::int64_t i = elo; i < ehi; ++i) {
      const std::int64_t e = eid[i];
      const float* TRIAD_RESTRICT gd =
          g + static_cast<std::int64_t>(adj[i]) * g_cols;
      const float* TRIAD_RESTRICT ps = pseudo + e * pseudo_cols;
      float* TRIAD_RESTRICT w_e = oute0 + e * oute0_cols;
      float* TRIAD_RESTRICT d_e = oute1 + e * oute1_cols;
      for (std::int64_t k = 0; k < kernels; ++k) {
        const float* TRIAD_RESTRICT pm = mu + k * r;
        const float* TRIAD_RESTRICT sg = sigma + k * r;
        float accv = 0.f;
        for (std::int64_t j = 0; j < r; ++j) {
          const float diff = ps[j] - pm[j];
          accv += sg[j] * sg[j] * diff * diff;
        }
        w_e[k] = std::exp(-0.5f * accv);
      }
      for (std::int64_t k = 0; k < kernels; ++k) {
        const float* TRIAD_RESTRICT gr = gd + k * f;
        const float* TRIAD_RESTRICT xr = xv + k * f;
        float s = 0.f;
        for (std::int64_t j = 0; j < f; ++j) s += gr[j] * xr[j];
        d_e[k] = s;
      }
      for (std::int64_t k = 0; k < kernels; ++k) {
        const float wgt = w_e[k];
        const float* TRIAD_RESTRICT gr = gd + k * f;
        float* TRIAD_RESTRICT arow = acc + k * f;
        TRIAD_SIMD
        for (std::int64_t j = 0; j < f; ++j) arow[j] += wgt * gr[j];
      }
    }
  }
}

}  // namespace triad::cores
