#include "engine/specialize.h"

#include <type_traits>

#include "engine/vm.h"
#include "ir/graph.h"

#include "engine/cores/edgeconv_max.h"
#include "engine/cores/gat_attnbwd.h"
#include "engine/cores/gat_scorebwd.h"
#include "engine/cores/gat_softmax.h"
#include "engine/cores/gauss_bwd.h"
#include "engine/cores/gcn_wsum.h"
#include "engine/cores/maxbwd_gather.h"
#include "engine/cores/monet_gauss.h"
#include "engine/cores/sum_eb.h"
#include "support/macros.h"

namespace triad {

namespace {

/// Mirrors vm.cc: a reduction is worker-sequential when its direction matches
/// the kernel orientation. Boundary (cross-orientation) reductions are
/// finalized by the combine core instead.
bool seq_reduce(const EdgeProgram& ep, const VertexOutput& vo) {
  return ep.mapping == WorkMapping::VertexBalanced && vo.reverse != ep.dst_major;
}

bool all_sequential(const EdgeProgram& ep) {
  for (const VertexOutput& vo : ep.vertex_outputs) {
    if (!seq_reduce(ep, vo)) return false;
  }
  return true;
}

/// The Load op that reads the non-center ("other") endpoint under the
/// program's primary orientation.
EPOp other_load(const EdgeProgram& ep) {
  return ep.dst_major ? EPOp::LoadU : EPOp::LoadV;
}

/// Preconditions the forward (walk-only) cores share: vertex-balanced walk,
/// no edge outputs, every reduction sequential. The backward and
/// edge-balanced matchers check their own layouts instead.
bool forward_core_eligible(const EdgeProgram& ep) {
  return ep.mapping == WorkMapping::VertexBalanced && ep.edge_outputs.empty() &&
         !ep.vertex_outputs.empty() && all_sequential(ep);
}

int pick_template_width(std::int64_t hot) {
  switch (hot) {
    case 16: return 16;
    case 32: return 32;
    case 64: return 64;
    default: return 0;  // runtime-width fallback core
  }
}

bool is_sum(const VertexOutput& vo) {
  return static_cast<ReduceFn>(vo.rfn) == ReduceFn::Sum && !vo.track_argmax;
}

// ---------------------------------------------------------------------------
// Matchers. Each verifies the full instruction sequence of the probed shape:
// opcodes, register wiring (relative to the instruction's own dst registers),
// widths, tensor consistency across phases, and reduction functions. Any
// mismatch returns None and the program stays on the interpreter.
// ---------------------------------------------------------------------------

CoreBinding match_gcn_wsum(const EdgeProgram& ep) {
  CoreBinding cb;
  if (ep.phases.size() != 1 || ep.vertex_outputs.size() != 1) return cb;
  const auto& is = ep.phases[0].instrs;
  const VertexOutput& vo = ep.vertex_outputs[0];
  if (is.size() != 2) return cb;
  const EPInstr& ld = is[0];
  const EPInstr& rd = is[1];
  if (ld.op != other_load(ep) || ld.dst < 0) return cb;
  if (rd.op != EPOp::Reduce || rd.a != ld.dst || rd.acc != 0) return cb;
  if (static_cast<ReduceFn>(vo.rfn) != ReduceFn::Sum || vo.phase != 0) return cb;
  if (ld.width != vo.width || rd.width != vo.width) return cb;
  cb.kind = CoreKind::GcnWsum;
  cb.t_feat = ld.tensor;
  cb.hot_width = vo.width;
  cb.template_width = pick_template_width(cb.hot_width);
  return cb;
}

CoreBinding match_edgeconv_max(const EdgeProgram& ep) {
  CoreBinding cb;
  if (!ep.dst_major) return cb;
  if (ep.phases.size() != 1 || ep.vertex_outputs.size() != 1) return cb;
  const auto& is = ep.phases[0].instrs;
  const VertexOutput& vo = ep.vertex_outputs[0];
  if (is.size() != 6) return cb;
  const EPInstr& lu = is[0];   // load_u x
  const EPInstr& lv = is[1];   // load_v x (same tensor)
  const EPInstr& sub = is[2];  // x_u - x_v
  const EPInstr& ly = is[3];   // load_v y
  const EPInstr& add = is[4];  // + y_v
  const EPInstr& rd = is[5];
  if (lu.op != EPOp::LoadU || lv.op != EPOp::LoadV || lv.tensor != lu.tensor)
    return cb;
  if (sub.op != EPOp::Sub || sub.a != lu.dst || sub.b != lv.dst) return cb;
  if (ly.op != EPOp::LoadV) return cb;
  if (add.op != EPOp::Add || add.a != sub.dst || add.b != ly.dst) return cb;
  if (rd.op != EPOp::Reduce || rd.a != add.dst || rd.acc != 0) return cb;
  if (static_cast<ReduceFn>(vo.rfn) != ReduceFn::Max || !vo.track_argmax ||
      vo.phase != 0)
    return cb;
  const std::int64_t w = vo.width;
  if (lu.width != w || lv.width != w || sub.width != w || ly.width != w ||
      add.width != w || rd.width != w)
    return cb;
  cb.kind = CoreKind::EdgeConvMax;
  cb.t_feat = lu.tensor;
  cb.t_b = ly.tensor;
  cb.hot_width = w;
  cb.template_width = pick_template_width(cb.hot_width);
  return cb;
}

/// Matches the recomputed score chain `leaky_relu(a_l[u] + a_r[v])` starting
/// at instrs[at]; returns the index past the chain, or -1 on mismatch. On
/// first use (*t_al < 0) captures the tensors/alpha; later phases must agree.
int match_gat_score(const std::vector<EPInstr>& is, int at, std::int64_t h,
                    int* t_al, int* t_ar, float* alpha, int* score_reg) {
  if (at + 4 > static_cast<int>(is.size())) return -1;
  const EPInstr& lu = is[at];
  const EPInstr& lv = is[at + 1];
  const EPInstr& add = is[at + 2];
  const EPInstr& lr = is[at + 3];
  if (lu.op != EPOp::LoadU || lv.op != EPOp::LoadV) return -1;
  if (add.op != EPOp::Add || add.a != lu.dst || add.b != lv.dst) return -1;
  if (lr.op != EPOp::LeakyReLU || lr.a != add.dst) return -1;
  if (lu.width != h || lv.width != h || add.width != h || lr.width != h)
    return -1;
  if (*t_al < 0) {
    *t_al = lu.tensor;
    *t_ar = lv.tensor;
    *alpha = lr.alpha;
  } else if (lu.tensor != *t_al || lv.tensor != *t_ar || lr.alpha != *alpha) {
    return -1;
  }
  *score_reg = lr.dst;
  return at + 4;
}

CoreBinding match_gat_softmax(const EdgeProgram& ep) {
  CoreBinding cb;
  if (!ep.dst_major) return cb;
  if (ep.phases.size() != 3 || ep.vertex_outputs.size() != 3) return cb;
  const VertexOutput& vmax = ep.vertex_outputs[0];
  const VertexOutput& vsum = ep.vertex_outputs[1];
  const VertexOutput& vout = ep.vertex_outputs[2];
  if (static_cast<ReduceFn>(vmax.rfn) != ReduceFn::Max || !vmax.track_argmax ||
      vmax.phase != 0)
    return cb;
  if (static_cast<ReduceFn>(vsum.rfn) != ReduceFn::Sum || vsum.phase != 1)
    return cb;
  if (static_cast<ReduceFn>(vout.rfn) != ReduceFn::Sum || vout.phase != 2)
    return cb;
  const std::int64_t h = vmax.width;  // heads
  const std::int64_t w = vout.width;  // heads * f
  if (vsum.width != h || h <= 0 || w % h != 0) return cb;

  int t_al = -1, t_ar = -1, score = -1;
  float alpha = 0.f;

  // Phase 0: score chain + Max reduce.
  {
    const auto& is = ep.phases[0].instrs;
    if (is.size() != 5) return cb;
    const int at = match_gat_score(is, 0, h, &t_al, &t_ar, &alpha, &score);
    if (at != 4) return cb;
    const EPInstr& rd = is[4];
    if (rd.op != EPOp::Reduce || rd.a != score || rd.acc != 0 || rd.width != h)
      return cb;
  }
  // Phase 1: score chain, subtract finalized max, exp, Sum reduce.
  {
    const auto& is = ep.phases[1].instrs;
    if (is.size() != 8) return cb;
    const int at = match_gat_score(is, 0, h, &t_al, &t_ar, &alpha, &score);
    if (at != 4) return cb;
    const EPInstr& la = is[4];
    const EPInstr& sub = is[5];
    const EPInstr& ex = is[6];
    const EPInstr& rd = is[7];
    if (la.op != EPOp::LoadAcc || la.tensor != vmax.node || la.width != h)
      return cb;
    if (sub.op != EPOp::Sub || sub.a != score || sub.b != la.dst) return cb;
    if (ex.op != EPOp::Exp || ex.a != sub.dst) return cb;
    if (rd.op != EPOp::Reduce || rd.a != ex.dst || rd.acc != 1) return cb;
    if (sub.width != h || ex.width != h || rd.width != h) return cb;
  }
  // Phase 2: feature load, score chain, exp(score - max) / sum, MulHead,
  // Sum reduce of the weighted features.
  int t_feat = -1;
  {
    const auto& is = ep.phases[2].instrs;
    if (is.size() != 12) return cb;
    const EPInstr& lf = is[0];
    if (lf.op != EPOp::LoadU || lf.width != w) return cb;
    t_feat = lf.tensor;
    const int at = match_gat_score(is, 1, h, &t_al, &t_ar, &alpha, &score);
    if (at != 5) return cb;
    const EPInstr& lmax = is[5];
    const EPInstr& sub = is[6];
    const EPInstr& ex = is[7];
    const EPInstr& lsum = is[8];
    const EPInstr& dv = is[9];
    const EPInstr& mh = is[10];
    const EPInstr& rd = is[11];
    if (lmax.op != EPOp::LoadAcc || lmax.tensor != vmax.node || lmax.width != h)
      return cb;
    if (sub.op != EPOp::Sub || sub.a != score || sub.b != lmax.dst) return cb;
    if (ex.op != EPOp::Exp || ex.a != sub.dst) return cb;
    if (lsum.op != EPOp::LoadAcc || lsum.tensor != vsum.node || lsum.width != h)
      return cb;
    if (dv.op != EPOp::Div || dv.a != ex.dst || dv.b != lsum.dst) return cb;
    if (mh.op != EPOp::MulHead || mh.a != lf.dst || mh.b != dv.dst ||
        mh.heads != h || mh.width != w)
      return cb;
    if (rd.op != EPOp::Reduce || rd.a != mh.dst || rd.acc != 2 || rd.width != w)
      return cb;
  }
  cb.kind = CoreKind::GatSoftmax;
  cb.t_feat = t_feat;
  cb.t_a = t_al;
  cb.t_b = t_ar;
  cb.alpha = alpha;
  cb.heads = h;
  cb.hot_width = w / h;  // per-head feature width is the hot inner loop
  cb.template_width = pick_template_width(cb.hot_width);
  return cb;
}

CoreBinding match_monet_gauss(const EdgeProgram& ep) {
  CoreBinding cb;
  if (ep.phases.size() != 1 || ep.vertex_outputs.size() != 1) return cb;
  const auto& is = ep.phases[0].instrs;
  const VertexOutput& vo = ep.vertex_outputs[0];
  if (is.size() != 5) return cb;
  const EPInstr& lf = is[0];  // load(other) feat
  const EPInstr& le = is[1];  // load_e pseudo
  const EPInstr& ga = is[2];  // gauss
  const EPInstr& mh = is[3];  // mul_head
  const EPInstr& rd = is[4];
  if (lf.op != other_load(ep)) return cb;
  if (le.op != EPOp::LoadE) return cb;
  if (ga.op != EPOp::Gauss || ga.a != le.dst || ga.tensor < 0 || ga.tensor2 < 0)
    return cb;
  if (mh.op != EPOp::MulHead || mh.a != lf.dst || mh.b != ga.dst) return cb;
  if (rd.op != EPOp::Reduce || rd.a != mh.dst || rd.acc != 0) return cb;
  if (static_cast<ReduceFn>(vo.rfn) != ReduceFn::Sum || vo.phase != 0) return cb;
  const std::int64_t k = ga.width;  // mixture size
  const std::int64_t w = vo.width;
  if (k <= 0 || mh.heads != k || w % k != 0) return cb;
  if (lf.width != w || mh.width != w || rd.width != w) return cb;
  cb.kind = CoreKind::MoNetGauss;
  cb.t_feat = lf.tensor;
  cb.t_a = le.tensor;   // pseudo-coordinates
  cb.t_b = ga.tensor;   // mu
  cb.t_c = ga.tensor2;  // sigma
  cb.heads = k;
  cb.hot_width = w / k;  // per-kernel feature width
  cb.template_width = pick_template_width(cb.hot_width);
  return cb;
}

/// Classifies a dual-reduce backward layout: exactly two Sum vertex outputs
/// in phase 0, one sequential (the walk core's) and one boundary (the
/// combine core's). Fills seq/boundary indices; false on any other layout.
bool classify_dual_reduce(const EdgeProgram& ep, int* seq, int* boundary) {
  if (ep.vertex_outputs.size() != 2) return false;
  *seq = -1;
  *boundary = -1;
  for (int i = 0; i < 2; ++i) {
    const VertexOutput& vo = ep.vertex_outputs[i];
    if (!is_sum(vo) || vo.phase != 0) return false;
    if (seq_reduce(ep, vo)) {
      if (*seq >= 0) return false;
      *seq = i;
    } else {
      if (*boundary >= 0) return false;
      *boundary = i;
    }
  }
  return *seq >= 0 && *boundary >= 0;
}

/// EdgeConv backward: argmax-replay gather with a center-side and a
/// neighbor-side Sum (see engine/cores/maxbwd_gather.h).
CoreBinding match_maxbwd_gather(const EdgeProgram& ep) {
  CoreBinding cb;
  if (!ep.dst_major || !ep.edge_outputs.empty()) return cb;
  if (ep.phases.size() != 1) return cb;
  const auto& is = ep.phases[0].instrs;
  if (is.size() != 4) return cb;
  const EPInstr& lv = is[0];  // load_v g
  const EPInstr& mk = is[1];  // max_bwd_mask
  const EPInstr& r1 = is[2];
  const EPInstr& r2 = is[3];
  if (lv.op != EPOp::LoadV || lv.dst < 0) return cb;
  if (mk.op != EPOp::MaxBwdMask || mk.a != lv.dst || mk.tensor < 0) return cb;
  if (r1.op != EPOp::Reduce || r1.a != mk.dst) return cb;
  if (r2.op != EPOp::Reduce || r2.a != mk.dst || r2.acc == r1.acc) return cb;
  int seq = -1, boundary = -1;
  if (!classify_dual_reduce(ep, &seq, &boundary)) return cb;
  const std::int64_t w = ep.vertex_outputs[0].width;
  if (ep.vertex_outputs[1].width != w) return cb;
  if (lv.width != w || mk.width != w || r1.width != w || r2.width != w)
    return cb;
  cb.kind = CoreKind::MaxBwdGather;
  cb.t_feat = lv.tensor;  // upstream gradient rows
  cb.t_aux = mk.tensor;   // argmax aux of the forward Max
  cb.seq_out = seq;
  cb.boundary_out = boundary;
  cb.hot_width = w;
  cb.template_width = pick_template_width(cb.hot_width);
  return cb;
}

/// GAT backward (score-gradient program): mask/sub/leaky_relu_grad chain
/// with a dst-side and a src-side Sum (see engine/cores/gat_scorebwd.h).
CoreBinding match_gat_scorebwd(const EdgeProgram& ep) {
  CoreBinding cb;
  if (!ep.dst_major || !ep.edge_outputs.empty()) return cb;
  if (ep.phases.size() != 1) return cb;
  const auto& is = ep.phases[0].instrs;
  if (is.size() != 8) return cb;
  const EPInstr& le = is[0];   // load_e eg
  const EPInstr& lv = is[1];   // load_v gs
  const EPInstr& mk = is[2];   // max_bwd_mask gs
  const EPInstr& sub = is[3];  // eg - mask
  const EPInstr& ls = is[4];   // load_e sc
  const EPInstr& lrg = is[5];  // leaky_relu_grad
  const EPInstr& r1 = is[6];
  const EPInstr& r2 = is[7];
  if (le.op != EPOp::LoadE || lv.op != EPOp::LoadV) return cb;
  if (mk.op != EPOp::MaxBwdMask || mk.a != lv.dst || mk.tensor < 0) return cb;
  if (sub.op != EPOp::Sub || sub.a != le.dst || sub.b != mk.dst) return cb;
  if (ls.op != EPOp::LoadE) return cb;
  if (lrg.op != EPOp::LeakyReLUGrad || lrg.a != sub.dst || lrg.b != ls.dst)
    return cb;
  if (r1.op != EPOp::Reduce || r1.a != lrg.dst) return cb;
  if (r2.op != EPOp::Reduce || r2.a != lrg.dst || r2.acc == r1.acc) return cb;
  int seq = -1, boundary = -1;
  if (!classify_dual_reduce(ep, &seq, &boundary)) return cb;
  const std::int64_t h = ep.vertex_outputs[0].width;
  if (ep.vertex_outputs[1].width != h) return cb;
  if (le.width != h || lv.width != h || mk.width != h || sub.width != h ||
      ls.width != h || lrg.width != h || r1.width != h || r2.width != h)
    return cb;
  // The combine replays the chain from the input tensors instead of reading a
  // stash, which re-reads two edge rows per boundary edge. That trade only
  // wins while the head row is narrow enough that per-edge overhead, not
  // traffic, dominates; the measured crossover on bench_micro_kernels is
  // h = 8, so wider score programs stay interpreted (and keep the stash).
  if (h > 8) return cb;
  cb.kind = CoreKind::GatScoreBwd;
  cb.t_feat = le.tensor;  // per-edge upstream gradient
  cb.t_a = lv.tensor;     // per-vertex gradient sum
  cb.t_b = ls.tensor;     // raw score
  cb.t_aux = mk.tensor;
  cb.alpha = lrg.alpha;
  cb.seq_out = seq;
  cb.boundary_out = boundary;
  cb.hot_width = h;
  cb.template_width = pick_template_width(cb.hot_width);
  return cb;
}

/// True when `in` is a Load of `op` at `width` whose tensor matches *t,
/// capturing the tensor on first use (*t < 0).
bool match_load(const EPInstr& in, EPOp op, std::int64_t width, int* t) {
  if (in.op != op || in.width != width) return false;
  if (*t < 0) *t = in.tensor;
  return in.tensor == *t;
}

/// True when vertex output `out` exists and is a Sum with the given role
/// (boundary or sequential), feeding phase and width: pins a Reduce's target.
bool is_output(const EdgeProgram& ep, int out, bool boundary, int phase,
               std::int64_t width) {
  if (out < 0 || out >= static_cast<int>(ep.vertex_outputs.size())) return false;
  const VertexOutput& vo = ep.vertex_outputs[out];
  return is_sum(vo) && vo.phase == phase && vo.width == width &&
         seq_reduce(ep, vo) != boundary;
}

/// GAT backward (attention-aggregation program): a two-phase program whose
/// boundary output is the feature gradient (see engine/cores/gat_attnbwd.h).
CoreBinding match_gat_attnbwd(const EdgeProgram& ep) {
  CoreBinding cb;
  if (!ep.dst_major || ep.phases.size() != 2) return cb;
  if (ep.vertex_outputs.size() != 3 || ep.edge_outputs.size() != 2) return cb;
  const auto& p0 = ep.phases[0].instrs;
  const auto& p1 = ep.phases[1].instrs;
  if (p0.size() != 18 || p1.size() != 17) return cb;
  const std::int64_t h = p0[0].width;  // heads
  const std::int64_t w = p0[4].width;  // heads * f
  if (h <= 0 || w % h != 0) return cb;
  int t_al = -1, t_ar = -1, t_g = -1, t_max = -1, t_sum = -1, t_ht = -1;
  // Phase 0: score + store, softmax weight, weighted gradient (boundary),
  // dot with the features scaled into the phase-0 sequential sum.
  const EPInstr& lu = p0[0];    // load_u al
  const EPInstr& lv = p0[1];    // load_v ar
  const EPInstr& add = p0[2];   // s = al + ar
  const EPInstr& st0 = p0[3];   // store_e s
  const EPInstr& lg = p0[4];    // load_v g
  const EPInstr& lr = p0[5];    // leaky_relu s
  const EPInstr& lmx = p0[6];   // load_v max
  const EPInstr& sub = p0[7];   // - max
  const EPInstr& ex = p0[8];    // exp
  const EPInstr& lsm = p0[9];   // load_v sum
  const EPInstr& wt = p0[10];   // a = exp / sum
  const EPInstr& mh = p0[11];   // a * g per head
  const EPInstr& rb = p0[12];   // reduce -> boundary
  const EPInstr& lh = p0[13];   // load_u ht
  const EPInstr& dh = p0[14];   // dot = dot_head(g, ht)
  const EPInstr& mul = p0[15];  // dot * a
  const EPInstr& dv = p0[16];   // / sum
  const EPInstr& r1 = p0[17];   // reduce -> acc1
  if (!match_load(lu, EPOp::LoadU, h, &t_al) ||
      !match_load(lv, EPOp::LoadV, h, &t_ar) ||
      !match_load(lg, EPOp::LoadV, w, &t_g) ||
      !match_load(lmx, EPOp::LoadV, h, &t_max) ||
      !match_load(lsm, EPOp::LoadV, h, &t_sum) ||
      !match_load(lh, EPOp::LoadU, w, &t_ht))
    return cb;
  if (add.op != EPOp::Add || add.a != lu.dst || add.b != lv.dst) return cb;
  if (st0.op != EPOp::StoreE || st0.a != add.dst) return cb;
  if (lr.op != EPOp::LeakyReLU || lr.a != add.dst) return cb;
  if (sub.op != EPOp::Sub || sub.a != lr.dst || sub.b != lmx.dst) return cb;
  if (ex.op != EPOp::Exp || ex.a != sub.dst) return cb;
  if (wt.op != EPOp::Div || wt.a != ex.dst || wt.b != lsm.dst) return cb;
  if (mh.op != EPOp::MulHead || mh.a != lg.dst || mh.b != wt.dst ||
      mh.heads != h || mh.width != w)
    return cb;
  if (rb.op != EPOp::Reduce || rb.a != mh.dst) return cb;
  // DotHead's per-head operand width is the register's, not the op's.
  const auto reg_w = [&](int r) {
    return r >= 0 && r < static_cast<int>(ep.reg_width.size()) ? ep.reg_width[r]
                                                                : -1;
  };
  if (dh.op != EPOp::DotHead || dh.a != lg.dst || dh.b != lh.dst ||
      dh.heads != h || reg_w(lg.dst) != w)
    return cb;
  if (mul.op != EPOp::Mul || mul.a != dh.dst || mul.b != wt.dst) return cb;
  if (dv.op != EPOp::Div || dv.a != mul.dst || dv.b != lsm.dst) return cb;
  if (r1.op != EPOp::Reduce || r1.a != dv.dst) return cb;
  for (const EPInstr* in : {&add, &st0, &lr, &sub, &ex, &wt, &dh, &mul, &dv}) {
    if (in->width != h) return cb;
  }
  if (!is_output(ep, rb.acc, /*boundary=*/true, 0, w) ||
      !is_output(ep, r1.acc, /*boundary=*/false, 0, h))
    return cb;
  // Phase 1: (dot / sum - acc1) times the recomputed exp, stored and summed.
  const EPInstr& lg1 = p1[0];    // load_v g
  const EPInstr& lh1 = p1[1];    // load_u ht
  const EPInstr& dh1 = p1[2];    // dot_head(g, ht)
  const EPInstr& lsm1 = p1[3];   // load_v sum
  const EPInstr& dv1 = p1[4];    // dot / sum
  const EPInstr& la = p1[5];     // load_acc acc1
  const EPInstr& sub1 = p1[6];   // - acc1
  const EPInstr& lmx1 = p1[11];  // load_v max
  const EPInstr& sub2 = p1[12];  // leaky_relu(s) - max
  const EPInstr& ex1 = p1[13];   // exp
  const EPInstr& eg = p1[14];    // exp_grad
  const EPInstr& st1 = p1[15];   // store_e
  const EPInstr& r2 = p1[16];    // reduce -> acc2
  if (!match_load(lg1, EPOp::LoadV, w, &t_g) ||
      !match_load(lh1, EPOp::LoadU, w, &t_ht) ||
      !match_load(lsm1, EPOp::LoadV, h, &t_sum) ||
      !match_load(lmx1, EPOp::LoadV, h, &t_max))
    return cb;
  if (dh1.op != EPOp::DotHead || dh1.a != lg1.dst || dh1.b != lh1.dst ||
      dh1.heads != h || reg_w(lg1.dst) != w)
    return cb;
  if (dv1.op != EPOp::Div || dv1.a != dh1.dst || dv1.b != lsm1.dst) return cb;
  if (la.op != EPOp::LoadAcc || la.width != h ||
      la.tensor != ep.vertex_outputs[r1.acc].node)
    return cb;
  if (sub1.op != EPOp::Sub || sub1.a != dv1.dst || sub1.b != la.dst) return cb;
  float alpha = lr.alpha;
  int score = -1;
  if (match_gat_score(p1, 7, h, &t_al, &t_ar, &alpha, &score) != 11) return cb;
  if (sub2.op != EPOp::Sub || sub2.a != score || sub2.b != lmx1.dst) return cb;
  if (ex1.op != EPOp::Exp || ex1.a != sub2.dst) return cb;
  if (eg.op != EPOp::ExpGrad || eg.a != sub1.dst || eg.b != ex1.dst) return cb;
  if (st1.op != EPOp::StoreE || st1.a != eg.dst) return cb;
  if (r2.op != EPOp::Reduce || r2.a != eg.dst) return cb;
  for (const EPInstr* in : {&dh1, &dv1, &sub1, &sub2, &ex1, &eg, &st1}) {
    if (in->width != h) return cb;
  }
  if (!is_output(ep, r2.acc, /*boundary=*/false, 1, h)) return cb;
  // The stores must target the program's two declared edge outputs.
  const int e0 = ep.edge_outputs[0].node;
  const int e1 = ep.edge_outputs[1].node;
  if (!((st0.tensor == e0 && st1.tensor == e1) ||
        (st0.tensor == e1 && st1.tensor == e0)))
    return cb;
  cb.kind = CoreKind::GatAttnBwd;
  cb.t_feat = t_ht;
  cb.t_a = t_al;
  cb.t_b = t_ar;
  cb.t_c = t_max;
  cb.t_d = t_sum;
  cb.t_g = t_g;
  cb.t_e0 = st0.tensor;
  cb.t_e1 = st1.tensor;
  cb.alpha = alpha;
  cb.heads = h;
  cb.seq_out = r1.acc;
  cb.seq_out2 = r2.acc;
  cb.boundary_out = rb.acc;
  cb.hot_width = w / h;  // per-head feature width
  cb.template_width = pick_template_width(cb.hot_width);
  return cb;
}

/// MoNet backward: the store_e stash shape — gaussian weights and per-kernel
/// dots stashed to edge outputs plus a sequential weighted gather (see
/// engine/cores/gauss_bwd.h).
CoreBinding match_gauss_bwd(const EdgeProgram& ep) {
  CoreBinding cb;
  if (ep.dst_major) return cb;  // fusion emits this shape src-major
  if (ep.phases.size() != 1 || ep.vertex_outputs.size() != 1 ||
      ep.edge_outputs.size() != 2)
    return cb;
  const VertexOutput& vo = ep.vertex_outputs[0];
  if (!is_sum(vo) || vo.phase != 0 || !seq_reduce(ep, vo)) return cb;
  const auto& is = ep.phases[0].instrs;
  if (is.size() != 9) return cb;
  const EPInstr& le = is[0];   // load_e pseudo
  const EPInstr& ga = is[1];   // gauss
  const EPInstr& s0 = is[2];   // store_e weights
  const EPInstr& lv = is[3];   // load_v grad
  const EPInstr& lu = is[4];   // load_u feat (center)
  const EPInstr& dh = is[5];   // dot_head(grad, feat)
  const EPInstr& s1 = is[6];   // store_e dots
  const EPInstr& mh = is[7];   // mul_head(grad, weights)
  const EPInstr& rd = is[8];
  if (le.op != EPOp::LoadE) return cb;
  if (ga.op != EPOp::Gauss || ga.a != le.dst || ga.tensor < 0 || ga.tensor2 < 0)
    return cb;
  if (s0.op != EPOp::StoreE || s0.a != ga.dst) return cb;
  if (lv.op != EPOp::LoadV || lu.op != EPOp::LoadU) return cb;
  if (dh.op != EPOp::DotHead || dh.a != lv.dst || dh.b != lu.dst) return cb;
  if (s1.op != EPOp::StoreE || s1.a != dh.dst) return cb;
  if (mh.op != EPOp::MulHead || mh.a != lv.dst || mh.b != ga.dst) return cb;
  if (rd.op != EPOp::Reduce || rd.a != mh.dst || rd.acc != 0) return cb;
  const std::int64_t k = ga.width;  // mixture size
  const std::int64_t w = vo.width;
  if (k <= 0 || w % k != 0) return cb;
  if (dh.heads != k || mh.heads != k) return cb;
  if (lv.width != w || lu.width != w || mh.width != w || rd.width != w)
    return cb;
  if (dh.width != k || s0.width != k || s1.width != k) return cb;
  // The stores must target the program's two declared edge outputs.
  const int e0 = ep.edge_outputs[0].node;
  const int e1 = ep.edge_outputs[1].node;
  if (!((s0.tensor == e0 && s1.tensor == e1) ||
        (s0.tensor == e1 && s1.tensor == e0)))
    return cb;
  cb.kind = CoreKind::GaussBwd;
  cb.t_feat = lu.tensor;  // center features
  cb.t_g = lv.tensor;     // upstream gradient
  cb.t_a = le.tensor;     // pseudo-coordinates
  cb.t_b = ga.tensor;     // mu
  cb.t_c = ga.tensor2;    // sigma
  cb.t_e0 = s0.tensor;
  cb.t_e1 = s1.tensor;
  cb.heads = k;
  cb.seq_out = 0;
  cb.hot_width = w / k;
  cb.template_width = pick_template_width(cb.hot_width);
  return cb;
}

/// Edge-balanced Sum gather of the non-target endpoint. The interpreter
/// realizes the shape as its deterministic combine alone (the walk is fully
/// elided); the core is that combine as a flat loop, so matching it changes
/// nothing about the fold order.
CoreBinding match_sum_eb(const EdgeProgram& ep) {
  CoreBinding cb;
  if (ep.phases.size() != 1 || ep.vertex_outputs.size() != 1 ||
      !ep.edge_outputs.empty())
    return cb;
  const VertexOutput& vo = ep.vertex_outputs[0];
  if (!is_sum(vo) || vo.phase != 0) return cb;
  const auto& is = ep.phases[0].instrs;
  if (is.size() != 2) return cb;
  const EPInstr& ld = is[0];
  const EPInstr& rd = is[1];
  // The load must read the endpoint opposite the reduction target: targets
  // are src vertices when reverse (fold over out-adjacency, contributions
  // from dst rows) and dst vertices otherwise.
  if (ld.op != (vo.reverse ? EPOp::LoadV : EPOp::LoadU) || ld.dst < 0)
    return cb;
  if (rd.op != EPOp::Reduce || rd.a != ld.dst || rd.acc != 0) return cb;
  if (ld.width != vo.width || rd.width != vo.width) return cb;
  cb.kind = CoreKind::SumEb;
  cb.t_feat = ld.tensor;
  cb.seq_out = 0;  // complete after the span — no separate combine
  cb.hot_width = vo.width;
  cb.template_width = pick_template_width(cb.hot_width);
  return cb;
}

// ---------------------------------------------------------------------------
// Dispatch: one switch per core over the supported template widths.
// ---------------------------------------------------------------------------

void run_gcn_wsum(const Graph& g, const EdgeProgram& ep, const CoreBinding& cb,
                  const CoreArgs& a, std::int64_t v_lo, std::int64_t v_hi) {
  const auto& ptr = ep.dst_major ? g.in_ptr() : g.out_ptr();
  const auto& adj = ep.dst_major ? g.in_src() : g.out_dst();
  switch (cb.template_width) {
    case 16:
      cores::gcn_wsum<16>(ptr.data(), adj.data(), a.feat, a.feat_cols, a.out0,
                          cb.hot_width, v_lo, v_hi);
      break;
    case 32:
      cores::gcn_wsum<32>(ptr.data(), adj.data(), a.feat, a.feat_cols, a.out0,
                          cb.hot_width, v_lo, v_hi);
      break;
    case 64:
      cores::gcn_wsum<64>(ptr.data(), adj.data(), a.feat, a.feat_cols, a.out0,
                          cb.hot_width, v_lo, v_hi);
      break;
    default:
      cores::gcn_wsum<0>(ptr.data(), adj.data(), a.feat, a.feat_cols, a.out0,
                         cb.hot_width, v_lo, v_hi);
  }
}

void run_edgeconv_max(const Graph& g, const CoreBinding& cb, const CoreArgs& a,
                      std::int64_t v_lo, std::int64_t v_hi) {
  const auto& ptr = g.in_ptr();  // matcher requires dst-major
  const auto& adj = g.in_src();
  const auto& eid = g.in_eid();
  switch (cb.template_width) {
    case 16:
      cores::edgeconv_max<16>(ptr.data(), adj.data(), eid.data(), a.feat,
                              a.feat_cols, a.b, a.b_cols, a.out0, a.aux0,
                              cb.hot_width, v_lo, v_hi);
      break;
    case 32:
      cores::edgeconv_max<32>(ptr.data(), adj.data(), eid.data(), a.feat,
                              a.feat_cols, a.b, a.b_cols, a.out0, a.aux0,
                              cb.hot_width, v_lo, v_hi);
      break;
    case 64:
      cores::edgeconv_max<64>(ptr.data(), adj.data(), eid.data(), a.feat,
                              a.feat_cols, a.b, a.b_cols, a.out0, a.aux0,
                              cb.hot_width, v_lo, v_hi);
      break;
    default:
      cores::edgeconv_max<0>(ptr.data(), adj.data(), eid.data(), a.feat,
                             a.feat_cols, a.b, a.b_cols, a.out0, a.aux0,
                             cb.hot_width, v_lo, v_hi);
  }
}

void run_gat_softmax(const Graph& g, const CoreBinding& cb, const CoreArgs& a,
                     std::int64_t v_lo, std::int64_t v_hi) {
  const auto& ptr = g.in_ptr();  // matcher requires dst-major
  const auto& adj = g.in_src();
  const auto& eid = g.in_eid();
  switch (cb.template_width) {
    case 16:
      cores::gat_softmax<16>(ptr.data(), adj.data(), eid.data(), a.feat,
                             a.feat_cols, a.a, a.a_cols, a.b, a.b_cols,
                             cb.alpha, cb.heads, cb.hot_width, a.out0, a.aux0,
                             a.out1, a.out2, v_lo, v_hi);
      break;
    case 32:
      cores::gat_softmax<32>(ptr.data(), adj.data(), eid.data(), a.feat,
                             a.feat_cols, a.a, a.a_cols, a.b, a.b_cols,
                             cb.alpha, cb.heads, cb.hot_width, a.out0, a.aux0,
                             a.out1, a.out2, v_lo, v_hi);
      break;
    case 64:
      cores::gat_softmax<64>(ptr.data(), adj.data(), eid.data(), a.feat,
                             a.feat_cols, a.a, a.a_cols, a.b, a.b_cols,
                             cb.alpha, cb.heads, cb.hot_width, a.out0, a.aux0,
                             a.out1, a.out2, v_lo, v_hi);
      break;
    default:
      cores::gat_softmax<0>(ptr.data(), adj.data(), eid.data(), a.feat,
                            a.feat_cols, a.a, a.a_cols, a.b, a.b_cols, cb.alpha,
                            cb.heads, cb.hot_width, a.out0, a.aux0, a.out1,
                            a.out2, v_lo, v_hi);
  }
}

void run_monet_gauss(const Graph& g, const EdgeProgram& ep,
                     const CoreBinding& cb, const CoreArgs& a,
                     std::int64_t v_lo, std::int64_t v_hi) {
  const auto& ptr = ep.dst_major ? g.in_ptr() : g.out_ptr();
  const auto& adj = ep.dst_major ? g.in_src() : g.out_dst();
  const auto& eid = ep.dst_major ? g.in_eid() : g.out_eid();
  switch (cb.template_width) {
    case 16:
      cores::monet_gauss<16>(ptr.data(), adj.data(), eid.data(), a.feat,
                             a.feat_cols, a.a, a.a_cols, a.b, a.c, a.b_cols,
                             cb.heads, cb.hot_width, a.out0, v_lo,
                             v_hi);
      break;
    case 32:
      cores::monet_gauss<32>(ptr.data(), adj.data(), eid.data(), a.feat,
                             a.feat_cols, a.a, a.a_cols, a.b, a.c, a.b_cols,
                             cb.heads, cb.hot_width, a.out0, v_lo,
                             v_hi);
      break;
    case 64:
      cores::monet_gauss<64>(ptr.data(), adj.data(), eid.data(), a.feat,
                             a.feat_cols, a.a, a.a_cols, a.b, a.c, a.b_cols,
                             cb.heads, cb.hot_width, a.out0, v_lo,
                             v_hi);
      break;
    default:
      cores::monet_gauss<0>(ptr.data(), adj.data(), eid.data(), a.feat,
                            a.feat_cols, a.a, a.a_cols, a.b, a.c, a.b_cols,
                            cb.heads, cb.hot_width, a.out0, v_lo,
                            v_hi);
  }
}

void run_maxbwd_gather(const Graph& g, const CoreBinding& cb, const CoreArgs& a,
                       std::int64_t v_lo, std::int64_t v_hi) {
  const auto& ptr = g.in_ptr();  // matcher requires dst-major
  const auto& eid = g.in_eid();
  switch (cb.template_width) {
    case 16:
      cores::maxbwd_gather<16>(ptr.data(), eid.data(), a.feat, a.feat_cols,
                               a.mask, a.mask_cols, a.out0, cb.hot_width, v_lo, v_hi);
      break;
    case 32:
      cores::maxbwd_gather<32>(ptr.data(), eid.data(), a.feat, a.feat_cols,
                               a.mask, a.mask_cols, a.out0, cb.hot_width, v_lo, v_hi);
      break;
    case 64:
      cores::maxbwd_gather<64>(ptr.data(), eid.data(), a.feat, a.feat_cols,
                               a.mask, a.mask_cols, a.out0, cb.hot_width, v_lo, v_hi);
      break;
    default:
      cores::maxbwd_gather<0>(ptr.data(), eid.data(), a.feat, a.feat_cols,
                              a.mask, a.mask_cols, a.out0, cb.hot_width, v_lo, v_hi);
  }
}

void run_maxbwd_gather_combine(const Graph& g, const EdgeProgram& ep,
                               const CoreBinding& cb, const CoreArgs& a,
                               std::int64_t t_lo, std::int64_t t_hi) {
  const VertexOutput& vo = ep.vertex_outputs[cb.boundary_out];
  const auto& ptr = vo.reverse ? g.out_ptr() : g.in_ptr();
  const auto& adj = vo.reverse ? g.out_dst() : g.in_src();
  const auto& eid = vo.reverse ? g.out_eid() : g.in_eid();
  switch (cb.template_width) {
    case 16:
      cores::maxbwd_gather_combine<16>(ptr.data(), adj.data(), eid.data(),
                                       a.feat, a.feat_cols, a.mask, a.mask_cols,
                                       a.outb, cb.hot_width, t_lo,
                                       t_hi);
      break;
    case 32:
      cores::maxbwd_gather_combine<32>(ptr.data(), adj.data(), eid.data(),
                                       a.feat, a.feat_cols, a.mask, a.mask_cols,
                                       a.outb, cb.hot_width, t_lo,
                                       t_hi);
      break;
    case 64:
      cores::maxbwd_gather_combine<64>(ptr.data(), adj.data(), eid.data(),
                                       a.feat, a.feat_cols, a.mask, a.mask_cols,
                                       a.outb, cb.hot_width, t_lo,
                                       t_hi);
      break;
    default:
      cores::maxbwd_gather_combine<0>(ptr.data(), adj.data(), eid.data(),
                                      a.feat, a.feat_cols, a.mask, a.mask_cols,
                                      a.outb, cb.hot_width, t_lo,
                                      t_hi);
  }
}

void run_gat_scorebwd(const Graph& g, const CoreBinding& cb, const CoreArgs& a,
                      std::int64_t v_lo, std::int64_t v_hi) {
  const auto& ptr = g.in_ptr();  // matcher requires dst-major
  const auto& eid = g.in_eid();
  switch (cb.template_width) {
    case 16:
      cores::gat_scorebwd<16>(ptr.data(), eid.data(), a.feat, a.feat_cols, a.b,
                              a.b_cols, a.a, a.a_cols, a.mask, a.mask_cols,
                              cb.alpha, a.out0, cb.hot_width, v_lo,
                              v_hi);
      break;
    case 32:
      cores::gat_scorebwd<32>(ptr.data(), eid.data(), a.feat, a.feat_cols, a.b,
                              a.b_cols, a.a, a.a_cols, a.mask, a.mask_cols,
                              cb.alpha, a.out0, cb.hot_width, v_lo,
                              v_hi);
      break;
    case 64:
      cores::gat_scorebwd<64>(ptr.data(), eid.data(), a.feat, a.feat_cols, a.b,
                              a.b_cols, a.a, a.a_cols, a.mask, a.mask_cols,
                              cb.alpha, a.out0, cb.hot_width, v_lo,
                              v_hi);
      break;
    default:
      cores::gat_scorebwd<0>(ptr.data(), eid.data(), a.feat, a.feat_cols, a.b,
                             a.b_cols, a.a, a.a_cols, a.mask, a.mask_cols,
                             cb.alpha, a.out0, cb.hot_width, v_lo,
                             v_hi);
  }
}

void run_gat_scorebwd_combine(const Graph& g, const EdgeProgram& ep,
                              const CoreBinding& cb, const CoreArgs& a,
                              std::int64_t t_lo, std::int64_t t_hi) {
  const VertexOutput& vo = ep.vertex_outputs[cb.boundary_out];
  const auto& ptr = vo.reverse ? g.out_ptr() : g.in_ptr();
  const auto& adj = vo.reverse ? g.out_dst() : g.in_src();
  const auto& eid = vo.reverse ? g.out_eid() : g.in_eid();
  switch (cb.template_width) {
    case 16:
      cores::gat_scorebwd_combine<16>(ptr.data(), adj.data(), eid.data(),
                                      a.feat, a.feat_cols, a.b, a.b_cols, a.a,
                                      a.a_cols, a.mask, a.mask_cols, cb.alpha,
                                      a.outb, cb.hot_width, t_lo,
                                      t_hi);
      break;
    case 32:
      cores::gat_scorebwd_combine<32>(ptr.data(), adj.data(), eid.data(),
                                      a.feat, a.feat_cols, a.b, a.b_cols, a.a,
                                      a.a_cols, a.mask, a.mask_cols, cb.alpha,
                                      a.outb, cb.hot_width, t_lo,
                                      t_hi);
      break;
    case 64:
      cores::gat_scorebwd_combine<64>(ptr.data(), adj.data(), eid.data(),
                                      a.feat, a.feat_cols, a.b, a.b_cols, a.a,
                                      a.a_cols, a.mask, a.mask_cols, cb.alpha,
                                      a.outb, cb.hot_width, t_lo,
                                      t_hi);
      break;
    default:
      cores::gat_scorebwd_combine<0>(ptr.data(), adj.data(), eid.data(), a.feat,
                                     a.feat_cols, a.b, a.b_cols, a.a, a.a_cols,
                                     a.mask, a.mask_cols, cb.alpha, a.outb,
                                     cb.hot_width, t_lo, t_hi);
  }
}

void run_gat_attnbwd(const Graph& g, const CoreBinding& cb, const CoreArgs& a,
                     std::int64_t v_lo, std::int64_t v_hi) {
  const auto& ptr = g.in_ptr();  // matcher requires dst-major
  const auto& adj = g.in_src();
  const auto& eid = g.in_eid();
  const auto walk = [&](auto kf) {
    cores::gat_attnbwd<decltype(kf)::value>(
        ptr.data(), adj.data(), eid.data(), a.feat, a.feat_cols, a.a, a.a_cols,
        a.b, a.b_cols, a.c, a.c_cols, a.d, a.d_cols, a.g, a.g_cols, cb.alpha,
        cb.heads, cb.hot_width, a.out0, a.out1, a.oute0, a.oute0_cols, a.oute1,
        a.oute1_cols, v_lo, v_hi);
  };
  switch (cb.template_width) {
    case 16: walk(std::integral_constant<int, 16>{}); break;
    case 32: walk(std::integral_constant<int, 32>{}); break;
    case 64: walk(std::integral_constant<int, 64>{}); break;
    default: walk(std::integral_constant<int, 0>{});
  }
}

void run_gat_attnbwd_combine(const Graph& g, const CoreBinding& cb,
                             const CoreArgs& a, std::int64_t t_lo,
                             std::int64_t t_hi) {
  const auto& ptr = g.out_ptr();  // the boundary output folds to src
  const auto& adj = g.out_dst();
  const auto combine = [&](auto kf) {
    cores::gat_attnbwd_combine<decltype(kf)::value>(
        ptr.data(), adj.data(), a.a, a.a_cols, a.b, a.b_cols, a.c, a.c_cols,
        a.d, a.d_cols, a.g, a.g_cols, cb.alpha, cb.heads, cb.hot_width, a.outb,
        t_lo, t_hi);
  };
  switch (cb.template_width) {
    case 16: combine(std::integral_constant<int, 16>{}); break;
    case 32: combine(std::integral_constant<int, 32>{}); break;
    case 64: combine(std::integral_constant<int, 64>{}); break;
    default: combine(std::integral_constant<int, 0>{});
  }
}

void run_gauss_bwd(const Graph& g, const CoreBinding& cb, const CoreArgs& a,
                   std::int64_t v_lo, std::int64_t v_hi) {
  const auto& ptr = g.out_ptr();  // matcher requires src-major
  const auto& adj = g.out_dst();
  const auto& eid = g.out_eid();
  switch (cb.template_width) {
    case 16:
      cores::gauss_bwd<16>(ptr.data(), adj.data(), eid.data(), a.feat,
                           a.feat_cols, a.g, a.g_cols, a.a, a.a_cols, a.b, a.c,
                           a.b_cols, cb.heads, cb.hot_width, a.out0, a.oute0,
                           a.oute0_cols, a.oute1, a.oute1_cols, v_lo, v_hi);
      break;
    case 32:
      cores::gauss_bwd<32>(ptr.data(), adj.data(), eid.data(), a.feat,
                           a.feat_cols, a.g, a.g_cols, a.a, a.a_cols, a.b, a.c,
                           a.b_cols, cb.heads, cb.hot_width, a.out0, a.oute0,
                           a.oute0_cols, a.oute1, a.oute1_cols, v_lo, v_hi);
      break;
    case 64:
      cores::gauss_bwd<64>(ptr.data(), adj.data(), eid.data(), a.feat,
                           a.feat_cols, a.g, a.g_cols, a.a, a.a_cols, a.b, a.c,
                           a.b_cols, cb.heads, cb.hot_width, a.out0, a.oute0,
                           a.oute0_cols, a.oute1, a.oute1_cols, v_lo, v_hi);
      break;
    default:
      cores::gauss_bwd<0>(ptr.data(), adj.data(), eid.data(), a.feat,
                          a.feat_cols, a.g, a.g_cols, a.a, a.a_cols, a.b, a.c,
                          a.b_cols, cb.heads, cb.hot_width, a.out0, a.oute0,
                          a.oute0_cols, a.oute1, a.oute1_cols, v_lo, v_hi);
  }
}

void run_sum_eb(const Graph& g, const EdgeProgram& ep, const CoreBinding& cb,
                const CoreArgs& a, std::int64_t t_lo, std::int64_t t_hi) {
  const VertexOutput& vo = ep.vertex_outputs[0];
  const auto& ptr = vo.reverse ? g.out_ptr() : g.in_ptr();
  const auto& adj = vo.reverse ? g.out_dst() : g.in_src();
  switch (cb.template_width) {
    case 16:
      cores::sum_eb<16>(ptr.data(), adj.data(), a.feat, a.feat_cols, a.out0,
                        cb.hot_width, t_lo, t_hi);
      break;
    case 32:
      cores::sum_eb<32>(ptr.data(), adj.data(), a.feat, a.feat_cols, a.out0,
                        cb.hot_width, t_lo, t_hi);
      break;
    case 64:
      cores::sum_eb<64>(ptr.data(), adj.data(), a.feat, a.feat_cols, a.out0,
                        cb.hot_width, t_lo, t_hi);
      break;
    default:
      cores::sum_eb<0>(ptr.data(), adj.data(), a.feat, a.feat_cols, a.out0,
                       cb.hot_width, t_lo, t_hi);
  }
}

}  // namespace

const char* to_string(CoreKind kind) {
  switch (kind) {
    case CoreKind::None: return "none";
    case CoreKind::GcnWsum: return "gcn_wsum";
    case CoreKind::GatSoftmax: return "gat_softmax";
    case CoreKind::EdgeConvMax: return "edgeconv_max";
    case CoreKind::MoNetGauss: return "monet_gauss";
    case CoreKind::MaxBwdGather: return "maxbwd_gather";
    case CoreKind::GatScoreBwd: return "gat_scorebwd";
    case CoreKind::GatAttnBwd: return "gat_attnbwd";
    case CoreKind::GaussBwd: return "gauss_bwd";
    case CoreKind::SumEb: return "sum_eb";
  }
  return "?";
}

std::string CoreBinding::label() const {
  std::string s = to_string(kind);
  if (kind == CoreKind::None) return s;
  s += '/';
  if (template_width > 0) {
    s += 'w';
    s += std::to_string(template_width);
  } else {
    s += "dyn";
  }
  return s;
}

CoreBinding match_core(const EdgeProgram& ep) {
  if (ep.vertex_outputs.empty()) return CoreBinding{};
  if (ep.mapping == WorkMapping::EdgeBalanced) return match_sum_eb(ep);
  if (ep.mapping != WorkMapping::VertexBalanced) return CoreBinding{};
  if (forward_core_eligible(ep)) {
    if (CoreBinding cb = match_gcn_wsum(ep); cb.specialized()) return cb;
    if (CoreBinding cb = match_gat_softmax(ep); cb.specialized()) return cb;
    if (CoreBinding cb = match_edgeconv_max(ep); cb.specialized()) return cb;
    if (CoreBinding cb = match_monet_gauss(ep); cb.specialized()) return cb;
  }
  // Training shapes: may carry StoreE edge outputs (gauss_bwd) and/or one
  // cross-orientation Sum reduction (the dual-reduce mask gathers).
  if (CoreBinding cb = match_maxbwd_gather(ep); cb.specialized()) return cb;
  if (CoreBinding cb = match_gat_scorebwd(ep); cb.specialized()) return cb;
  if (CoreBinding cb = match_gat_attnbwd(ep); cb.specialized()) return cb;
  if (CoreBinding cb = match_gauss_bwd(ep); cb.specialized()) return cb;
  return CoreBinding{};
}

CoreArgs resolve_core_args(const CoreBinding& cb, const EdgeProgram& ep,
                           const VmBindings& b) {
  CoreArgs a;
  TRIAD_CHECK(cb.specialized(), "resolve_core_args on an unmatched program");
  const Tensor& feat = b.tensor(cb.t_feat);
  a.feat = feat.data();
  a.feat_cols = feat.cols();
  switch (cb.kind) {
    case CoreKind::GcnWsum:
    case CoreKind::SumEb:
      break;
    case CoreKind::GatSoftmax: {
      const Tensor& al = b.tensor(cb.t_a);
      const Tensor& ar = b.tensor(cb.t_b);
      a.a = al.data();
      a.a_cols = al.cols();
      a.b = ar.data();
      a.b_cols = ar.cols();
      a.out1 = b.out(ep.vertex_outputs[1].node).data();
      a.out2 = b.out(ep.vertex_outputs[2].node).data();
      break;
    }
    case CoreKind::EdgeConvMax: {
      const Tensor& y = b.tensor(cb.t_b);
      a.b = y.data();
      a.b_cols = y.cols();
      break;
    }
    case CoreKind::MoNetGauss: {
      const Tensor& ps = b.tensor(cb.t_a);
      const Tensor& mu = b.tensor(cb.t_b);
      const Tensor& sigma = b.tensor(cb.t_c);
      a.a = ps.data();
      a.a_cols = ps.cols();
      a.b = mu.data();
      a.c = sigma.data();
      a.b_cols = mu.cols();  // pseudo dim r, the interpreter's gauss_r
      break;
    }
    case CoreKind::MaxBwdGather: {
      const IntTensor& aux = b.aux(cb.t_aux);
      a.mask = aux.data();
      a.mask_cols = aux.cols();
      break;
    }
    case CoreKind::GatScoreBwd: {
      const Tensor& gs = b.tensor(cb.t_a);
      const Tensor& sc = b.tensor(cb.t_b);
      const IntTensor& aux = b.aux(cb.t_aux);
      a.a = gs.data();
      a.a_cols = gs.cols();
      a.b = sc.data();
      a.b_cols = sc.cols();
      a.mask = aux.data();
      a.mask_cols = aux.cols();
      break;
    }
    case CoreKind::GatAttnBwd: {
      const Tensor& al = b.tensor(cb.t_a);
      const Tensor& ar = b.tensor(cb.t_b);
      const Tensor& mx = b.tensor(cb.t_c);
      const Tensor& sm = b.tensor(cb.t_d);
      const Tensor& grad = b.tensor(cb.t_g);
      a.a = al.data();
      a.a_cols = al.cols();
      a.b = ar.data();
      a.b_cols = ar.cols();
      a.c = mx.data();
      a.c_cols = mx.cols();
      a.d = sm.data();
      a.d_cols = sm.cols();
      a.g = grad.data();
      a.g_cols = grad.cols();
      a.out1 = b.out(ep.vertex_outputs[cb.seq_out2].node).data();
      Tensor& e0 = b.out(cb.t_e0);
      Tensor& e1 = b.out(cb.t_e1);
      a.oute0 = e0.data();
      a.oute0_cols = e0.cols();
      a.oute1 = e1.data();
      a.oute1_cols = e1.cols();
      break;
    }
    case CoreKind::GaussBwd: {
      const Tensor& grad = b.tensor(cb.t_g);
      const Tensor& ps = b.tensor(cb.t_a);
      const Tensor& mu = b.tensor(cb.t_b);
      const Tensor& sigma = b.tensor(cb.t_c);
      a.g = grad.data();
      a.g_cols = grad.cols();
      a.a = ps.data();
      a.a_cols = ps.cols();
      a.b = mu.data();
      a.c = sigma.data();
      a.b_cols = mu.cols();
      Tensor& e0 = b.out(cb.t_e0);
      Tensor& e1 = b.out(cb.t_e1);
      a.oute0 = e0.data();
      a.oute0_cols = e0.cols();
      a.oute1 = e1.data();
      a.oute1_cols = e1.cols();
      break;
    }
    case CoreKind::None:
      break;
  }
  // out0 is the walk core's sequential output; forward cores use the shape's
  // fixed layout (vertex_outputs[0]), the training matchers record the index.
  const int s_out = cb.seq_out >= 0 ? cb.seq_out : 0;
  const VertexOutput& svo = ep.vertex_outputs[s_out];
  a.out0 = b.out(svo.node).data();
  if (svo.track_argmax) {
    a.aux0 = b.out_aux(svo.node).data();
  }
  if (cb.has_boundary()) {
    a.outb = b.out(ep.vertex_outputs[cb.boundary_out].node).data();
  }
  return a;
}

void run_core_range(const Graph& g, const EdgeProgram& ep,
                    const CoreBinding& cb, const CoreArgs& args,
                    std::int64_t v_lo, std::int64_t v_hi) {
  switch (cb.kind) {
    case CoreKind::GcnWsum:
      run_gcn_wsum(g, ep, cb, args, v_lo, v_hi);
      break;
    case CoreKind::GatSoftmax:
      run_gat_softmax(g, cb, args, v_lo, v_hi);
      break;
    case CoreKind::EdgeConvMax:
      run_edgeconv_max(g, cb, args, v_lo, v_hi);
      break;
    case CoreKind::MoNetGauss:
      run_monet_gauss(g, ep, cb, args, v_lo, v_hi);
      break;
    case CoreKind::MaxBwdGather:
      run_maxbwd_gather(g, cb, args, v_lo, v_hi);
      break;
    case CoreKind::GatScoreBwd:
      run_gat_scorebwd(g, cb, args, v_lo, v_hi);
      break;
    case CoreKind::GatAttnBwd:
      run_gat_attnbwd(g, cb, args, v_lo, v_hi);
      break;
    case CoreKind::GaussBwd:
      run_gauss_bwd(g, cb, args, v_lo, v_hi);
      break;
    case CoreKind::SumEb:
      run_sum_eb(g, ep, cb, args, v_lo, v_hi);
      break;
    case CoreKind::None:
      TRIAD_UNREACHABLE("run_core_range on an unmatched program");
  }
}

void run_core_combine_range(const Graph& g, const EdgeProgram& ep,
                            const CoreBinding& cb, const CoreArgs& args,
                            std::int64_t t_lo, std::int64_t t_hi) {
  switch (cb.kind) {
    case CoreKind::MaxBwdGather:
      run_maxbwd_gather_combine(g, ep, cb, args, t_lo, t_hi);
      break;
    case CoreKind::GatScoreBwd:
      run_gat_scorebwd_combine(g, ep, cb, args, t_lo, t_hi);
      break;
    case CoreKind::GatAttnBwd:
      run_gat_attnbwd_combine(g, cb, args, t_lo, t_hi);
      break;
    default:
      TRIAD_UNREACHABLE("run_core_combine_range on a core without a boundary");
  }
}

}  // namespace triad
