#include "engine/vm.h"

#include "ir/graph.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "engine/pipeline.h"
#include "transport/exchange.h"
#include "support/counters.h"
#include "support/macros.h"
#include "support/parallel.h"
#include "support/timer.h"

namespace triad {

namespace {

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

// Pre-resolved instruction: tensor handles resolved to raw pointers once per
// program execution, so the per-edge interpreter loop touches no hash maps
// or std::function. Registers are *pointers*: a Load aliases the source row
// (zero copy); compute ops write into a per-worker backing buffer.
struct RInstr {
  EPOp op;
  int dst, a, b, acc;
  const float* data = nullptr;        // Load*/Gauss mu
  const float* data2 = nullptr;       // Gauss sigma
  const std::int32_t* aux = nullptr;  // MaxBwdMask argmax
  float* out = nullptr;               // StoreE target
  std::int64_t data_cols = 0;         // row stride of `data`
  std::int64_t gauss_r = 0;           // pseudo-coordinate dim
  float alpha;
  std::int64_t heads;
  std::int64_t width;
  std::int64_t a_width = 0;  // operand width (DotHead)
};

struct ResolvedProgram {
  std::vector<std::vector<RInstr>> phases;
  std::vector<float*> vout_data;        // per vertex_output
  std::vector<std::int32_t*> vout_aux;  // argmax outputs (or nullptr)
  // Boundary (cross-orientation) reductions: per-edge contribution stash,
  // written during the walk and reduced by the deterministic combine sweep.
  // Pool-accounted workspace (it is the VM's dominant transient allocation);
  // indexed like vertex_outputs, undefined entry = sequential reduction.
  // Never zero-filled: the walk writes every slot before the combine reads.
  std::vector<Tensor> boundary;
  std::vector<float*> boundary_ptr;  // hot-path aliases of `boundary`
  // Stash elision: a boundary output whose contribution is cheap (pure loads
  // plus at most two arithmetic ops) skips the |E|-row stash entirely — the
  // combine replays the phase's side-effect-free instruction prefix per edge
  // instead. Register values are SSA per edge and the fold order is
  // unchanged, so the result is bit-identical to the stashed path while
  // saving the stash write + read round trip (and often the whole walk-side
  // phase, see phase_live).
  std::vector<char> elided;               // per vertex_output
  std::vector<std::vector<RInstr>> recompute;  // replay list (elided only)
  std::vector<int> src_reg;               // register the Reduce folds
  // False = every side effect of this phase is an elided stash write, so the
  // walk skips the phase entirely and the combine recomputes on demand.
  std::vector<char> phase_live;
  bool has_boundary = false;
};

struct WorkerState {
  std::vector<const float*> ptr;   // current value of each register
  std::vector<float> buf;          // backing storage for compute dsts
  std::vector<std::int64_t> base;  // register offsets into buf
  std::vector<float> acc;          // sequential accumulators
  std::vector<std::int64_t> acc_base;
  std::vector<std::int32_t> acc_arg;
  std::vector<std::int64_t> count;
};

// Sizes the worker scratch without zero-filling it: every buffer is fully
// written before it is read (registers are SSA per edge; accumulators and
// argmax slots are fill_n-initialized per vertex-phase; counts are reset per
// phase), so resize-only lets one thread-local WorkerState be reused across
// chunks, programs, and steps with no per-program allocation churn.
void init_worker(WorkerState& ws, const EdgeProgram& ep) {
  ws.base.resize(ep.num_regs);
  std::int64_t off = 0;
  for (int r = 0; r < ep.num_regs; ++r) {
    ws.base[r] = off;
    off += ep.reg_width[r];
  }
  ws.buf.resize(off);
  ws.ptr.resize(ep.num_regs);
  ws.acc_base.resize(ep.vertex_outputs.size());
  std::int64_t acc_off = 0;
  for (std::size_t i = 0; i < ep.vertex_outputs.size(); ++i) {
    ws.acc_base[i] = acc_off;
    acc_off += ep.vertex_outputs[i].width;
  }
  ws.acc.resize(acc_off);
  ws.acc_arg.resize(acc_off);
  ws.count.resize(ep.vertex_outputs.size());
}

/// Per-thread scratch, reused across consecutive edge programs in a plan run
/// (pool worker threads are long-lived). init_worker only grows the vectors.
WorkerState& worker_scratch(const EdgeProgram& ep) {
  static thread_local WorkerState ws;
  init_worker(ws, ep);
  return ws;
}

/// True when this vertex output is reduced sequentially in the worker that
/// owns the center vertex; false = boundary (stash + combine).
inline bool sequential_reduce(const EdgeProgram& ep, const VertexOutput& vo) {
  return ep.mapping == WorkMapping::VertexBalanced && vo.reverse != ep.dst_major;
}

ResolvedProgram resolve(const Graph& g, const EdgeProgram& ep,
                        const VmBindings& b) {
  ResolvedProgram rp;
  rp.phases.resize(ep.phases.size());
  for (std::size_t p = 0; p < ep.phases.size(); ++p) {
    for (const EPInstr& in : ep.phases[p].instrs) {
      RInstr r;
      r.op = in.op;
      r.dst = in.dst;
      r.a = in.a;
      r.b = in.b;
      r.acc = in.acc;
      r.alpha = in.alpha;
      r.heads = in.heads;
      r.width = in.width;
      switch (in.op) {
        case EPOp::LoadU:
        case EPOp::LoadV:
        case EPOp::LoadE: {
          const Tensor& t = b.tensor(in.tensor);
          r.data = t.data();
          r.data_cols = t.cols();
          break;
        }
        case EPOp::LoadAcc: {
          const Tensor& t = b.out(in.tensor);
          r.data = t.data();
          r.data_cols = t.cols();
          break;
        }
        case EPOp::Gauss: {
          const Tensor& mu = b.tensor(in.tensor);
          const Tensor& sigma = b.tensor(in.tensor2);
          r.data = mu.data();
          r.data2 = sigma.data();
          r.gauss_r = mu.cols();
          break;
        }
        case EPOp::MaxBwdMask:
          r.aux = b.aux(in.tensor).data();
          break;
        case EPOp::StoreE:
          r.out = b.out(in.tensor).data();
          r.data_cols = b.out(in.tensor).cols();
          break;
        case EPOp::DotHead:
          break;
        default:
          break;
      }
      if (in.op == EPOp::DotHead && in.a >= 0) r.a_width = ep.reg_width[in.a];
      rp.phases[p].push_back(r);
    }
  }
  rp.vout_data.resize(ep.vertex_outputs.size());
  rp.vout_aux.assign(ep.vertex_outputs.size(), nullptr);
  rp.boundary.resize(ep.vertex_outputs.size());
  rp.boundary_ptr.assign(ep.vertex_outputs.size(), nullptr);
  rp.elided.assign(ep.vertex_outputs.size(), 0);
  rp.recompute.resize(ep.vertex_outputs.size());
  rp.src_reg.assign(ep.vertex_outputs.size(), -1);
  MemoryPool* pool = b.pool != nullptr ? b.pool : &global_pool_mem();
  for (std::size_t i = 0; i < ep.vertex_outputs.size(); ++i) {
    const VertexOutput& vo = ep.vertex_outputs[i];
    rp.vout_data[i] = b.out(vo.node).data();
    if (vo.track_argmax) {
      rp.vout_aux[i] = b.out_aux(vo.node).data();
    }
    if (!sequential_reduce(ep, vo)) {
      TRIAD_CHECK(static_cast<ReduceFn>(vo.rfn) == ReduceFn::Sum,
                  "boundary reductions support Sum only");
      rp.has_boundary = true;
      // Elision candidate: the replay list is the phase minus its side
      // effects (Reduce stash writes, StoreE); interpreter_stashes decides
      // whether replaying it is cheap enough to skip the stash.
      const int p = vo.phase;
      std::vector<RInstr> replay;
      int sreg = -1;
      const auto& instrs = ep.phases[p].instrs;
      for (std::size_t x = 0; x < instrs.size(); ++x) {
        const EPInstr& in = instrs[x];
        if (in.op == EPOp::Reduce) {
          if (in.acc == static_cast<int>(i)) sreg = in.a;
          continue;
        }
        if (in.op == EPOp::StoreE) continue;
        replay.push_back(rp.phases[p][x]);
      }
      TRIAD_CHECK(sreg >= 0, "boundary output has no Reduce in its phase");
      rp.src_reg[i] = sreg;
      const std::uint64_t stash_bytes =
          static_cast<std::uint64_t>(g.num_edges()) *
          static_cast<std::uint64_t>(vo.width) * 4;
      if (!interpreter_stashes(ep, i)) {
        rp.elided[i] = 1;
        rp.recompute[i] = std::move(replay);
        global_counters().boundary_stash_saved_bytes += stash_bytes;
      } else {
        // Allocated per call, not cached across steps: at most one program's
        // stash is live at a time, so peak memory — the metric the recompute
        // pass optimizes — stays one O(|E| x width) buffer instead of one
        // per fused node. The alloc/free churn matches the engine's existing
        // per-step slot allocation discipline.
        rp.boundary[i] =
            Tensor(g.num_edges(), vo.width, MemTag::kWorkspace, pool);
        rp.boundary_ptr[i] = rp.boundary[i].data();
        global_counters().boundary_stash_bytes += stash_bytes;
      }
    }
  }
  // A phase whose only side effects are elided stash writes has nothing left
  // to do in the walk: the combine recomputes its values on demand.
  rp.phase_live.assign(ep.phases.size(), 0);
  for (std::size_t p = 0; p < ep.phases.size(); ++p) {
    for (const EPInstr& in : ep.phases[p].instrs) {
      if (in.op == EPOp::StoreE ||
          (in.op == EPOp::Reduce && !rp.elided[in.acc])) {
        rp.phase_live[p] = 1;
        break;
      }
    }
  }
  return rp;
}

/// Evaluates one instruction for the current edge. `center` is the vertex the
/// worker owns (dst in dst-major kernels).
inline void eval_instr(const RInstr& in, WorkerState& ws, const EdgeProgram& ep,
                       ResolvedProgram& rp, std::int64_t src,
                       std::int64_t dst, std::int64_t eid, std::int64_t center) {
  const float* a = in.a >= 0 ? ws.ptr[in.a] : nullptr;
  const float* bb = in.b >= 0 ? ws.ptr[in.b] : nullptr;
  float* d = nullptr;
  if (in.dst >= 0 && in.op != EPOp::LoadU && in.op != EPOp::LoadV &&
      in.op != EPOp::LoadE && in.op != EPOp::LoadAcc && in.op != EPOp::Copy) {
    d = ws.buf.data() + ws.base[in.dst];
    ws.ptr[in.dst] = d;
  }
  const std::int64_t w = in.width;
  switch (in.op) {
    case EPOp::LoadU:
      ws.ptr[in.dst] = in.data + src * in.data_cols;
      break;
    case EPOp::LoadV:
      ws.ptr[in.dst] = in.data + dst * in.data_cols;
      break;
    case EPOp::LoadE:
      ws.ptr[in.dst] = in.data + eid * in.data_cols;
      break;
    case EPOp::LoadAcc:
      ws.ptr[in.dst] = in.data + center * in.data_cols;
      break;
    case EPOp::Copy:
      ws.ptr[in.dst] = a;  // pure alias
      break;
    case EPOp::Add:
      for (std::int64_t j = 0; j < w; ++j) d[j] = a[j] + bb[j];
      break;
    case EPOp::Sub:
      for (std::int64_t j = 0; j < w; ++j) d[j] = a[j] - bb[j];
      break;
    case EPOp::Mul:
      for (std::int64_t j = 0; j < w; ++j) d[j] = a[j] * bb[j];
      break;
    case EPOp::Div:
      for (std::int64_t j = 0; j < w; ++j) d[j] = a[j] / bb[j];
      break;
    case EPOp::MulHead: {
      const std::int64_t f = w / in.heads;
      for (std::int64_t h = 0; h < in.heads; ++h) {
        const float s = bb[h];
        for (std::int64_t j = 0; j < f; ++j) d[h * f + j] = s * a[h * f + j];
      }
      break;
    }
    case EPOp::DotHead: {
      const std::int64_t f_in = in.a_width / in.heads;
      for (std::int64_t h = 0; h < in.heads; ++h) {
        float s = 0.f;
        for (std::int64_t j = 0; j < f_in; ++j) {
          s += a[h * f_in + j] * bb[h * f_in + j];
        }
        d[h] = s;
      }
      break;
    }
    case EPOp::LeakyReLU:
      for (std::int64_t j = 0; j < w; ++j) d[j] = a[j] > 0.f ? a[j] : in.alpha * a[j];
      break;
    case EPOp::ReLU:
      for (std::int64_t j = 0; j < w; ++j) d[j] = a[j] > 0.f ? a[j] : 0.f;
      break;
    case EPOp::ELU:
      for (std::int64_t j = 0; j < w; ++j) {
        d[j] = a[j] > 0.f ? a[j] : in.alpha * (std::exp(a[j]) - 1.f);
      }
      break;
    case EPOp::Exp:
      for (std::int64_t j = 0; j < w; ++j) d[j] = std::exp(a[j]);
      break;
    case EPOp::Neg:
      for (std::int64_t j = 0; j < w; ++j) d[j] = -a[j];
      break;
    case EPOp::Scale:
      for (std::int64_t j = 0; j < w; ++j) d[j] = in.alpha * a[j];
      break;
    case EPOp::LeakyReLUGrad:
      for (std::int64_t j = 0; j < w; ++j) d[j] = bb[j] > 0.f ? a[j] : in.alpha * a[j];
      break;
    case EPOp::ReLUGrad:
      for (std::int64_t j = 0; j < w; ++j) d[j] = bb[j] > 0.f ? a[j] : 0.f;
      break;
    case EPOp::ELUGrad:
      for (std::int64_t j = 0; j < w; ++j) {
        d[j] = bb[j] > 0.f ? a[j] : a[j] * in.alpha * std::exp(bb[j]);
      }
      break;
    case EPOp::ExpGrad:
      for (std::int64_t j = 0; j < w; ++j) d[j] = a[j] * bb[j];
      break;
    case EPOp::Gauss: {
      for (std::int64_t k = 0; k < w; ++k) {
        const float* pm = in.data + k * in.gauss_r;
        const float* ps = in.data2 + k * in.gauss_r;
        float accv = 0.f;
        for (std::int64_t j = 0; j < in.gauss_r; ++j) {
          const float diff = a[j] - pm[j];
          accv += ps[j] * ps[j] * diff * diff;
        }
        d[k] = std::exp(-0.5f * accv);
      }
      break;
    }
    case EPOp::MaxBwdMask: {
      const std::int32_t* pm = in.aux + dst * w;
      for (std::int64_t j = 0; j < w; ++j) {
        d[j] = pm[j] == static_cast<std::int32_t>(eid) ? a[j] : 0.f;
      }
      break;
    }
    case EPOp::Reduce: {
      const VertexOutput& vo = ep.vertex_outputs[in.acc];
      if (sequential_reduce(ep, vo)) {
        float* accp = ws.acc.data() + ws.acc_base[in.acc];
        switch (static_cast<ReduceFn>(vo.rfn)) {
          case ReduceFn::Sum:
          case ReduceFn::Mean:
            for (std::int64_t j = 0; j < w; ++j) accp[j] += a[j];
            break;
          case ReduceFn::Max: {
            std::int32_t* argp = ws.acc_arg.data() + ws.acc_base[in.acc];
            for (std::int64_t j = 0; j < w; ++j) {
              if (a[j] > accp[j]) {
                accp[j] = a[j];
                argp[j] = static_cast<std::int32_t>(eid);
              }
            }
            break;
          }
        }
        ws.count[in.acc] += 1;
      } else if (rp.boundary_ptr[in.acc] != nullptr) {
        // Boundary reduction: stash this edge's contribution; the combine
        // sweep folds it into the target row in fixed adjacency order. Each
        // edge runs the phase exactly once, so a plain store suffices.
        // (Elided outputs have no stash — the combine recomputes instead.)
        float* stash = rp.boundary_ptr[in.acc] + eid * w;
        for (std::int64_t j = 0; j < w; ++j) stash[j] = a[j];
      }
      break;
    }
    case EPOp::StoreE:
      std::copy_n(a, w, in.out + eid * in.data_cols);
      break;
  }
}

/// Walks vertices of the primary orientation, running every live phase per
/// vertex. Visits `list[0..count)` when `list` is non-null, else the range
/// [v_lo, v_hi). Every phase runs per vertex and vertices share no walk
/// state, so any visit order — in particular the pipelined frontier-first
/// order — produces bit-identical output. Strictly serial — shard bodies and
/// chunk bodies call this from pool workers, so it must not spawn nested
/// parallelism.
void walk_vertex_span(const Graph& g, const EdgeProgram& ep,
                      ResolvedProgram& rp, const std::int32_t* list,
                      std::int64_t count, std::int64_t v_lo,
                      std::int64_t v_hi) {
  const auto& ptr = ep.dst_major ? g.in_ptr() : g.out_ptr();
  const auto& adj = ep.dst_major ? g.in_src() : g.out_dst();
  const auto& eid = ep.dst_major ? g.in_eid() : g.out_eid();
  WorkerState& ws = worker_scratch(ep);
  const std::int64_t total = list != nullptr ? count : v_hi - v_lo;
  for (std::int64_t idx = 0; idx < total; ++idx) {
    const std::int64_t v = list != nullptr ? list[idx] : v_lo + idx;
    const std::int64_t elo = ptr[v];
    const std::int64_t ehi = ptr[v + 1];
    for (std::size_t p = 0; p < ep.phases.size(); ++p) {
      if (!rp.phase_live[p]) continue;
      // Init sequential accumulators fed by this phase.
      for (std::size_t i = 0; i < ep.vertex_outputs.size(); ++i) {
        const VertexOutput& vo = ep.vertex_outputs[i];
        if (vo.phase != static_cast<int>(p)) continue;
        if (!sequential_reduce(ep, vo)) continue;  // boundary, no local acc
        float* accp = ws.acc.data() + ws.acc_base[i];
        const float init =
            static_cast<ReduceFn>(vo.rfn) == ReduceFn::Max ? kNegInf : 0.f;
        std::fill_n(accp, vo.width, init);
        std::fill_n(ws.acc_arg.data() + ws.acc_base[i], vo.width, -1);
        ws.count[i] = 0;
      }
      std::vector<RInstr>& instrs = rp.phases[p];
      for (std::int64_t i = elo; i < ehi; ++i) {
        const std::int64_t other = adj[i];
        const std::int64_t e = eid[i];
        const std::int64_t src = ep.dst_major ? other : v;
        const std::int64_t dst = ep.dst_major ? v : other;
        for (const RInstr& in : instrs) {
          eval_instr(in, ws, ep, rp, src, dst, e, v);
        }
      }
      // Finalize this phase's sequential reductions for vertex v.
      for (std::size_t i = 0; i < ep.vertex_outputs.size(); ++i) {
        const VertexOutput& vo = ep.vertex_outputs[i];
        if (vo.phase != static_cast<int>(p)) continue;
        if (!sequential_reduce(ep, vo)) continue;
        float* accp = ws.acc.data() + ws.acc_base[i];
        const auto rf = static_cast<ReduceFn>(vo.rfn);
        if (rf == ReduceFn::Mean && ws.count[i] > 0) {
          const float inv = 1.f / static_cast<float>(ws.count[i]);
          for (std::int64_t j = 0; j < vo.width; ++j) accp[j] *= inv;
        }
        if (rf == ReduceFn::Max && ws.count[i] == 0) {
          std::fill_n(accp, vo.width, 0.f);  // isolated vertex
        }
        std::copy_n(accp, vo.width, rp.vout_data[i] + v * vo.width);
        if (vo.track_argmax) {
          std::copy_n(ws.acc_arg.data() + ws.acc_base[i], vo.width,
                      rp.vout_aux[i] + v * vo.width);
        }
      }
    }
  }
}

void walk_vertex_range(const Graph& g, const EdgeProgram& ep,
                       ResolvedProgram& rp, std::int64_t v_lo,
                       std::int64_t v_hi) {
  walk_vertex_span(g, ep, rp, nullptr, 0, v_lo, v_hi);
}

/// Edge-balanced walk over edges [e_lo, e_hi). Serial; see walk_vertex_range.
void walk_edge_range(const Graph& g, const EdgeProgram& ep, ResolvedProgram& rp,
                     std::int64_t e_lo, std::int64_t e_hi) {
  if (!rp.phase_live[0]) return;  // all side effects elided into the combine
  const auto& esrc = g.edge_src();
  const auto& edst = g.edge_dst();
  WorkerState& ws = worker_scratch(ep);
  std::vector<RInstr>& instrs = rp.phases[0];
  for (std::int64_t e = e_lo; e < e_hi; ++e) {
    const std::int64_t src = esrc[e];
    const std::int64_t dst = edst[e];
    for (const RInstr& in : instrs) {
      TRIAD_CHECK(in.op != EPOp::LoadAcc,
                  "LoadAcc is invalid under edge-balanced mapping");
      eval_instr(in, ws, ep, rp, src, dst, e, dst);
    }
  }
}

/// Boundary combine over a set of target vertices — `list[0..count)` when
/// `list` is non-null, else the range [t_lo, t_hi). Folds each target row in
/// its fixed reverse-orientation edge-list order; that order is a property of
/// the graph, so the reduction result is bit-identical for every thread/shard
/// count and for every scheduling of disjoint target sets. Contributions come
/// from the stash, or — for elided outputs — from replaying the phase's
/// side-effect-free instruction prefix per edge (registers are SSA per edge,
/// so the replay reproduces the walk's value exactly). Serial; callers
/// schedule disjoint target sets concurrently.
void combine_boundary_targets(const Graph& g, const EdgeProgram& ep,
                              ResolvedProgram& rp, const std::int32_t* list,
                              std::int64_t count, std::int64_t t_lo,
                              std::int64_t t_hi) {
  WorkerState& ws = worker_scratch(ep);
  for (std::size_t i = 0; i < ep.vertex_outputs.size(); ++i) {
    if (sequential_reduce(ep, ep.vertex_outputs[i])) continue;
    const VertexOutput& vo = ep.vertex_outputs[i];
    const std::int64_t w = vo.width;
    // Targets are src vertices when reverse, dst vertices otherwise; the
    // walker is the opposite endpoint.
    const auto& ptr = vo.reverse ? g.out_ptr() : g.in_ptr();
    const auto& adj = vo.reverse ? g.out_dst() : g.in_src();
    const auto& eid = vo.reverse ? g.out_eid() : g.in_eid();
    const float* stash = rp.boundary_ptr[i];
    const std::vector<RInstr>& replay = rp.recompute[i];
    const int sreg = rp.src_reg[i];
    float* out = rp.vout_data[i];
    const std::int64_t total = list != nullptr ? count : t_hi - t_lo;
    for (std::int64_t idx = 0; idx < total; ++idx) {
      const std::int64_t t = list != nullptr ? list[idx] : t_lo + idx;
      float* row = out + t * w;
      std::fill_n(row, w, 0.f);
      for (std::int64_t k = ptr[t]; k < ptr[t + 1]; ++k) {
        const std::int64_t e = eid[k];
        const float* c;
        if (stash != nullptr) {
          c = stash + e * w;
        } else {
          const std::int64_t other = adj[k];
          const std::int64_t src = vo.reverse ? t : other;
          const std::int64_t dst = vo.reverse ? other : t;
          for (const RInstr& in : replay) {
            eval_instr(in, ws, ep, rp, src, dst, e, /*center=*/other);
          }
          c = ws.ptr[sreg];
        }
        for (std::int64_t j = 0; j < w; ++j) row[j] += c[j];
      }
    }
  }
}

/// Single-shard boundary combine: chunked sweep over all vertices.
void combine_boundary(const Graph& g, const EdgeProgram& ep,
                      ResolvedProgram& rp) {
  if (!rp.has_boundary) return;
  parallel_for_chunks(0, g.num_vertices(),
                      [&](std::int64_t t_lo, std::int64_t t_hi) {
                        combine_boundary_targets(g, ep, rp, nullptr, 0, t_lo,
                                                 t_hi);
                      },
                      /*grain=*/256);
}

/// Analytic cost accounting for one kernel covering `n_v` vertices and `m_e`
/// edges of the primary orientation — the whole graph for a single-shard
/// run, one shard's owned range for sharded runs (counters are charged per
/// shard; shard sums partition the single-shard totals exactly). The model
/// is unchanged from the paper's: boundary reductions are charged as the
/// conventional GPU atomic discipline regardless of how the CPU realizes
/// them, so figures stay comparable across runtimes.
void charge_program(std::int64_t n_v, std::int64_t m_e, const EdgeProgram& ep) {
  PerfCounters& c = global_counters();
  const auto m = static_cast<std::uint64_t>(m_e);
  const auto n = static_cast<std::uint64_t>(n_v);
  std::uint64_t read = 0, write = 0, flops = 0, atomics = 0, onchip = 0;
  for (std::size_t p = 0; p < ep.phases.size(); ++p) {
    read += m * 4 + n * 8;  // adjacency per phase sweep
    for (const EPInstr& in : ep.phases[p].instrs) {
      const auto w = static_cast<std::uint64_t>(in.width);
      switch (in.op) {
        case EPOp::LoadU:
        case EPOp::LoadV:
        case EPOp::LoadE:
          read += m * w * 4;
          break;
        case EPOp::LoadAcc:
          read += n * w * 4;  // cached in registers per vertex
          break;
        case EPOp::StoreE:
          write += m * w * 4;
          onchip += m * w * 4;
          break;
        case EPOp::Reduce: {
          const VertexOutput& vo = ep.vertex_outputs[in.acc];
          if (sequential_reduce(ep, vo)) {
            flops += m * w;
            onchip += m * w * 4;
          } else {
            read += m * w * 4;
            write += m * w * 4;
            atomics += m * w;
            flops += m * w;
          }
          break;
        }
        case EPOp::Gauss:
          read += 2ull * in.width * 4;  // mu/sigma, cached
          flops += m * w * 5;
          onchip += m * w * 4;
          break;
        case EPOp::MaxBwdMask:
          read += n * w * 4;  // argmax aux per vertex
          onchip += m * w * 4;
          break;
        case EPOp::DotHead:
          flops += m * w * 2;
          onchip += m * w * 4;
          break;
        default:
          flops += m * w;
          onchip += m * w * 4;
      }
    }
  }
  for (const VertexOutput& vo : ep.vertex_outputs) {
    if (sequential_reduce(ep, vo)) {
      write += n * static_cast<std::uint64_t>(vo.width) * 4;
    }
  }
  c.dram_read_bytes += read;
  c.dram_write_bytes += write;
  c.flops += flops;
  c.atomic_ops += atomics;
  c.onchip_bytes += onchip;
  c.kernel_launches += 1;
}

/// Extra accounting a sharded run incurs on top of the per-shard kernels:
/// cross-shard boundary contributions must leave the shard and be folded at
/// the owner — one modeled read + write per crossing element per boundary
/// reduction (the halo-exchange analogue of Dorylus/NeutronStar).
void charge_sharded_combine(const Partitioning& part, const EdgeProgram& ep) {
  PerfCounters& c = global_counters();
  const auto cut = static_cast<std::uint64_t>(part.cut_edges());
  for (const VertexOutput& vo : ep.vertex_outputs) {
    if (sequential_reduce(ep, vo)) continue;
    c.combine_bytes += cut * static_cast<std::uint64_t>(vo.width) * 8;
    c.kernel_launches += 1;  // the combine sweep is its own kernel
  }
}

void check_program(const EdgeProgram& ep) {
  TRIAD_CHECK_GT(ep.phases.size(), 0u, "empty edge program");
  if (ep.mapping == WorkMapping::EdgeBalanced) {
    TRIAD_CHECK_EQ(ep.phases.size(), 1u,
                   "edge-balanced programs are single-phase");
    for (const VertexOutput& vo : ep.vertex_outputs) {
      TRIAD_CHECK(static_cast<ReduceFn>(vo.rfn) == ReduceFn::Sum,
                  "edge-balanced mapping supports Sum reductions only");
    }
  }
}

}  // namespace

bool interpreter_stashes(const EdgeProgram& ep, std::size_t out) {
  const VertexOutput& vo = ep.vertex_outputs[out];
  if (sequential_reduce(ep, vo)) return false;
  // Cheap means at most two non-load ops and no Gauss, side effects (the
  // Reduce stash writes, StoreE) excluded; anything pricier keeps the stash
  // so the combine reads instead of recomputing.
  int arith = 0;
  for (const EPInstr& in : ep.phases[vo.phase].instrs) {
    switch (in.op) {
      case EPOp::LoadU:
      case EPOp::LoadV:
      case EPOp::LoadE:
      case EPOp::LoadAcc:
      case EPOp::Copy:
      case EPOp::Reduce:
      case EPOp::StoreE:
        break;
      case EPOp::Gauss:
        return true;
      default:
        ++arith;
    }
  }
  return arith > 2;
}

namespace {

/// Counter bookkeeping shared by both runners for a specialized execution:
/// the fwd/bwd edge split, plus the stash bytes a boundary combine core
/// avoided by recomputing per-edge values instead of stashing them (the
/// interpreter's elision charges the same counter; cores never stash).
void charge_specialized(const Graph& g, const EdgeProgram& ep,
                        const CoreBinding& core, bool backward) {
  PerfCounters& c = global_counters();
  const auto m = static_cast<std::uint64_t>(g.num_edges());
  (backward ? c.specialized_bwd_edges : c.specialized_fwd_edges) += m;
  if (core.has_boundary()) {
    const auto w = static_cast<std::uint64_t>(
        ep.vertex_outputs[core.boundary_out].width);
    c.boundary_stash_saved_bytes += m * w * 4;
  }
}

}  // namespace

void run_edge_program(const Graph& g, const EdgeProgram& ep, const VmBindings& b,
                      const CoreBinding* core, bool backward) {
  check_program(ep);
  PerfCounters& c = global_counters();
  if (core != nullptr && core->specialized()) {
    // Specialized path: the walk core handles every phase, sequential
    // reduction, and edge store of the program; a binding with a boundary
    // output is finalized by the combine core afterwards (never a stash —
    // the combine recomputes, see engine/specialize.h).
    const CoreArgs args = resolve_core_args(*core, ep, b);
    parallel_for_chunks(0, g.num_vertices(), [&](std::int64_t lo, std::int64_t hi) {
      run_core_range(g, ep, *core, args, lo, hi);
    }, /*grain=*/64);
    if (core->has_boundary()) {
      parallel_for_chunks(0, g.num_vertices(),
                          [&](std::int64_t lo, std::int64_t hi) {
                            run_core_combine_span(g, ep, *core, args, nullptr,
                                                  0, lo, hi);
                          },
                          /*grain=*/256);
    }
    charge_specialized(g, ep, *core, backward);
  } else {
    ResolvedProgram rp = resolve(g, ep, b);
    if (ep.mapping == WorkMapping::VertexBalanced) {
      parallel_for_chunks(0, g.num_vertices(), [&](std::int64_t lo, std::int64_t hi) {
        walk_vertex_range(g, ep, rp, lo, hi);
      }, /*grain=*/64);
    } else {
      parallel_for_chunks(0, g.num_edges(), [&](std::int64_t lo, std::int64_t hi) {
        walk_edge_range(g, ep, rp, lo, hi);
      }, /*grain=*/4096);
    }
    combine_boundary(g, ep, rp);
    (backward ? c.interpreted_bwd_edges : c.interpreted_fwd_edges) +=
        static_cast<std::uint64_t>(g.num_edges());
  }

  charge_program(g.num_vertices(), g.num_edges(), ep);
}

namespace {

/// Barrier path: walk all shards, join, then combine as K owner-range tasks.
/// Per-task walk/combine durations land in `walk_s` / `comb_s` (seconds).
void run_sharded_barrier(const Graph& g, const Partitioning& part,
                         const EdgeProgram& ep, ResolvedProgram& rp,
                         std::vector<double>& walk_s,
                         std::vector<double>& comb_s) {
  const int k = part.num_shards();
  if (ep.mapping == WorkMapping::VertexBalanced) {
    // One unit of pool work per shard: the shard is the placement unit, so
    // there is deliberately no intra-shard work stealing.
    parallel_for(0, k, [&](std::int64_t s) {
      const Shard& sh = part.shard(static_cast<int>(s));
      Timer t;
      walk_vertex_range(g, ep, rp, sh.v_lo, sh.v_hi);
      walk_s[s] = t.seconds();
    }, /*grain=*/1);
  } else {
    // Edge-balanced programs shard the flat edge list into K even ranges;
    // vertex ownership is irrelevant to the walk and the combine restores
    // determinism regardless.
    const std::int64_t m = g.num_edges();
    parallel_for(0, k, [&](std::int64_t s) {
      const EdgeRange r = edge_shard_range(m, k, static_cast<int>(s));
      Timer t;
      walk_edge_range(g, ep, rp, r.lo, r.hi);
      walk_s[s] = t.seconds();
    }, /*grain=*/1);
  }
  if (rp.has_boundary) {
    // Owner-range combine: shard ranges partition [0, |V|), and the fold
    // order within each row is fixed, so K concurrent tasks reproduce the
    // serial sweep bit for bit.
    parallel_for(0, k, [&](std::int64_t s) {
      const Shard& sh = part.shard(static_cast<int>(s));
      Timer t;
      combine_boundary_targets(g, ep, rp, nullptr, 0, sh.v_lo, sh.v_hi);
      comb_s[s] = t.seconds();
    }, /*grain=*/1);
  }
}

/// Post-join accounting shared by both pipelined runners (PerfCounters is
/// thread-local, so this runs on the caller thread only).
void charge_pipelined(const Partitioning& part, const EdgeProgram& ep,
                      const PipelineTiming& tm) {
  PerfCounters& c = global_counters();
  for (int s = 0; s < part.num_shards(); ++s) {
    const Shard& sh = part.shard(s);
    c.frontier_edges += static_cast<std::uint64_t>(
        ep.dst_major ? sh.frontier_in_edges : sh.frontier_out_edges);
    c.interior_edges += static_cast<std::uint64_t>(
        ep.dst_major ? sh.interior_in_edges() : sh.interior_out_edges());
  }
  c.combine_overlap_ns += static_cast<std::uint64_t>(tm.overlap_s * 1e9);
}

/// Specialized barrier path: per-shard walk-core tasks, join, then — when the
/// binding has a boundary output — per-shard owner-range combine-core tasks
/// (shard ranges partition [0, |V|) and each row's fold order is fixed, so K
/// concurrent tasks reproduce the serial sweep bit for bit).
void run_sharded_core_barrier(const Graph& g, const Partitioning& part,
                              const EdgeProgram& ep, const CoreBinding& core,
                              const CoreArgs& args,
                              std::vector<double>& walk_s,
                              std::vector<double>& comb_s) {
  const int k = part.num_shards();
  parallel_for(0, k, [&](std::int64_t s) {
    const Shard& sh = part.shard(static_cast<int>(s));
    Timer t;
    run_core_range(g, ep, core, args, sh.v_lo, sh.v_hi);
    walk_s[s] = t.seconds();
  }, /*grain=*/1);
  if (core.has_boundary()) {
    parallel_for(0, k, [&](std::int64_t s) {
      const Shard& sh = part.shard(static_cast<int>(s));
      Timer t;
      run_core_combine_span(g, ep, core, args, nullptr, 0, sh.v_lo, sh.v_hi);
      comb_s[s] = t.seconds();
    }, /*grain=*/1);
  }
}

/// Wire size of one boundary stash row: every non-sequential output's width,
/// in floats — what a frontier publish hands per cut edge to the consuming
/// shard's combine (and what a socket transport would serialize).
std::size_t boundary_row_bytes(const EdgeProgram& ep) {
  std::size_t bytes = 0;
  for (const VertexOutput& vo : ep.vertex_outputs)
    if (!sequential_reduce(ep, vo))
      bytes += static_cast<std::size_t>(vo.width) * sizeof(float);
  return bytes;
}

}  // namespace

void run_edge_program_sharded(const Graph& g, const Partitioning& part,
                              const EdgeProgram& ep, const VmBindings& b,
                              const CoreBinding* core,
                              const PipelineSchedule* pipeline,
                              bool backward,
                              transport::ShardTransport* transport) {
  check_program(ep);
  TRIAD_CHECK_EQ(part.num_vertices(), g.num_vertices(),
                 "partitioning built for a different graph");

  const int k = part.num_shards();
  PerfCounters& c = global_counters();
  const transport::TransportStats tx0 =
      transport != nullptr ? transport->stats() : transport::TransportStats{};
  std::vector<double> walk_s(k, 0.0), comb_s(k, 0.0);
  if (core != nullptr && core->specialized()) {
    // Specialized path: shard-per-pool-task like the interpreter. Bindings
    // with a boundary output run their combine core per owner shard —
    // barriered, or through the same frontier-first pipelined skeleton as
    // the interpreter when a schedule is installed. Bit-identical to the
    // single-shard core either way (same per-vertex loops, same fold order).
    const CoreArgs args = resolve_core_args(*core, ep, b);
    if (pipeline != nullptr && ep.mapping == WorkMapping::VertexBalanced) {
      TRIAD_CHECK_EQ(pipeline->num_shards(), k,
                     "pipeline schedule built for a different partitioning");
      std::unique_ptr<transport::BoundaryExchange> bx;
      if (transport != nullptr)
        bx = std::make_unique<transport::BoundaryExchange>(
            *transport, *pipeline, ep.dst_major, boundary_row_bytes(ep));
      const PipelineTiming tm = run_pipelined(
          part, *pipeline,
          [&](int, const std::int32_t* list, std::int64_t count) {
            run_core_span(g, ep, *core, args, list, count, 0, 0);
          },
          [&](int, const std::int32_t* list, std::int64_t count) {
            run_core_combine_span(g, ep, *core, args, list, count, 0, 0);
          },
          core->has_boundary(), bx.get());
      walk_s = tm.walk_s;
      comb_s = tm.comb_s;
      charge_pipelined(part, ep, tm);
    } else {
      run_sharded_core_barrier(g, part, ep, *core, args, walk_s, comb_s);
    }
    charge_specialized(g, ep, *core, backward);
  } else {
    ResolvedProgram rp = resolve(g, ep, b);
    if (pipeline != nullptr && ep.mapping == WorkMapping::VertexBalanced) {
      TRIAD_CHECK_EQ(pipeline->num_shards(), k,
                     "pipeline schedule built for a different partitioning");
      std::unique_ptr<transport::BoundaryExchange> bx;
      if (transport != nullptr)
        bx = std::make_unique<transport::BoundaryExchange>(
            *transport, *pipeline, ep.dst_major, boundary_row_bytes(ep));
      const PipelineTiming tm = run_pipelined(
          part, *pipeline,
          [&](int, const std::int32_t* list, std::int64_t count) {
            walk_vertex_span(g, ep, rp, list, count, 0, 0);
          },
          [&](int, const std::int32_t* list, std::int64_t count) {
            combine_boundary_targets(g, ep, rp, list, count, 0, 0);
          },
          rp.has_boundary, bx.get());
      walk_s = tm.walk_s;
      comb_s = tm.comb_s;
      charge_pipelined(part, ep, tm);
    } else {
      // Edge-balanced programs keep the barrier: their walk order is not
      // vertex-owned, so there is no frontier/interior split to exploit.
      run_sharded_barrier(g, part, ep, rp, walk_s, comb_s);
    }
    (backward ? c.interpreted_bwd_edges : c.interpreted_fwd_edges) +=
        static_cast<std::uint64_t>(g.num_edges());
  }
  for (int s = 0; s < k; ++s) {
    c.walk_ns += static_cast<std::uint64_t>(walk_s[s] * 1e9);
    c.combine_ns += static_cast<std::uint64_t>(comb_s[s] * 1e9);
  }

  // Per-shard charging: each shard is one modeled kernel over its owned
  // slice; the shard sums partition the single-shard totals exactly (modulo
  // per-shard parameter reloads, which are real).
  for (int s = 0; s < k; ++s) {
    const Shard& sh = part.shard(s);
    std::int64_t m_s;
    if (ep.mapping == WorkMapping::EdgeBalanced) {
      const EdgeRange r = edge_shard_range(g.num_edges(), k, s);
      m_s = r.hi - r.lo;
    } else {
      m_s = ep.dst_major ? sh.num_in_edges() : sh.num_out_edges();
    }
    charge_program(sh.num_vertices(), m_s, ep);
  }
  charge_sharded_combine(part, ep);
  if (transport != nullptr) {
    // Fabric counters are fabric-wide atomics fed from pool threads; charge
    // the run's delta here, post-join, into the caller's thread-local ledger.
    const transport::TransportStats tx1 = transport->stats();
    c.transport_msgs += tx1.messages - tx0.messages;
    c.transport_bytes += tx1.bytes - tx0.bytes;
  }
}

}  // namespace triad
