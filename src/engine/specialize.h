/// \file
/// Kernel specialization: binding hand-written cores to EdgePrograms.
///
/// The VM interprets an EdgeProgram per edge — pre-resolved pointers, but
/// still an opcode dispatch and a register indirection per instruction per
/// edge. The optimizer only ever produces a handful of post-fusion program
/// shapes for the stock models, so at plan-compile time `match_core` pattern
/// matches each program against those shapes and, on a hit, records a
/// CoreBinding. At run time the VM executes the bound core — a flat,
/// width-templated C++ loop with restrict pointers and cache-blocked CSR
/// traversal (see engine/cores/) — instead of the interpreter.
///
/// Contract: a specialized core evaluates the exact same floating-point
/// expressions in the exact same order as the interpreter (same edge order,
/// same association, no FMA contraction — the build pins -ffp-contract=off),
/// so specialized output is bit-identical to interpreted output, sharded or
/// not. Three program families are covered:
///
///  - Forward vertex-balanced shapes (gcn_wsum, gat_softmax, edgeconv_max,
///    monet_gauss): every reduction sequential, no edge outputs — the walk
///    core is the whole kernel.
///  - Backward vertex-balanced shapes (maxbwd_gather, gat_scorebwd,
///    gat_attnbwd, gauss_bwd): may carry StoreE edge outputs (the store_e
///    stash shapes), two phases (gat_attnbwd: GAT's attention-aggregation
///    backward) and at most one cross-orientation Sum reduction. The walk
///    core handles the sequential outputs and edge stores; the boundary
///    output is finalized by run_core_combine_span, which folds each target
///    row in the same fixed reverse-orientation edge order as the
///    interpreter's boundary-combine sweep (recomputing the per-edge SSA
///    value instead of stashing it — identical bits, no O(|E|·w) stash).
///  - Edge-balanced Sum gathers (sum_eb): the interpreter realizes these as
///    a fully-elided walk plus a deterministic per-target combine, so the
///    core IS that combine — a per-target fold over the output's
///    reverse-orientation adjacency in fixed edge order.
///
/// Anything else — unrecognized instruction sequences, non-Sum boundary
/// reductions, multi-output edge-balanced programs — falls back to the
/// interpreter unchanged. Selection is observable: PerfCounters counts
/// specialized vs interpreted edges per pass (forward/backward), and the
/// compile report lists the core chosen per program (the `specialize` entry
/// of `compile_passes`).
#pragma once

#include <cstdint>
#include <string>

#include "graph/csr.h"
#include "ir/edge_program.h"

namespace triad {

struct VmBindings;  // engine/vm.h

/// The program shapes with a hand-written core. Names follow the model whose
/// hot path produces the shape; the match is structural, so any program with
/// the same instruction DAG binds the same core.
enum class CoreKind : std::uint8_t {
  None,         ///< no match — interpret
  GcnWsum,      ///< single Load(other) + Sum reduce (GCN weighted sum)
  GatSoftmax,   ///< 3-phase max / exp-sum / normalize-weighted gather
  EdgeConvMax,  ///< (x_u - x_v + y_v) Max reduce with argmax
  MoNetGauss,   ///< gaussian-weighted MulHead gather
  MaxBwdGather, ///< argmax-replay gather (EdgeConv backward), dual reduce
  GatScoreBwd,  ///< GAT score gradient: mask/sub/leaky_relu_grad, dual reduce
  GatAttnBwd,   ///< GAT attention-aggregation backward: 2-phase, recomputed dX
  GaussBwd,     ///< MoNet backward: gauss + dot_head store_e stash shape
  SumEb,        ///< edge-balanced Sum gather of the non-target endpoint
};

const char* to_string(CoreKind kind);

/// A matched core plus everything its loops need that the interpreter would
/// re-derive per edge: tensor ids to resolve against VmBindings, the scalar
/// immediates, and the template width the dispatcher selected.
struct CoreBinding {
  CoreKind kind = CoreKind::None;
  /// Hot inner-loop width (per-head feature width for head-structured cores,
  /// the full output width otherwise) — what the W-template specializes on.
  std::int64_t hot_width = 0;
  /// Chosen template instantiation: 16, 32, or 64; 0 = runtime-width
  /// fallback core (still specialized, still bit-identical).
  int template_width = 0;

  // Tensor ids (post-fusion IR node ids), resolved via VmBindings per run.
  int t_feat = -1;   ///< gathered feature rows (all cores)
  int t_a = -1;      ///< GAT a_l / EdgeConv v-side Sub operand / MoNet pseudo
                     ///< GatScoreBwd: the LoadV gradient-sum operand
  int t_b = -1;      ///< GAT a_r / EdgeConv v-side Add operand / MoNet mu
                     ///< GatScoreBwd: the LoadE raw-score operand
  int t_c = -1;      ///< MoNet sigma / GatAttnBwd: softmax max
  int t_d = -1;      ///< GatAttnBwd: softmax denominator (sum)
  int t_g = -1;      ///< GaussBwd, GatAttnBwd: LoadV upstream-gradient rows
  int t_aux = -1;    ///< MaxBwdMask argmax aux (int32 rows, VmBindings::aux)
  int t_e0 = -1;     ///< first StoreE edge-output node (GaussBwd: weights)
  int t_e1 = -1;     ///< second StoreE edge-output node (GaussBwd: dots)
  float alpha = 0.f; ///< GAT LeakyReLU negative slope
  std::int64_t heads = 1;  ///< GAT heads / MoNet mixture size

  /// Index into vertex_outputs of the sequential reduction the walk core
  /// writes (-1 = the core has no sequential output). Forward cores use the
  /// fixed output layout of their shape instead and leave these unset.
  int seq_out = -1;
  /// Index of a second sequential reduction (GatAttnBwd's phase-1 output);
  /// -1 = none.
  int seq_out2 = -1;
  /// Index into vertex_outputs of the cross-orientation Sum reduction the
  /// combine core finalizes; -1 = no boundary, the walk is the whole kernel.
  int boundary_out = -1;

  bool specialized() const { return kind != CoreKind::None; }
  /// True when run_core_combine_span must run after the walk to finalize a
  /// cross-orientation reduction (mirrors ResolvedProgram::has_boundary).
  bool has_boundary() const { return boundary_out >= 0; }
  /// Label used in the compile report, e.g. "gat_softmax/w64" (template
  /// width) or "gcn_wsum/dyn" (runtime-width fallback).
  std::string label() const;
};

/// Structural matcher, run once per program at plan-compile time. Verifies
/// the full instruction sequence — opcodes, register wiring, widths, tensor
/// consistency across phases, and the reduction layout — and returns
/// kind == None (interpreter fallback) on any mismatch.
CoreBinding match_core(const EdgeProgram& ep);

/// Pre-resolved pointers for one core run. `args` must come from
/// resolve_core_args for this (binding, bindings) pair.
struct CoreArgs {
  const float* feat = nullptr;
  std::int64_t feat_cols = 0;
  const float* a = nullptr;
  std::int64_t a_cols = 0;
  const float* b = nullptr;
  const float* c = nullptr;
  std::int64_t b_cols = 0;  ///< b row stride; MoNet: mu/sigma pseudo dim r
  std::int64_t c_cols = 0;  ///< c row stride (GatAttnBwd; MoNet uses b_cols)
  const float* d = nullptr;
  std::int64_t d_cols = 0;
  const float* g = nullptr; ///< GaussBwd / GatAttnBwd gradient rows
  std::int64_t g_cols = 0;
  const std::int32_t* mask = nullptr;  ///< MaxBwdMask argmax aux rows
  std::int64_t mask_cols = 0;
  float* out0 = nullptr;    ///< sequential-output rows (walk core)
  float* out1 = nullptr;    ///< vertex_outputs[1] rows (GatSoftmax);
                            ///< GatAttnBwd: the seq_out2 rows
  float* out2 = nullptr;    ///< vertex_outputs[2] rows (GAT)
  float* outb = nullptr;    ///< boundary-output rows (combine core)
  float* oute0 = nullptr;   ///< StoreE edge-output rows
  float* oute1 = nullptr;
  std::int64_t oute0_cols = 0;
  std::int64_t oute1_cols = 0;
  std::int32_t* aux0 = nullptr;  ///< argmax aux of vertex_outputs[0]
};

CoreArgs resolve_core_args(const CoreBinding& cb, const EdgeProgram& ep,
                           const VmBindings& b);

/// Runs the bound core's walk over owned vertices of the program's primary
/// orientation — `list[0..count)` when `list` is non-null (a shard's frontier
/// or interior set), else the range [v_lo, v_hi). Serial — callers provide
/// the parallelism, like the interpreter's walk_vertex_span. Any visit order
/// over disjoint sets is bit-identical (vertices share no walk state).
void run_core_span(const Graph& g, const EdgeProgram& ep,
                   const CoreBinding& cb, const CoreArgs& args,
                   const std::int32_t* list, std::int64_t count,
                   std::int64_t v_lo, std::int64_t v_hi);

inline void run_core_range(const Graph& g, const EdgeProgram& ep,
                           const CoreBinding& cb, const CoreArgs& args,
                           std::int64_t v_lo, std::int64_t v_hi) {
  run_core_span(g, ep, cb, args, nullptr, 0, v_lo, v_hi);
}

/// Finalizes the binding's boundary output (cb.has_boundary()) for the given
/// target vertices — `list[0..count)` when `list` is non-null, else
/// [t_lo, t_hi). Folds each target row in its fixed reverse-orientation edge
/// order, recomputing the per-edge contribution exactly as the interpreter's
/// combine replay would — bit-identical for any thread/shard count. Serial;
/// callers schedule disjoint target sets concurrently (the sharded runners
/// issue one span per shard, barriered or pipelined).
void run_core_combine_span(const Graph& g, const EdgeProgram& ep,
                           const CoreBinding& cb, const CoreArgs& args,
                           const std::int32_t* list, std::int64_t count,
                           std::int64_t t_lo, std::int64_t t_hi);

}  // namespace triad
