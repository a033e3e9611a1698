// Micro-benchmarks: kernel-level costs behind the figures, now centred on the
// specialized-core before/after gate. For each core shape the optimizer can
// produce — the forward set (gcn_wsum, gat_softmax, edgeconv_max,
// monet_gauss), the training gradients (maxbwd_gather, gat_scorebwd,
// gat_attnbwd, gauss_bwd) and the edge-balanced fold (sum_eb) — the bench
// hand builds the exact post-fusion EdgeProgram, runs it once through the VM
// interpreter and once through the bound core (match_core must fire), checks
// the outputs are bit-identical, and emits both rows — so the JSON carries
// the interpreter baseline next to the specialized speedup per width. The legacy
// thread-mapping and fusion micro comparisons (Figure 5's gather trade-off,
// fused vs unfused scatter-apply-gather) ride along as extra rows. The dense
// rows time the Linear and weight-gradient kernels on the benchmark
// workloads' shapes against the naive loop, in GFLOP/s, bit-identity-checked
// the same way.
//
// `--no-specialize` keeps only the interpreter rows (the ablation trajectory).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "engine/kernels.h"
#include "engine/specialize.h"
#include "engine/vm.h"
#include "graph/generators.h"
#include "ir/graph.h"
#include "support/rng.h"

namespace triad {
namespace {

/// A hand-built EdgeProgram plus the id-keyed input tensors it loads from.
/// Output tensors are allocated per run variant so the interpreter and the
/// specialized core never alias (their results are compared bit-for-bit).
struct ProgramCase {
  std::string name;  ///< shape label, e.g. "gcn_wsum/w64"
  EdgeProgram ep;
  std::map<int, Tensor> inputs;
  std::map<int, IntTensor> iaux;  ///< argmax aux inputs (MaxBwdMask)
  bool backward = false;          ///< charge the bwd counter slots
};

struct Outputs {
  std::map<int, Tensor> out;
  std::map<int, IntTensor> aux;
};

Outputs make_outputs(const Graph& g, const EdgeProgram& ep) {
  Outputs o;
  for (const VertexOutput& vo : ep.vertex_outputs) {
    o.out.emplace(vo.node, Tensor(g.num_vertices(), vo.width));
    if (vo.track_argmax) {
      o.aux.emplace(vo.node, IntTensor(g.num_vertices(), vo.width));
    }
  }
  for (const EdgeOutput& eo : ep.edge_outputs) {
    o.out.emplace(eo.node, Tensor(g.num_edges(), eo.width));
  }
  return o;
}

VmBindings make_bindings(const ProgramCase& pc, Outputs& o) {
  VmBindings b;
  b.tensor = [&pc](int id) -> const Tensor& { return pc.inputs.at(id); };
  b.out = [&o](int id) -> Tensor& { return o.out.at(id); };
  b.aux = [&pc, &o](int id) -> const IntTensor& {
    const auto it = pc.iaux.find(id);
    return it != pc.iaux.end() ? it->second : o.aux.at(id);
  };
  b.out_aux = [&o](int id) -> IntTensor& { return o.aux.at(id); };
  return b;
}

bool outputs_identical(const Outputs& x, const Outputs& y) {
  for (const auto& [id, t] : x.out) {
    const Tensor& u = y.out.at(id);
    if (std::memcmp(t.data(), u.data(),
                    sizeof(float) * static_cast<std::size_t>(t.rows() * t.cols())) != 0) {
      return false;
    }
  }
  for (const auto& [id, t] : x.aux) {
    const IntTensor& u = y.aux.at(id);
    if (std::memcmp(t.data(), u.data(),
                    sizeof(std::int32_t) *
                        static_cast<std::size_t>(t.rows() * t.cols())) != 0) {
      return false;
    }
  }
  return true;
}

/// Times `reps` interpreter or core runs (one warmup, counters from one
/// dedicated run so they are per-step, not per-loop).
bench::Measurement time_program(const Graph& g, const ProgramCase& pc,
                                Outputs& o, const CoreBinding* core, int reps) {
  VmBindings b = make_bindings(pc, o);
  run_edge_program(g, pc.ep, b, core, pc.backward);  // warmup
  CounterScope sc;
  run_edge_program(g, pc.ep, b, core, pc.backward);
  bench::Measurement m;
  m.counters = sc.delta();
  m.io_bytes = m.counters.io_bytes();
  Timer t;
  for (int i = 0; i < reps; ++i) run_edge_program(g, pc.ep, b, core, pc.backward);
  m.seconds = t.seconds() / reps;
  return m;
}

// --- program-shape builders (mirror the optimizer's post-fusion output) -----

/// GCN weighted sum: [LoadU feat; Reduce Sum] — also the shape of the GCN
/// backward gather (src-major there; orientation-neutral for the matcher).
ProgramCase build_gcn_wsum(const Graph& g, std::int64_t f, Rng& rng) {
  ProgramCase pc;
  pc.name = "gcn_wsum";
  pc.inputs.emplace(0, Tensor::randn(g.num_vertices(), f, rng));
  EdgeProgram& ep = pc.ep;
  ep.phases.resize(1);
  ep.phases[0].instrs = {
      {EPOp::LoadU, 0, -1, -1, 0, -1, -1, 0.f, 1, f},
      {EPOp::Reduce, -1, 0, -1, -1, -1, 0, 0.f, 1, f},
  };
  ep.vertex_outputs = {{1, static_cast<std::uint8_t>(ReduceFn::Sum), f, 0,
                        false, false, false}};
  ep.num_regs = 1;
  ep.reg_width = {f};
  return pc;
}

/// EdgeConv: max-reduce of (x_u - x_v + y_v) with argmax tracking.
ProgramCase build_edgeconv_max(const Graph& g, std::int64_t f, Rng& rng) {
  ProgramCase pc;
  pc.name = "edgeconv_max";
  pc.inputs.emplace(0, Tensor::randn(g.num_vertices(), f, rng));
  pc.inputs.emplace(1, Tensor::randn(g.num_vertices(), f, rng));
  EdgeProgram& ep = pc.ep;
  ep.phases.resize(1);
  ep.phases[0].instrs = {
      {EPOp::LoadU, 0, -1, -1, 0, -1, -1, 0.f, 1, f},
      {EPOp::LoadV, 1, -1, -1, 0, -1, -1, 0.f, 1, f},
      {EPOp::Sub, 2, 0, 1, -1, -1, -1, 0.f, 1, f},
      {EPOp::LoadV, 3, -1, -1, 1, -1, -1, 0.f, 1, f},
      {EPOp::Add, 4, 2, 3, -1, -1, -1, 0.f, 1, f},
      {EPOp::Reduce, -1, 4, -1, -1, -1, 0, 0.f, 1, f},
  };
  ep.vertex_outputs = {{2, static_cast<std::uint8_t>(ReduceFn::Max), f, 0,
                        false, false, true}};
  ep.num_regs = 5;
  ep.reg_width = {f, f, f, f, f};
  return pc;
}

/// GAT edge-softmax-weighted gather: 3 phases (max, exp-sum, normalize +
/// MulHead gather), the leaky-relu score recomputed in registers per phase.
ProgramCase build_gat_softmax(const Graph& g, std::int64_t h, std::int64_t f,
                              Rng& rng) {
  const std::int64_t w = h * f;
  const float alpha = 0.2f;
  ProgramCase pc;
  pc.name = "gat_softmax";
  pc.inputs.emplace(0, Tensor::randn(g.num_vertices(), w, rng));  // feat
  pc.inputs.emplace(1, Tensor::randn(g.num_vertices(), h, rng));  // a_l . h_u
  pc.inputs.emplace(2, Tensor::randn(g.num_vertices(), h, rng));  // a_r . h_v
  EdgeProgram& ep = pc.ep;
  ep.phases.resize(3);
  ep.phases[0].instrs = {
      {EPOp::LoadU, 0, -1, -1, 1, -1, -1, 0.f, 1, h},
      {EPOp::LoadV, 1, -1, -1, 2, -1, -1, 0.f, 1, h},
      {EPOp::Add, 2, 0, 1, -1, -1, -1, 0.f, 1, h},
      {EPOp::LeakyReLU, 3, 2, -1, -1, -1, -1, alpha, 1, h},
      {EPOp::Reduce, -1, 3, -1, -1, -1, 0, 0.f, 1, h},
  };
  ep.phases[1].instrs = {
      {EPOp::LoadU, 4, -1, -1, 1, -1, -1, 0.f, 1, h},
      {EPOp::LoadV, 5, -1, -1, 2, -1, -1, 0.f, 1, h},
      {EPOp::Add, 6, 4, 5, -1, -1, -1, 0.f, 1, h},
      {EPOp::LeakyReLU, 7, 6, -1, -1, -1, -1, alpha, 1, h},
      {EPOp::LoadAcc, 8, -1, -1, 3, -1, -1, 0.f, 1, h},
      {EPOp::Sub, 9, 7, 8, -1, -1, -1, 0.f, 1, h},
      {EPOp::Exp, 10, 9, -1, -1, -1, -1, 0.f, 1, h},
      {EPOp::Reduce, -1, 10, -1, -1, -1, 1, 0.f, 1, h},
  };
  ep.phases[2].instrs = {
      {EPOp::LoadU, 11, -1, -1, 0, -1, -1, 0.f, 1, w},
      {EPOp::LoadU, 12, -1, -1, 1, -1, -1, 0.f, 1, h},
      {EPOp::LoadV, 13, -1, -1, 2, -1, -1, 0.f, 1, h},
      {EPOp::Add, 14, 12, 13, -1, -1, -1, 0.f, 1, h},
      {EPOp::LeakyReLU, 15, 14, -1, -1, -1, -1, alpha, 1, h},
      {EPOp::LoadAcc, 16, -1, -1, 3, -1, -1, 0.f, 1, h},
      {EPOp::Sub, 17, 15, 16, -1, -1, -1, 0.f, 1, h},
      {EPOp::Exp, 18, 17, -1, -1, -1, -1, 0.f, 1, h},
      {EPOp::LoadAcc, 19, -1, -1, 4, -1, -1, 0.f, 1, h},
      {EPOp::Div, 20, 18, 19, -1, -1, -1, 0.f, 1, h},
      {EPOp::MulHead, 21, 11, 20, -1, -1, -1, 0.f, h, w},
      {EPOp::Reduce, -1, 21, -1, -1, -1, 2, 0.f, 1, w},
  };
  ep.vertex_outputs = {
      {3, static_cast<std::uint8_t>(ReduceFn::Max), h, 0, false, false, true},
      {4, static_cast<std::uint8_t>(ReduceFn::Sum), h, 1, false, false, false},
      {5, static_cast<std::uint8_t>(ReduceFn::Sum), w, 2, false, false, false},
  };
  ep.num_regs = 22;
  ep.reg_width.assign(22, h);
  ep.reg_width[11] = w;
  ep.reg_width[21] = w;
  return pc;
}

/// MoNet: gaussian mixture weights from edge pseudo-coordinates, MulHead
/// gather, Sum reduce. `k` mixture kernels over pseudo dimension r=2.
ProgramCase build_monet_gauss(const Graph& g, std::int64_t k, std::int64_t f,
                              Rng& rng) {
  const std::int64_t w = k * f;
  const std::int64_t r = 2;
  ProgramCase pc;
  pc.name = "monet_gauss";
  pc.inputs.emplace(0, Tensor::randn(g.num_vertices(), w, rng));  // feat
  pc.inputs.emplace(1, Tensor::randn(g.num_edges(), r, rng));     // pseudo
  pc.inputs.emplace(2, Tensor::randn(k, r, rng));                 // mu
  pc.inputs.emplace(3, Tensor::randn(k, r, rng));                 // sigma
  EdgeProgram& ep = pc.ep;
  ep.phases.resize(1);
  ep.phases[0].instrs = {
      {EPOp::LoadU, 0, -1, -1, 0, -1, -1, 0.f, 1, w},
      {EPOp::LoadE, 1, -1, -1, 1, -1, -1, 0.f, 1, r},
      {EPOp::Gauss, 2, 1, -1, 2, 3, -1, 0.f, 1, k},
      {EPOp::MulHead, 3, 0, 2, -1, -1, -1, 0.f, k, w},
      {EPOp::Reduce, -1, 3, -1, -1, -1, 0, 0.f, 1, w},
  };
  ep.vertex_outputs = {{4, static_cast<std::uint8_t>(ReduceFn::Sum), w, 0,
                        false, false, false}};
  ep.num_regs = 4;
  ep.reg_width = {w, r, k, w};
  return pc;
}

// --- training-shape builders (the gradient programs + edge-balanced fold) ---

/// Synthetic forward argmax: vertex v's slot j points at one of v's in-edges
/// (cycled over its in-neighborhood), or -1 when v is isolated — the mask
/// shape the EdgeConv/GAT forward hands its gradient program.
IntTensor make_argmax_aux(const Graph& g, std::int64_t w) {
  IntTensor aux(g.num_vertices(), w);
  const auto& ptr = g.in_ptr();
  const auto& eid = g.in_eid();
  for (std::int64_t v = 0; v < g.num_vertices(); ++v) {
    const std::int64_t d = ptr[v + 1] - ptr[v];
    for (std::int64_t j = 0; j < w; ++j) {
      aux.at(v, j) = d > 0 ? eid[ptr[v] + (j % d)] : -1;
    }
  }
  return aux;
}

/// EdgeConv gradient gather: per-dst grad masked by the forward argmax; the
/// dst-side fold is sequential, the src-side one a boundary combine.
ProgramCase build_maxbwd_gather(const Graph& g, std::int64_t w, Rng& rng) {
  ProgramCase pc;
  pc.name = "maxbwd_gather";
  pc.backward = true;
  pc.inputs.emplace(0, Tensor::randn(g.num_vertices(), w, rng));  // dL/dy
  pc.iaux.emplace(1, make_argmax_aux(g, w));
  EdgeProgram& ep = pc.ep;
  ep.phases.resize(1);
  ep.phases[0].instrs = {
      {EPOp::LoadV, 0, -1, -1, 0, -1, -1, 0.f, 1, w},
      {EPOp::MaxBwdMask, 1, 0, -1, 1, -1, -1, 0.f, 1, w},
      {EPOp::Reduce, -1, 1, -1, -1, -1, 0, 0.f, 1, w},
      {EPOp::Reduce, -1, 1, -1, -1, -1, 1, 0.f, 1, w},
  };
  ep.vertex_outputs = {
      {2, static_cast<std::uint8_t>(ReduceFn::Sum), w, 0, false, false, false},
      {3, static_cast<std::uint8_t>(ReduceFn::Sum), w, 0, true, true, false}};
  ep.num_regs = 2;
  ep.reg_width = {w, w};
  return pc;
}

/// GAT score gradient: (dL/de - masked softmax sum) gated by the leaky-relu
/// derivative of the raw score; dual Sum reduce (dst sequential, src boundary).
ProgramCase build_gat_scorebwd(const Graph& g, std::int64_t h, Rng& rng) {
  const float alpha = 0.2f;
  ProgramCase pc;
  pc.name = "gat_scorebwd";
  pc.backward = true;
  pc.inputs.emplace(0, Tensor::randn(g.num_edges(), h, rng));     // dL/de
  pc.inputs.emplace(1, Tensor::randn(g.num_vertices(), h, rng));  // grad sums
  pc.iaux.emplace(2, make_argmax_aux(g, h));
  pc.inputs.emplace(3, Tensor::randn(g.num_edges(), h, rng));  // raw scores
  EdgeProgram& ep = pc.ep;
  ep.phases.resize(1);
  ep.phases[0].instrs = {
      {EPOp::LoadE, 0, -1, -1, 0, -1, -1, 0.f, 1, h},
      {EPOp::LoadV, 1, -1, -1, 1, -1, -1, 0.f, 1, h},
      {EPOp::MaxBwdMask, 2, 1, -1, 2, -1, -1, 0.f, 1, h},
      {EPOp::Sub, 3, 0, 2, -1, -1, -1, 0.f, 1, h},
      {EPOp::LoadE, 4, -1, -1, 3, -1, -1, 0.f, 1, h},
      {EPOp::LeakyReLUGrad, 5, 3, 4, -1, -1, -1, alpha, 1, h},
      {EPOp::Reduce, -1, 5, -1, -1, -1, 0, 0.f, 1, h},
      {EPOp::Reduce, -1, 5, -1, -1, -1, 1, 0.f, 1, h},
  };
  ep.vertex_outputs = {
      {6, static_cast<std::uint8_t>(ReduceFn::Sum), h, 0, true, true, false},
      {7, static_cast<std::uint8_t>(ReduceFn::Sum), h, 0, false, false, false}};
  ep.num_regs = 6;
  ep.reg_width = {h, h, h, h, h, h};
  return pc;
}

/// GAT attention-aggregation backward: the two-phase program fusion emits
/// per layer (h heads of f features). Its feature gradient is the boundary
/// output the interpreter stashes and the core's combine recomputes. `sum`
/// rows are positive, as a forward softmax denominator is.
ProgramCase build_gat_attnbwd(const Graph& g, std::int64_t h, std::int64_t f,
                              Rng& rng) {
  const float alpha = 0.2f;
  const std::int64_t w = h * f;
  const std::int64_t n = g.num_vertices();
  ProgramCase pc;
  pc.name = "gat_attnbwd";
  pc.backward = true;
  pc.inputs.emplace(1, Tensor::randn(n, h, rng));  // a_l
  pc.inputs.emplace(2, Tensor::randn(n, h, rng));  // a_r
  pc.inputs.emplace(3, Tensor::randn(n, w, rng));  // dL/dout
  pc.inputs.emplace(4, Tensor::randn(n, h, rng));  // softmax max
  Tensor sum = Tensor::randn(n, h, rng);
  for (std::int64_t i = 0; i < sum.numel(); ++i) {
    sum.data()[i] = 1.f + std::abs(sum.data()[i]);
  }
  pc.inputs.emplace(5, std::move(sum));             // softmax denominator
  pc.inputs.emplace(6, Tensor::randn(n, w, rng));   // projected features
  EdgeProgram& ep = pc.ep;
  ep.phases.resize(2);
  ep.phases[0].instrs = {
      {EPOp::LoadU, 0, -1, -1, 1, -1, -1, 0.f, 1, h},
      {EPOp::LoadV, 1, -1, -1, 2, -1, -1, 0.f, 1, h},
      {EPOp::Add, 2, 0, 1, -1, -1, -1, 0.f, 1, h},
      {EPOp::StoreE, -1, 2, -1, 10, -1, -1, 0.f, 1, h},
      {EPOp::LoadV, 3, -1, -1, 3, -1, -1, 0.f, 1, w},
      {EPOp::LeakyReLU, 4, 2, -1, -1, -1, -1, alpha, 1, h},
      {EPOp::LoadV, 5, -1, -1, 4, -1, -1, 0.f, 1, h},
      {EPOp::Sub, 6, 4, 5, -1, -1, -1, 0.f, 1, h},
      {EPOp::Exp, 7, 6, -1, -1, -1, -1, 0.f, 1, h},
      {EPOp::LoadV, 8, -1, -1, 5, -1, -1, 0.f, 1, h},
      {EPOp::Div, 9, 7, 8, -1, -1, -1, 0.f, 1, h},
      {EPOp::MulHead, 10, 3, 9, -1, -1, -1, 0.f, h, w},
      {EPOp::Reduce, -1, 10, -1, -1, -1, 0, 0.f, 1, w},
      {EPOp::LoadU, 11, -1, -1, 6, -1, -1, 0.f, 1, w},
      {EPOp::DotHead, 12, 3, 11, -1, -1, -1, 0.f, h, h},
      {EPOp::Mul, 13, 12, 9, -1, -1, -1, 0.f, 1, h},
      {EPOp::Div, 14, 13, 8, -1, -1, -1, 0.f, 1, h},
      {EPOp::Reduce, -1, 14, -1, -1, -1, 1, 0.f, 1, h},
  };
  ep.phases[1].instrs = {
      {EPOp::LoadV, 15, -1, -1, 3, -1, -1, 0.f, 1, w},
      {EPOp::LoadU, 16, -1, -1, 6, -1, -1, 0.f, 1, w},
      {EPOp::DotHead, 17, 15, 16, -1, -1, -1, 0.f, h, h},
      {EPOp::LoadV, 18, -1, -1, 5, -1, -1, 0.f, 1, h},
      {EPOp::Div, 19, 17, 18, -1, -1, -1, 0.f, 1, h},
      {EPOp::LoadAcc, 20, -1, -1, 8, -1, -1, 0.f, 1, h},
      {EPOp::Sub, 21, 19, 20, -1, -1, -1, 0.f, 1, h},
      {EPOp::LoadU, 22, -1, -1, 1, -1, -1, 0.f, 1, h},
      {EPOp::LoadV, 23, -1, -1, 2, -1, -1, 0.f, 1, h},
      {EPOp::Add, 24, 22, 23, -1, -1, -1, 0.f, 1, h},
      {EPOp::LeakyReLU, 25, 24, -1, -1, -1, -1, alpha, 1, h},
      {EPOp::LoadV, 26, -1, -1, 4, -1, -1, 0.f, 1, h},
      {EPOp::Sub, 27, 25, 26, -1, -1, -1, 0.f, 1, h},
      {EPOp::Exp, 28, 27, -1, -1, -1, -1, 0.f, 1, h},
      {EPOp::ExpGrad, 29, 21, 28, -1, -1, -1, 0.f, 1, h},
      {EPOp::StoreE, -1, 29, -1, 11, -1, -1, 0.f, 1, h},
      {EPOp::Reduce, -1, 29, -1, -1, -1, 2, 0.f, 1, h},
  };
  ep.vertex_outputs = {
      {7, static_cast<std::uint8_t>(ReduceFn::Sum), w, 0, true, true, false},
      {8, static_cast<std::uint8_t>(ReduceFn::Sum), h, 0, false, false, false},
      {9, static_cast<std::uint8_t>(ReduceFn::Sum), h, 1, false, false, false}};
  ep.edge_outputs = {{10, h}, {11, h}};
  ep.num_regs = 30;
  ep.reg_width.assign(30, h);
  for (const int r : {3, 10, 11, 15, 16}) ep.reg_width[r] = w;
  return pc;
}

/// MoNet gradient (src-major): gaussian weights and per-kernel feature dots
/// stashed to edge outputs, plus the sequential weighted feature gather.
ProgramCase build_gauss_bwd(const Graph& g, std::int64_t k, std::int64_t f,
                            Rng& rng) {
  const std::int64_t w = k * f;
  const std::int64_t r = 2;
  ProgramCase pc;
  pc.name = "gauss_bwd";
  pc.backward = true;
  pc.inputs.emplace(0, Tensor::randn(g.num_edges(), r, rng));     // pseudo
  pc.inputs.emplace(1, Tensor::randn(k, r, rng));                 // mu
  pc.inputs.emplace(2, Tensor::randn(k, r, rng));                 // sigma
  pc.inputs.emplace(4, Tensor::randn(g.num_vertices(), w, rng));  // dL/dy
  pc.inputs.emplace(5, Tensor::randn(g.num_vertices(), w, rng));  // feat
  EdgeProgram& ep = pc.ep;
  ep.dst_major = false;
  ep.phases.resize(1);
  ep.phases[0].instrs = {
      {EPOp::LoadE, 0, -1, -1, 0, -1, -1, 0.f, 1, r},
      {EPOp::Gauss, 1, 0, -1, 1, 2, -1, 0.f, 1, k},
      {EPOp::StoreE, -1, 1, -1, 3, -1, -1, 0.f, 1, k},
      {EPOp::LoadV, 2, -1, -1, 4, -1, -1, 0.f, 1, w},
      {EPOp::LoadU, 3, -1, -1, 5, -1, -1, 0.f, 1, w},
      {EPOp::DotHead, 4, 2, 3, -1, -1, -1, 0.f, k, k},
      {EPOp::StoreE, -1, 4, -1, 6, -1, -1, 0.f, 1, k},
      {EPOp::MulHead, 5, 2, 1, -1, -1, -1, 0.f, k, w},
      {EPOp::Reduce, -1, 5, -1, -1, -1, 0, 0.f, 1, w},
  };
  ep.vertex_outputs = {
      {7, static_cast<std::uint8_t>(ReduceFn::Sum), w, 0, true, false, false}};
  ep.edge_outputs = {{3, k}, {6, k}};
  ep.num_regs = 6;
  ep.reg_width = {r, k, w, w, k, w};
  return pc;
}

/// Edge-balanced Sum fold: the gcn gather under WorkMapping::EdgeBalanced,
/// where the interpreter's walk is fully elided and the combine IS the kernel.
ProgramCase build_sum_eb(const Graph& g, std::int64_t w, Rng& rng) {
  ProgramCase pc;
  pc.name = "sum_eb";
  pc.inputs.emplace(0, Tensor::randn(g.num_vertices(), w, rng));
  EdgeProgram& ep = pc.ep;
  ep.mapping = WorkMapping::EdgeBalanced;
  ep.phases.resize(1);
  ep.phases[0].instrs = {
      {EPOp::LoadU, 0, -1, -1, 0, -1, -1, 0.f, 1, w},
      {EPOp::Reduce, -1, 0, -1, -1, -1, 0, 0.f, 1, w},
  };
  ep.vertex_outputs = {{1, static_cast<std::uint8_t>(ReduceFn::Sum), w, 0,
                        false, true, false}};
  ep.num_regs = 1;
  ep.reg_width = {w};
  return pc;
}

/// One interpreter row (the base) and, unless --no-specialize, one
/// specialized row with the bit-identity verdict and core label attached.
void run_case(bench::JsonReport& report, const Graph& g, ProgramCase pc,
              std::int64_t hot_width, const bench::Options& opt, int reps) {
  pc.name += "/w" + std::to_string(hot_width);
  const CoreBinding cb = match_core(pc.ep);
  if (!cb.specialized()) {
    std::fprintf(stderr, "FATAL: match_core did not fire for %s\n",
                 pc.name.c_str());
    std::exit(1);
  }
  Outputs interp_out = make_outputs(g, pc.ep);
  const bench::Measurement interp =
      time_program(g, pc, interp_out, nullptr, reps);
  report.row(pc.name, "interpreter", interp, interp,
             "\"core\": \"interpreter\"");
  if (!opt.specialize) return;
  Outputs core_out = make_outputs(g, pc.ep);
  const bench::Measurement spec = time_program(g, pc, core_out, &cb, reps);
  const bool identical = outputs_identical(interp_out, core_out);
  if (!identical) {
    std::fprintf(stderr, "FATAL: %s core output differs from interpreter\n",
                 pc.name.c_str());
    std::exit(1);
  }
  report.row(pc.name, "specialized", spec, interp,
             "\"core\": \"" + cb.label() + "\", \"bit_identical\": true");
}

// --- legacy micro comparisons (thread mapping, fusion) ----------------------

bench::Measurement time_fn(const std::function<void()>& fn, int reps) {
  fn();  // warmup
  CounterScope sc;
  fn();
  bench::Measurement m;
  m.counters = sc.delta();
  m.io_bytes = m.counters.io_bytes();
  Timer t;
  for (int i = 0; i < reps; ++i) fn();
  m.seconds = t.seconds() / reps;
  return m;
}

void run_gather_mapping(bench::JsonReport& report, const Graph& g,
                        std::int64_t f, int reps) {
  Rng rng(1);
  Tensor e = Tensor::randn(g.num_edges(), f, rng);
  Tensor out(g.num_vertices(), f);
  const bench::Measurement vb = time_fn(
      [&] { kernels::gather(g, ReduceFn::Sum, false, e, out, nullptr); }, reps);
  const bench::Measurement eb = time_fn(
      [&] { kernels::gather_edge_balanced(g, e, out, false); }, reps);
  const std::string wl = "gather/w" + std::to_string(f);
  report.row(wl, "vertex-balanced", vb, vb);
  report.row(wl, "edge-atomic", eb, vb);
}

void run_fusion_pair(bench::JsonReport& report, const Graph& g, std::int64_t f,
                     const bench::Options& opt, int reps) {
  Rng rng(4);
  Tensor h = Tensor::randn(g.num_vertices(), f, rng);
  Tensor e1(g.num_edges(), f), e2(g.num_edges(), f);
  Tensor out(g.num_vertices(), f);
  const bench::Measurement unfused = time_fn(
      [&] {
        kernels::scatter(g, ScatterFn::SubUV, h, &h, e1, 1);
        kernels::apply_unary(ApplyFn::ReLU, e1, e2, 0.f);
        kernels::gather(g, ReduceFn::Sum, false, e2, out, nullptr);
      },
      reps);
  const std::string wl = "scatter_relu_gather/w" + std::to_string(f);
  report.row(wl, "unfused", unfused, unfused);

  // The fused chain as an EdgeProgram (no specialized core matches it — ReLU
  // over Sub is none of the four shapes — so it exercises the interpreter
  // fallback path on purpose).
  ProgramCase pc;
  pc.name = wl;
  pc.inputs.emplace(0, h.clone());
  EdgeProgram& ep = pc.ep;
  ep.phases.resize(1);
  ep.phases[0].instrs = {
      {EPOp::LoadU, 0, -1, -1, 0, -1, -1, 0.f, 1, f},
      {EPOp::LoadV, 1, -1, -1, 0, -1, -1, 0.f, 1, f},
      {EPOp::Sub, 2, 0, 1, -1, -1, -1, 0.f, 1, f},
      {EPOp::ReLU, 3, 2, -1, -1, -1, -1, 0.f, 1, f},
      {EPOp::Reduce, -1, 3, -1, -1, -1, 0, 0.f, 1, f},
  };
  ep.vertex_outputs = {{1, static_cast<std::uint8_t>(ReduceFn::Sum), f, 0,
                        false, false, false}};
  ep.num_regs = 4;
  ep.reg_width = {f, f, f, f};
  const CoreBinding cb = match_core(ep);
  Outputs o = make_outputs(g, ep);
  const bench::Measurement fused = time_program(
      g, pc, o, opt.specialize ? &cb : nullptr, reps);
  report.row(wl, "fused", fused, unfused,
             "\"core\": \"" +
                 (cb.specialized() ? cb.label() : std::string("interpreter")) +
                 "\"");
}

// --- dense rows: the tile-parallel GEMM against the naive loop --------------

/// The dense contract as a loop: one chain `acc = acc + a*b` per output
/// element over ascending k (tensor/ops.h). op(A) is A or Aᵀ.
void naive_matmul(const Tensor& a, const Tensor& b, Tensor& c, bool trans_a) {
  const std::int64_t k = trans_a ? a.rows() : a.cols();
  for (std::int64_t i = 0; i < c.rows(); ++i) {
    for (std::int64_t j = 0; j < c.cols(); ++j) {
      float acc = 0.f;
      for (std::int64_t p = 0; p < k; ++p) {
        const float av = trans_a ? a.row(p)[i] : a.row(i)[p];
        acc = acc + av * b.row(p)[j];
      }
      c.row(i)[j] = acc;
    }
  }
}

/// One Linear (C = X·W) or weight-gradient (C = Xᵀ·G) shape, m x n over k:
/// a naive-loop baseline row and a row through the engine kernel, which must
/// give the same bits. Both rows report GFLOP/s.
void run_dense(bench::JsonReport& report, const std::string& name,
               std::int64_t m, std::int64_t n, std::int64_t k, bool wgrad,
               int reps) {
  Rng rng(5);
  const Tensor a = wgrad ? Tensor::randn(k, m, rng) : Tensor::randn(m, k, rng);
  const Tensor b = Tensor::randn(k, n, rng);
  Tensor want(m, n);
  Tensor got(m, n);
  const bench::Measurement naive =
      time_fn([&] { naive_matmul(a, b, want, wgrad); }, reps);
  const bench::Measurement tiled = time_fn(
      [&] {
        if (wgrad) {
          kernels::linear_wgrad(a, b, got, 0, 0);
        } else {
          kernels::linear(a, b, got, 0, 0);
        }
      },
      reps);
  if (std::memcmp(want.data(), got.data(), want.bytes()) != 0) {
    std::fprintf(stderr, "FATAL: dense/%s differs from the naive loop\n",
                 name.c_str());
    std::exit(1);
  }
  const auto gflops = [&](const bench::Measurement& t) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "\"gflops\": %.3f",
                  2.0 * static_cast<double>(m * n * k) / t.seconds / 1e9);
    return std::string(buf);
  };
  report.row("dense/" + name, "naive", naive, naive, gflops(naive));
  report.row("dense/" + name, "tiled", tiled, naive,
             gflops(tiled) + ", \"bit_identical\": true");
}

int run(int argc, char** argv) {
  bench::Options opt = bench::Options::parse(argc, argv);
  const int reps = std::max(3, opt.steps * 3);

  Rng grng(7);
  const Graph g = gen::erdos_renyi(4096, 65536, grng);
  std::printf("graph: |V|=%lld |E|=%lld (erdos-renyi), reps=%d%s\n",
              static_cast<long long>(g.num_vertices()),
              static_cast<long long>(g.num_edges()), reps,
              opt.specialize ? "" : ", cores disabled (--no-specialize)");

  bench::print_header("micro kernels: interpreter vs specialized cores",
                      "per-shape EdgeProgram; speedup is interpreter/this; "
                      "specialized rows are bit-identity-checked");
  bench::JsonReport report("micro_kernels", opt);

  Rng rng(11);
  for (const std::int64_t w : {std::int64_t{16}, std::int64_t{64}}) {
    run_case(report, g, build_gcn_wsum(g, w, rng), w, opt, reps);
  }
  // Odd width: no 16/32/64 template instantiation — exercises the
  // runtime-width fallback core ("gcn_wsum/dyn" in the JSON core field).
  run_case(report, g, build_gcn_wsum(g, 48, rng), 48, opt, reps);
  for (const std::int64_t w : {std::int64_t{16}, std::int64_t{64}}) {
    run_case(report, g, build_edgeconv_max(g, w, rng), w, opt, reps);
  }
  for (const std::int64_t f : {std::int64_t{16}, std::int64_t{64}}) {
    run_case(report, g, build_gat_softmax(g, 4, f, rng), f, opt, reps);
  }
  for (const std::int64_t f : {std::int64_t{16}, std::int64_t{64}}) {
    run_case(report, g, build_monet_gauss(g, 4, f, rng), f, opt, reps);
  }

  // Training shapes: the gradient programs the optimizer emits under
  // training=true, plus the edge-balanced fold. Backward rows charge the
  // specialized_bwd/interpreted_bwd counter slots.
  for (const std::int64_t w : {std::int64_t{16}, std::int64_t{64}}) {
    run_case(report, g, build_maxbwd_gather(g, w, rng), w, opt, reps);
  }
  run_case(report, g, build_maxbwd_gather(g, 48, rng), 48, opt, reps);  // dyn
  // Realistic head counts only: the matcher refuses h > 8, where replaying
  // the chain in the combine would cost more than the stash it elides.
  for (const std::int64_t h :
       {std::int64_t{2}, std::int64_t{4}, std::int64_t{8}}) {
    run_case(report, g, build_gat_scorebwd(g, h, rng), h, opt, reps);
  }
  // GAT's attention backward at the benchmark GAT's two layer shapes: 4
  // heads x 16 (the w16 template) and the 1-head x 8 classifier (dyn).
  run_case(report, g, build_gat_attnbwd(g, 4, 16, rng), 16, opt, reps);
  run_case(report, g, build_gat_attnbwd(g, 1, 8, rng), 8, opt, reps);
  for (const std::int64_t f : {std::int64_t{16}, std::int64_t{64}}) {
    run_case(report, g, build_gauss_bwd(g, 2, f, rng), f, opt, reps);
  }
  for (const std::int64_t w : {std::int64_t{16}, std::int64_t{64}}) {
    run_case(report, g, build_sum_eb(g, w, rng), w, opt, reps);
  }
  run_case(report, g, build_sum_eb(g, 48, rng), 48, opt, reps);  // dyn

  // Dense shapes of the benchmark workloads: EdgeConv's layer-3 Linear
  // (2048 points, 128 -> 256) and its weight gradient, and GAT's attention
  // projection weight gradient (64 -> 4 over 2^14 vertices).
  run_dense(report, "edgeconv_linear_2048x128x256", 2048, 256, 128, false, reps);
  run_dense(report, "edgeconv_wgrad_128x256_k2048", 128, 256, 2048, true, reps);
  run_dense(report, "gat_attn_wgrad_64x4_k16384", 64, 4, 16384, true, reps);

  run_gather_mapping(report, g, 16, reps);
  run_gather_mapping(report, g, 64, reps);
  run_fusion_pair(report, g, 64, opt, reps);

  bench::print_footnote(opt);
  report.write();
  return 0;
}

}  // namespace
}  // namespace triad

int main(int argc, char** argv) { return triad::run(argc, argv); }
