// Tests for the EdgeProgram VM: hand-written programs against reference
// kernels, both thread mappings, multi-phase execution, atomics, and the
// boundary-stash elision rule.
#include <gtest/gtest.h>

#include <cstring>

#include "engine/kernels.h"
#include "engine/vm.h"
#include "graph/generators.h"
#include "ir/graph.h"
#include "support/counters.h"
#include "support/rng.h"
#include "tensor/ops.h"

namespace triad {
namespace {

struct Env {
  std::unordered_map<int, Tensor> tensors;
  std::unordered_map<int, Tensor> outs;
  std::unordered_map<int, IntTensor> auxes;

  VmBindings bindings() {
    VmBindings b;
    b.tensor = [this](int id) -> const Tensor& { return tensors.at(id); };
    b.aux = [this](int id) -> const IntTensor& { return auxes.at(id); };
    b.out = [this](int id) -> Tensor& { return outs.at(id); };
    b.out_aux = [this](int id) -> IntTensor& { return auxes[id]; };
    return b;
  }
};

EPInstr load(EPOp op, int dst, int tensor, std::int64_t w) {
  EPInstr i;
  i.op = op;
  i.dst = dst;
  i.tensor = tensor;
  i.width = w;
  return i;
}
EPInstr binop(EPOp op, int dst, int a, int b, std::int64_t w) {
  EPInstr i;
  i.op = op;
  i.dst = dst;
  i.a = a;
  i.b = b;
  i.width = w;
  return i;
}
EPInstr reduce(int a, int acc, std::int64_t w) {
  EPInstr i;
  i.op = EPOp::Reduce;
  i.a = a;
  i.acc = acc;
  i.width = w;
  return i;
}

TEST(Vm, FusedScatterGatherMatchesUnfused) {
  Rng rng(7);
  Graph g = gen::erdos_renyi(20, 120, rng);
  const std::int64_t f = 4;
  Env env;
  env.tensors.emplace(0, Tensor::randn(20, f, rng));
  env.outs.emplace(1, Tensor::zeros(20, f));

  // out[v] = sum over incoming e of (x[u] + x[v])
  EdgeProgram ep;
  ep.mapping = WorkMapping::VertexBalanced;
  ep.dst_major = true;
  ep.phases.resize(1);
  ep.phases[0].instrs = {load(EPOp::LoadU, 0, 0, f), load(EPOp::LoadV, 1, 0, f),
                         binop(EPOp::Add, 2, 0, 1, f), reduce(2, 0, f)};
  ep.vertex_outputs.push_back({1, static_cast<std::uint8_t>(ReduceFn::Sum), f,
                               0, false, false, false});
  ep.num_regs = 3;
  ep.reg_width = {f, f, f};
  run_edge_program(g, ep, env.bindings());

  // Reference: unfused scatter + gather.
  Tensor edge(g.num_edges(), f);
  kernels::scatter(g, ScatterFn::AddUV, env.tensors.at(0), &env.tensors.at(0),
                   edge, 1);
  Tensor ref(20, f);
  kernels::gather(g, ReduceFn::Sum, false, edge, ref, nullptr);
  EXPECT_LT(ops::max_abs_diff(env.outs.at(1), ref), 1e-4f);
}

TEST(Vm, EdgeBalancedMatchesVertexBalanced) {
  Rng rng(8);
  Graph g = gen::erdos_renyi(25, 200, rng);
  const std::int64_t f = 3;
  Env env;
  env.tensors.emplace(0, Tensor::randn(25, f, rng));

  EdgeProgram ep;
  ep.dst_major = true;
  ep.phases.resize(1);
  ep.phases[0].instrs = {load(EPOp::LoadU, 0, 0, f), reduce(0, 0, f)};
  ep.vertex_outputs.push_back({1, static_cast<std::uint8_t>(ReduceFn::Sum), f,
                               0, false, false, false});
  ep.num_regs = 1;
  ep.reg_width = {f};

  ep.mapping = WorkMapping::VertexBalanced;
  env.outs.emplace(1, Tensor::zeros(25, f));
  run_edge_program(g, ep, env.bindings());
  Tensor vertex_result = env.outs.at(1).clone();

  ep.mapping = WorkMapping::EdgeBalanced;
  ep.vertex_outputs[0].atomic = true;
  env.outs.at(1).fill(0.f);
  CounterScope scope;
  run_edge_program(g, ep, env.bindings());
  EXPECT_LT(ops::max_abs_diff(env.outs.at(1), vertex_result), 1e-3f);
  EXPECT_GT(scope.delta().atomic_ops, 0u);  // edge-balanced pays atomics
}

TEST(Vm, MultiPhaseEdgeSoftmax) {
  Rng rng(9);
  Graph g = gen::erdos_renyi(15, 90, rng);
  Env env;
  env.tensors.emplace(0, Tensor::randn(15, 1, rng));   // al
  env.tensors.emplace(1, Tensor::randn(15, 1, rng));   // ar
  env.outs.emplace(10, Tensor::zeros(15, 1));           // max
  env.outs.emplace(11, Tensor::zeros(15, 1));           // denom
  env.outs.emplace(12, Tensor::zeros(15, 1));           // sum of softmax per v

  // phase0: s = al[u]+ar[v]; reduce max
  // phase1: e = exp(s - max[v]); reduce sum -> denom
  // phase2: w = e / denom[v]; reduce sum -> should be 1.0 per vertex
  EdgeProgram ep;
  ep.mapping = WorkMapping::VertexBalanced;
  ep.dst_major = true;
  ep.phases.resize(3);
  ep.phases[0].instrs = {load(EPOp::LoadU, 0, 0, 1), load(EPOp::LoadV, 1, 1, 1),
                         binop(EPOp::Add, 2, 0, 1, 1), reduce(2, 0, 1)};
  ep.phases[1].instrs = {load(EPOp::LoadU, 0, 0, 1), load(EPOp::LoadV, 1, 1, 1),
                         binop(EPOp::Add, 2, 0, 1, 1),
                         load(EPOp::LoadAcc, 3, 10, 1),
                         binop(EPOp::Sub, 4, 2, 3, 1),
                         {EPOp::Exp, 5, 4, -1, -1, -1, -1, 0.f, 1, 1},
                         reduce(5, 1, 1)};
  ep.phases[2].instrs = {load(EPOp::LoadU, 0, 0, 1), load(EPOp::LoadV, 1, 1, 1),
                         binop(EPOp::Add, 2, 0, 1, 1),
                         load(EPOp::LoadAcc, 3, 10, 1),
                         binop(EPOp::Sub, 4, 2, 3, 1),
                         {EPOp::Exp, 5, 4, -1, -1, -1, -1, 0.f, 1, 1},
                         load(EPOp::LoadAcc, 6, 11, 1),
                         binop(EPOp::Div, 7, 5, 6, 1), reduce(7, 2, 1)};
  ep.vertex_outputs = {
      {10, static_cast<std::uint8_t>(ReduceFn::Max), 1, 0, false, false, false},
      {11, static_cast<std::uint8_t>(ReduceFn::Sum), 1, 1, false, false, false},
      {12, static_cast<std::uint8_t>(ReduceFn::Sum), 1, 2, false, false, false},
  };
  ep.num_regs = 8;
  ep.reg_width = {1, 1, 1, 1, 1, 1, 1, 1};
  run_edge_program(g, ep, env.bindings());

  for (std::int64_t v = 0; v < 15; ++v) {
    if (g.in_degree(v) > 0) {
      EXPECT_NEAR(env.outs.at(12).at(v, 0), 1.f, 1e-4f) << "vertex " << v;
    } else {
      EXPECT_FLOAT_EQ(env.outs.at(12).at(v, 0), 0.f);
    }
  }
}

TEST(Vm, CrossOrientationAtomicReduce) {
  Rng rng(10);
  Graph g = gen::erdos_renyi(18, 100, rng);
  const std::int64_t f = 2;
  Env env;
  env.tensors.emplace(0, Tensor::randn(g.num_edges(), f, rng));  // edge feat
  env.outs.emplace(1, Tensor::zeros(18, f));  // reduce to dst (sequential)
  env.outs.emplace(2, Tensor::zeros(18, f));  // reduce to src (atomic)

  EdgeProgram ep;
  ep.mapping = WorkMapping::VertexBalanced;
  ep.dst_major = true;
  ep.phases.resize(1);
  ep.phases[0].instrs = {load(EPOp::LoadE, 0, 0, f), reduce(0, 0, f),
                         reduce(0, 1, f)};
  ep.vertex_outputs = {
      {1, static_cast<std::uint8_t>(ReduceFn::Sum), f, 0, false, false, false},
      {2, static_cast<std::uint8_t>(ReduceFn::Sum), f, 0, true, true, false},
  };
  ep.num_regs = 1;
  ep.reg_width = {f};
  run_edge_program(g, ep, env.bindings());

  Tensor ref_dst(18, f), ref_src(18, f);
  kernels::gather(g, ReduceFn::Sum, false, env.tensors.at(0), ref_dst, nullptr);
  kernels::gather(g, ReduceFn::Sum, true, env.tensors.at(0), ref_src, nullptr);
  EXPECT_LT(ops::max_abs_diff(env.outs.at(1), ref_dst), 1e-3f);
  EXPECT_LT(ops::max_abs_diff(env.outs.at(2), ref_src), 1e-3f);
}

TEST(Vm, MaxReduceTracksArgmaxAndMaxBwdMaskRoutes) {
  Rng rng(11);
  Graph g = gen::erdos_renyi(12, 70, rng);
  const std::int64_t f = 3;
  Env env;
  env.tensors.emplace(0, Tensor::randn(g.num_edges(), f, rng));
  env.outs.emplace(1, Tensor::zeros(12, f));
  env.auxes.emplace(1, IntTensor::zeros(12, f));

  EdgeProgram ep;
  ep.mapping = WorkMapping::VertexBalanced;
  ep.dst_major = true;
  ep.phases.resize(1);
  ep.phases[0].instrs = {load(EPOp::LoadE, 0, 0, f), reduce(0, 0, f)};
  ep.vertex_outputs = {
      {1, static_cast<std::uint8_t>(ReduceFn::Max), f, 0, false, false, true}};
  ep.num_regs = 1;
  ep.reg_width = {f};
  run_edge_program(g, ep, env.bindings());

  Tensor ref(12, f);
  IntTensor ref_arg(12, f);
  kernels::gather(g, ReduceFn::Max, false, env.tensors.at(0), ref, &ref_arg);
  EXPECT_LT(ops::max_abs_diff(env.outs.at(1), ref), 1e-4f);
  for (std::int64_t i = 0; i < ref_arg.numel(); ++i) {
    EXPECT_EQ(env.auxes.at(1).data()[i], ref_arg.data()[i]);
  }

  // Now a second program consuming the argmax via MaxBwdMask.
  Env env2;
  env2.tensors.emplace(5, Tensor::randn(12, f, rng));  // grad_v
  env2.auxes.emplace(1, std::move(env.auxes.at(1)));
  env2.outs.emplace(6, Tensor::zeros(12, f));
  EdgeProgram bp;
  bp.mapping = WorkMapping::VertexBalanced;
  bp.dst_major = true;
  bp.phases.resize(1);
  EPInstr mask;
  mask.op = EPOp::MaxBwdMask;
  mask.dst = 1;
  mask.a = 0;
  mask.tensor = 1;
  mask.width = f;
  bp.phases[0].instrs = {load(EPOp::LoadV, 0, 5, f), mask, reduce(1, 0, f)};
  bp.vertex_outputs = {
      {6, static_cast<std::uint8_t>(ReduceFn::Sum), f, 0, false, false, false}};
  bp.num_regs = 2;
  bp.reg_width = {f, f};
  run_edge_program(g, bp, env2.bindings());
  // Sum over winners per vertex == grad_v wherever the vertex has edges.
  for (std::int64_t v = 0; v < 12; ++v) {
    for (std::int64_t j = 0; j < f; ++j) {
      const float expect =
          g.in_degree(v) > 0 ? env2.tensors.at(5).at(v, j) : 0.f;
      EXPECT_NEAR(env2.outs.at(6).at(v, j), expect, 1e-4f);
    }
  }
}

TEST(Vm, MeanReduceDividesByDegree) {
  Graph g(3, {{0, 2}, {1, 2}});
  Env env;
  Tensor e(2, 1);
  e.at(0, 0) = 2.f;
  e.at(1, 0) = 4.f;
  env.tensors.emplace(0, std::move(e));
  env.outs.emplace(1, Tensor::zeros(3, 1));
  EdgeProgram ep;
  ep.mapping = WorkMapping::VertexBalanced;
  ep.dst_major = true;
  ep.phases.resize(1);
  ep.phases[0].instrs = {load(EPOp::LoadE, 0, 0, 1), reduce(0, 0, 1)};
  ep.vertex_outputs = {
      {1, static_cast<std::uint8_t>(ReduceFn::Mean), 1, 0, false, false, false}};
  ep.num_regs = 1;
  ep.reg_width = {1};
  run_edge_program(g, ep, env.bindings());
  EXPECT_FLOAT_EQ(env.outs.at(1).at(2, 0), 3.f);
}

TEST(Vm, FusionChargesLessIoThanUnfused) {
  Rng rng(12);
  Graph g = gen::erdos_renyi(50, 600, rng);
  const std::int64_t f = 8;
  Env env;
  env.tensors.emplace(0, Tensor::randn(50, f, rng));
  env.outs.emplace(1, Tensor::zeros(50, f));

  EdgeProgram ep;
  ep.mapping = WorkMapping::VertexBalanced;
  ep.dst_major = true;
  ep.phases.resize(1);
  ep.phases[0].instrs = {load(EPOp::LoadU, 0, 0, f), load(EPOp::LoadV, 1, 0, f),
                         binop(EPOp::Sub, 2, 0, 1, f),
                         {EPOp::ReLU, 3, 2, -1, -1, -1, -1, 0.f, 1, f},
                         reduce(3, 0, f)};
  ep.vertex_outputs = {
      {1, static_cast<std::uint8_t>(ReduceFn::Sum), f, 0, false, false, false}};
  ep.num_regs = 4;
  ep.reg_width = {f, f, f, f};

  CounterScope fused_scope;
  run_edge_program(g, ep, env.bindings());
  const auto fused = fused_scope.delta();

  CounterScope unfused_scope;
  Tensor e1(g.num_edges(), f), e2(g.num_edges(), f), out(50, f);
  kernels::scatter(g, ScatterFn::SubUV, env.tensors.at(0), &env.tensors.at(0),
                   e1, 1);
  kernels::apply_unary(ApplyFn::ReLU, e1, e2, 0.f);
  kernels::gather(g, ReduceFn::Sum, false, e2, out, nullptr);
  const auto unfused = unfused_scope.delta();

  EXPECT_LT(ops::max_abs_diff(env.outs.at(1), out), 1e-3f);
  EXPECT_LT(fused.io_bytes(), unfused.io_bytes());
  EXPECT_EQ(fused.kernel_launches, 1u);
  EXPECT_EQ(unfused.kernel_launches, 3u);
  EXPECT_GT(fused.onchip_bytes, 0u);
}


/// Dst-major walk with a reduce-to-src Sum: every edge contributes through
/// the boundary combine. `costly` adds arithmetic past the elision threshold
/// so the per-edge stash (not recompute) carries the contribution.
EdgeProgram boundary_program(std::int64_t f, bool costly) {
  EdgeProgram ep;
  ep.mapping = WorkMapping::VertexBalanced;
  ep.dst_major = true;
  ep.phases.resize(1);
  if (costly) {
    // ((x_u + x_v) * x_u) - x_v: 3 arithmetic ops -> stash, not recompute.
    ep.phases[0].instrs = {load(EPOp::LoadU, 0, 0, f),
                           load(EPOp::LoadV, 1, 0, f),
                           binop(EPOp::Add, 2, 0, 1, f),
                           binop(EPOp::Mul, 3, 2, 0, f),
                           binop(EPOp::Sub, 4, 3, 1, f),
                           reduce(4, 0, f)};
    ep.num_regs = 5;
    ep.reg_width = {f, f, f, f, f};
  } else {
    // x_u + x_v: cheap enough that the combine recomputes it per edge.
    ep.phases[0].instrs = {load(EPOp::LoadU, 0, 0, f),
                           load(EPOp::LoadV, 1, 0, f),
                           binop(EPOp::Add, 2, 0, 1, f), reduce(2, 0, f)};
    ep.num_regs = 3;
    ep.reg_width = {f, f, f};
  }
  ep.vertex_outputs.push_back({1, static_cast<std::uint8_t>(ReduceFn::Sum), f,
                               0, /*reverse=*/true, false, false});
  return ep;
}

Graph boundary_graph() {
  Rng rng(11);
  return gen::rmat(7, 1500, rng);  // 128 vertices, skewed degrees
}

TEST(Vm, StashElisionSavesBytesAndStaysExact) {
  Rng rng(13);
  const Graph g = boundary_graph();
  const std::int64_t n = g.num_vertices(), f = 4;
  const EdgeProgram ep = boundary_program(f, /*costly=*/false);
  Env env;
  env.tensors.emplace(0, Tensor::randn(n, f, rng));
  env.outs.emplace(1, Tensor::zeros(n, f));
  CounterScope scope;
  run_edge_program(g, ep, env.bindings());
  const PerfCounters d = scope.delta();
  // The one boundary output is cheap -> elided: the |E| x f stash is never
  // allocated and its bytes are reported as saved.
  EXPECT_EQ(d.boundary_stash_bytes, 0u);
  EXPECT_EQ(d.boundary_stash_saved_bytes,
            static_cast<std::uint64_t>(g.num_edges()) * f * sizeof(float));

  // Recompute must reproduce the exact fold: out[u] = sum over outgoing
  // edges (u, v) in out-CSC order of x_u + x_v.
  Tensor expect = Tensor::zeros(n, f);
  for (std::int64_t u = 0; u < n; ++u) {
    float* row = expect.row(u);
    const float* xu = env.tensors.at(0).row(u);
    for (std::int64_t i = g.out_ptr()[u]; i < g.out_ptr()[u + 1]; ++i) {
      const float* xv = env.tensors.at(0).row(g.out_dst()[i]);
      for (std::int64_t j = 0; j < f; ++j) row[j] += xu[j] + xv[j];
    }
  }
  const std::size_t bytes =
      static_cast<std::size_t>(expect.numel()) * sizeof(float);
  EXPECT_EQ(std::memcmp(expect.data(), env.outs.at(1).data(), bytes), 0)
      << "elided boundary sum differs bitwise";
}

TEST(Vm, CostlyBoundaryKeepsStash) {
  Rng rng(17);
  const Graph g = boundary_graph();
  const std::int64_t n = g.num_vertices(), f = 4;
  const EdgeProgram ep = boundary_program(f, /*costly=*/true);
  Env env;
  env.tensors.emplace(0, Tensor::randn(n, f, rng));
  env.outs.emplace(1, Tensor::zeros(n, f));
  CounterScope scope;
  run_edge_program(g, ep, env.bindings());
  const PerfCounters d = scope.delta();
  EXPECT_EQ(d.boundary_stash_bytes,
            static_cast<std::uint64_t>(g.num_edges()) * f * sizeof(float));
  EXPECT_EQ(d.boundary_stash_saved_bytes, 0u);
}

}  // namespace
}  // namespace triad
