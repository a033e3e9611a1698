// Kernel specialization (engine/specialize.h) correctness:
//  * bit-identity: for every stock model — fused or unfused, sharded or not,
//    template width or runtime-width fallback — the specialized cores produce
//    exactly the same logits and parameter gradients as the interpreter
//    (exact float equality, no tolerance);
//  * the matcher fires on the optimizer's post-fusion programs with the
//    expected core kind — forward shapes, the training backward shapes
//    (maxbwd_gather / gat_scorebwd / gat_attnbwd / gauss_bwd), and the
//    edge-balanced Sum gather (sum_eb) — and never fires when the strategy
//    disables it;
//  * any structural mutation of a matched program falls back to the
//    interpreter (kind == None) instead of binding a wrong core;
//  * PerfCounters splits specialized/interpreted edges by pass direction.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "baselines/strategy.h"
#include "engine/specialize.h"
#include "graph/generators.h"
#include "models/models.h"
#include "models/trainer.h"
#include "support/rng.h"
#include "tensor/ops.h"

namespace triad {
namespace {

Graph test_graph() {
  Rng rng(301);
  return gen::erdos_renyi(24, 150, rng);
}

struct RunResult {
  Tensor logits;
  std::vector<Tensor> grads;
};

void expect_exactly_equal(const Tensor& a, const Tensor& b,
                          const std::string& label) {
  ASSERT_EQ(a.rows(), b.rows()) << label;
  ASSERT_EQ(a.cols(), b.cols()) << label;
  EXPECT_EQ(ops::max_abs_diff(a, b), 0.f) << label;
}

/// Model factories parameterized on the hot width (the hidden dimension is
/// exactly what the core templates specialize on: full width for GCN and
/// EdgeConv, per-head width for GAT, per-kernel width for MoNet).
struct ModelCase {
  std::string name;
  std::function<ModelGraph(Rng&, std::int64_t)> build;
  std::int64_t in_dim = 0;
  bool pseudo = false;
};

std::vector<ModelCase> model_cases() {
  std::vector<ModelCase> cases;
  cases.push_back({"gcn",
                   [](Rng& rng, std::int64_t w) {
                     GcnConfig cfg;
                     cfg.in_dim = 8;
                     cfg.hidden = {w};
                     cfg.num_classes = 4;
                     return build_gcn(cfg, rng);
                   },
                   8, false});
  cases.push_back({"gat",
                   [](Rng& rng, std::int64_t w) {
                     GatConfig cfg;
                     cfg.in_dim = 10;
                     cfg.hidden = w;
                     cfg.heads = 2;
                     // Two layers: layer 0 runs 2 heads x w (the swept
                     // width), layer 1 is the 1-head classifier.
                     cfg.layers = 2;
                     cfg.num_classes = 4;
                     return build_gat(cfg, rng);
                   },
                   10, false});
  cases.push_back({"monet",
                   [](Rng& rng, std::int64_t w) {
                     MoNetConfig cfg;
                     cfg.in_dim = 6;
                     cfg.hidden = w;
                     cfg.kernels = 2;
                     cfg.pseudo_dim = 2;
                     cfg.num_classes = 3;
                     return build_monet(cfg, rng);
                   },
                   6, true});
  cases.push_back({"edgeconv",
                   [](Rng& rng, std::int64_t w) {
                     EdgeConvConfig cfg;
                     cfg.in_dim = 3;
                     cfg.hidden = {w};
                     cfg.num_classes = 5;
                     return build_edgeconv(cfg, rng);
                   },
                   3, false});
  return cases;
}

RunResult run_one(const ModelCase& mc, std::int64_t w, const Strategy& s,
                  const Graph& g, const Tensor& features, const Tensor& pseudo,
                  const IntTensor& labels, int shards) {
  Rng rng(4242);  // identical weights across strategies
  Compiled c = compile_model(mc.build(rng, w), s, /*training=*/true, g, shards);
  MemoryPool pool;
  Trainer trainer(std::move(c), g, features.clone(MemTag::kInput, &pool),
                  pseudo.defined() ? pseudo.clone(MemTag::kInput, &pool)
                                   : Tensor{},
                  &pool);
  trainer.train_step(labels, /*lr=*/0.f);
  RunResult r;
  r.logits = trainer.logits().clone();
  for (int gnode : trainer.model().param_grads) {
    r.grads.push_back(trainer.executor().result(gnode).clone());
  }
  return r;
}

// Specialized-on vs interpreter-only must agree bitwise for every model,
// fusion mode, shard count, and width — including 48, which no 16/32/64
// template covers and therefore exercises the runtime-width fallback cores.
TEST(Specialize, OnOffBitIdentical) {
  Graph g = test_graph();
  Rng drng(31);
  const auto cases = model_cases();
  IntTensor labels(g.num_vertices(), 1);
  for (std::int64_t v = 0; v < g.num_vertices(); ++v) {
    labels.at(v, 0) = static_cast<std::int32_t>(v % 3);
  }
  for (const ModelCase& mc : cases) {
    Tensor features = Tensor::randn(g.num_vertices(), mc.in_dim, drng);
    Tensor pseudo = mc.pseudo ? make_pseudo_coords(g, 2) : Tensor{};
    for (const std::int64_t w :
         {std::int64_t{16}, std::int64_t{32}, std::int64_t{64},
          std::int64_t{48}}) {
      for (const bool fused : {true, false}) {
        for (const int shards : {1, 4}) {
          Strategy on = fused ? ours() : ours_no_fusion();
          Strategy off = on;
          off.specialize = false;
          const RunResult a =
              run_one(mc, w, on, g, features, pseudo, labels, shards);
          const RunResult b =
              run_one(mc, w, off, g, features, pseudo, labels, shards);
          const std::string label = mc.name + "/w" + std::to_string(w) +
                                    (fused ? "/fused" : "/unfused") +
                                    "/K=" + std::to_string(shards);
          expect_exactly_equal(a.logits, b.logits, label + " logits");
          ASSERT_EQ(a.grads.size(), b.grads.size()) << label;
          for (std::size_t i = 0; i < a.grads.size(); ++i) {
            expect_exactly_equal(a.grads[i], b.grads[i],
                                 label + " grad " + std::to_string(i));
          }
        }
      }
    }
  }
}

// --- matcher fires on the real post-fusion programs -------------------------

int count_kind(const std::vector<CoreBinding>& cores, CoreKind kind) {
  int n = 0;
  for (const CoreBinding& cb : cores) n += cb.kind == kind ? 1 : 0;
  return n;
}

TEST(Specialize, MatcherSelectsExpectedCores) {
  Graph g = test_graph();
  const auto cases = model_cases();
  const CoreKind expected[] = {CoreKind::GcnWsum, CoreKind::GatSoftmax,
                               CoreKind::MoNetGauss, CoreKind::EdgeConvMax};
  for (std::size_t i = 0; i < cases.size(); ++i) {
    Rng rng(4242);
    Compiled c =
        compile_model(cases[i].build(rng, 16), ours(), /*training=*/false, g);
    ASSERT_NE(c.plan, nullptr);
    ASSERT_FALSE(c.plan->cores().empty()) << cases[i].name;
    EXPECT_GE(count_kind(c.plan->cores(), expected[i]), 1)
        << cases[i].name << " forward plan selected no "
        << to_string(expected[i]) << " core";
    // Forward plans of the stock models consist solely of matched shapes.
    EXPECT_EQ(count_kind(c.plan->cores(), CoreKind::None), 0) << cases[i].name;
  }
}

TEST(Specialize, TrainingPlansBindBackwardCores) {
  // The gradient programs fusion emits for the stock models have dedicated
  // backward cores: the EdgeConv argmax-replay gather, GAT's score gradient
  // and its two-phase attention-aggregation backward, and the MoNet store_e
  // stash shape. (The GCN gradient gather is structurally the forward
  // weighted sum and binds gcn_wsum.) Every program of the GAT training plan
  // binds a core: none of its steps is left to the interpreter.
  Graph g = test_graph();
  const auto cases = model_cases();  // gcn, gat, monet, edgeconv
  const std::vector<std::vector<CoreKind>> expected = {
      {CoreKind::GcnWsum},
      {CoreKind::GatScoreBwd, CoreKind::GatAttnBwd},
      {CoreKind::GaussBwd},
      {CoreKind::MaxBwdGather}};
  for (std::size_t i = 0; i < cases.size(); ++i) {
    Rng rng(4242);
    Compiled c =
        compile_model(cases[i].build(rng, 16), ours(), /*training=*/true, g);
    ASSERT_NE(c.plan, nullptr);
    for (const CoreKind kind : expected[i]) {
      EXPECT_GE(count_kind(c.plan->cores(), kind), 1)
          << cases[i].name << " training plan bound no " << to_string(kind)
          << " core";
    }
    if (cases[i].name == "gat") {
      EXPECT_EQ(count_kind(c.plan->cores(), CoreKind::None), 0)
          << "a GAT training program fell back to the interpreter";
    }
  }
}

TEST(Specialize, EdgeBalancedProgramsBindSumEbAndStayBitIdentical) {
  // Under the edge-balanced mapping preference the GCN gather compiles to a
  // single-phase atomic-Sum program; the interpreter realizes it as its
  // deterministic per-target combine, and the sum_eb core is that same fold.
  Graph g = test_graph();
  Rng drng(34);
  const auto cases = model_cases();
  Tensor features = Tensor::randn(g.num_vertices(), cases[0].in_dim, drng);
  IntTensor labels(g.num_vertices(), 1);
  for (std::int64_t v = 0; v < g.num_vertices(); ++v) {
    labels.at(v, 0) = static_cast<std::int32_t>(v % 3);
  }
  Strategy on = ours();
  on.mapping = WorkMapping::EdgeBalanced;
  {
    Rng rng(4242);
    Compiled c =
        compile_model(cases[0].build(rng, 16), on, /*training=*/true, g);
    ASSERT_NE(c.plan, nullptr);
    EXPECT_GE(count_kind(c.plan->cores(), CoreKind::SumEb), 1)
        << "edge-balanced GCN plan bound no sum_eb core";
  }
  Strategy off = on;
  off.specialize = false;
  for (const int shards : {1, 4}) {
    const RunResult a =
        run_one(cases[0], 16, on, g, features, Tensor{}, labels, shards);
    const RunResult b =
        run_one(cases[0], 16, off, g, features, Tensor{}, labels, shards);
    const std::string label = "gcn/eb/K=" + std::to_string(shards);
    expect_exactly_equal(a.logits, b.logits, label + " logits");
    ASSERT_EQ(a.grads.size(), b.grads.size()) << label;
    for (std::size_t i = 0; i < a.grads.size(); ++i) {
      expect_exactly_equal(a.grads[i], b.grads[i],
                           label + " grad " + std::to_string(i));
    }
  }
}

TEST(Specialize, DisabledStrategyBindsNothing) {
  Graph g = test_graph();
  Rng rng(4242);
  const auto cases = model_cases();
  Compiled c = compile_model(cases[0].build(rng, 16), ours_no_specialize(),
                             /*training=*/true, g);
  ASSERT_NE(c.plan, nullptr);
  for (const CoreBinding& cb : c.plan->cores()) {
    EXPECT_FALSE(cb.specialized());
  }
}

TEST(Specialize, CountersChargeSpecializedVsInterpreted) {
  Graph g = test_graph();
  Rng drng(32);
  const auto cases = model_cases();
  Tensor features = Tensor::randn(g.num_vertices(), cases[0].in_dim, drng);
  IntTensor labels(g.num_vertices(), 1);
  for (std::int64_t v = 0; v < g.num_vertices(); ++v)
    labels.at(v, 0) = static_cast<std::int32_t>(v % 3);
  auto edges_of = [&](const Strategy& s) {
    Rng rng(4242);
    Compiled c = compile_model(cases[0].build(rng, 16), s, false, g);
    MemoryPool pool;
    Trainer t(std::move(c), g, features.clone(MemTag::kInput, &pool), Tensor{},
              &pool);
    return t.forward(labels).counters;
  };
  const PerfCounters on = edges_of(ours());
  EXPECT_GT(on.specialized_edges(), 0u);
  EXPECT_EQ(on.interpreted_edges(), 0u);  // GCN forward: every program matches
  EXPECT_EQ(on.specialized_bwd_edges, 0u);  // forward-only run
  const PerfCounters off = edges_of(ours_no_specialize());
  EXPECT_EQ(off.specialized_edges(), 0u);
  EXPECT_GT(off.interpreted_edges(), 0u);
}

TEST(Specialize, CountersSplitForwardAndBackwardEdges) {
  // A full training step must charge the forward programs to the fwd slots
  // and the gradient programs to the bwd slots — under specialization and
  // under the interpreter alike.
  Graph g = test_graph();
  Rng drng(33);
  const auto cases = model_cases();
  Tensor features = Tensor::randn(g.num_vertices(), cases[0].in_dim, drng);
  IntTensor labels(g.num_vertices(), 1);
  for (std::int64_t v = 0; v < g.num_vertices(); ++v)
    labels.at(v, 0) = static_cast<std::int32_t>(v % 3);
  auto step_counters = [&](const Strategy& s) {
    Rng rng(4242);
    Compiled c = compile_model(cases[0].build(rng, 16), s, /*training=*/true, g);
    MemoryPool pool;
    Trainer t(std::move(c), g, features.clone(MemTag::kInput, &pool), Tensor{},
              &pool);
    return t.train_step(labels, /*lr=*/0.f).counters;
  };
  const PerfCounters on = step_counters(ours());
  EXPECT_GT(on.specialized_fwd_edges, 0u);
  EXPECT_GT(on.specialized_bwd_edges, 0u);  // the GCN gradient gather matches
  const PerfCounters off = step_counters(ours_no_specialize());
  EXPECT_EQ(off.specialized_edges(), 0u);
  EXPECT_GT(off.interpreted_fwd_edges, 0u);
  EXPECT_GT(off.interpreted_bwd_edges, 0u);
}

// --- structural mutations must fall back to the interpreter -----------------

/// The canonical GCN weighted-sum program (what fusion emits).
EdgeProgram gcn_program(std::int64_t f) {
  EdgeProgram ep;
  ep.phases.resize(1);
  ep.phases[0].instrs = {
      {EPOp::LoadU, 0, -1, -1, 0, -1, -1, 0.f, 1, f},
      {EPOp::Reduce, -1, 0, -1, -1, -1, 0, 0.f, 1, f},
  };
  ep.vertex_outputs = {{1, static_cast<std::uint8_t>(ReduceFn::Sum), f, 0,
                        false, false, false}};
  ep.num_regs = 1;
  ep.reg_width = {f};
  return ep;
}

TEST(Specialize, MatchesHandBuiltGcnShapeAtEveryWidth) {
  for (const auto& [w, tw] : std::vector<std::pair<std::int64_t, int>>{
           {16, 16}, {32, 32}, {64, 64}, {48, 0}}) {
    const CoreBinding cb = match_core(gcn_program(w));
    EXPECT_EQ(cb.kind, CoreKind::GcnWsum) << "w=" << w;
    EXPECT_EQ(cb.hot_width, w);
    EXPECT_EQ(cb.template_width, tw) << "w=" << w;
  }
  EXPECT_EQ(match_core(gcn_program(64)).label(), "gcn_wsum/w64");
  EXPECT_EQ(match_core(gcn_program(48)).label(), "gcn_wsum/dyn");
}

TEST(Specialize, MutatedProgramsFallBackToInterpreter) {
  // Edge-balanced mapping re-routes to the sum_eb matcher (same load/reduce
  // shape, realized as the deterministic combine fold), not the walk core.
  EdgeProgram m1 = gcn_program(16);
  m1.mapping = WorkMapping::EdgeBalanced;
  EXPECT_EQ(match_core(m1).kind, CoreKind::SumEb);

  // Cross-orientation (boundary-combine) reduction.
  EdgeProgram m2 = gcn_program(16);
  m2.vertex_outputs[0].reverse = true;
  EXPECT_EQ(match_core(m2).kind, CoreKind::None);

  // Materialized edge output (fusion-without-recompute stash).
  EdgeProgram m3 = gcn_program(16);
  m3.edge_outputs.push_back({2, 16});
  EXPECT_EQ(match_core(m3).kind, CoreKind::None);

  // Wrong reduction function for the shape.
  EdgeProgram m4 = gcn_program(16);
  m4.vertex_outputs[0].rfn = static_cast<std::uint8_t>(ReduceFn::Max);
  EXPECT_EQ(match_core(m4).kind, CoreKind::None);

  // Unexpected opcode in an otherwise matching sequence.
  EdgeProgram m5 = gcn_program(16);
  m5.phases[0].instrs[0].op = EPOp::LoadE;
  EXPECT_EQ(match_core(m5).kind, CoreKind::None);

  // Width mismatch between the loaded row and the reduction.
  EdgeProgram m6 = gcn_program(16);
  m6.phases[0].instrs[0].width = 8;
  EXPECT_EQ(match_core(m6).kind, CoreKind::None);
}

// --- backward and edge-balanced shapes: match + mutation fallback -----------

/// The EdgeConv gradient program: argmax-replay gather with a center-side
/// (sequential) and a neighbor-side (boundary) Sum.
EdgeProgram maxbwd_program(std::int64_t w) {
  EdgeProgram ep;
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
  return ep;
}

TEST(Specialize, MatchesMaxBwdGatherAndRecordsReduceRoles) {
  for (const auto& [w, tw] : std::vector<std::pair<std::int64_t, int>>{
           {64, 64}, {48, 0}}) {
    const CoreBinding cb = match_core(maxbwd_program(w));
    ASSERT_EQ(cb.kind, CoreKind::MaxBwdGather) << "w=" << w;
    EXPECT_EQ(cb.template_width, tw) << "w=" << w;
    EXPECT_EQ(cb.seq_out, 0);
    EXPECT_EQ(cb.boundary_out, 1);
    EXPECT_TRUE(cb.has_boundary());
  }
  EXPECT_EQ(match_core(maxbwd_program(64)).label(), "maxbwd_gather/w64");
}

TEST(Specialize, MutatedMaxBwdProgramsFallBack) {
  // Second reduce folds a different register than the mask.
  EdgeProgram m1 = maxbwd_program(16);
  m1.phases[0].instrs[3].a = 0;
  EXPECT_EQ(match_core(m1).kind, CoreKind::None);

  // Both reductions sequential: not the dual-reduce layout.
  EdgeProgram m2 = maxbwd_program(16);
  m2.vertex_outputs[1].reverse = false;
  EXPECT_EQ(match_core(m2).kind, CoreKind::None);

  // Boundary reduction is Max, which boundary combines don't support.
  EdgeProgram m3 = maxbwd_program(16);
  m3.vertex_outputs[1].rfn = static_cast<std::uint8_t>(ReduceFn::Max);
  EXPECT_EQ(match_core(m3).kind, CoreKind::None);

  // A materialized edge output disqualifies the shape.
  EdgeProgram m4 = maxbwd_program(16);
  m4.edge_outputs.push_back({4, 16});
  EXPECT_EQ(match_core(m4).kind, CoreKind::None);

  // Output widths disagree.
  EdgeProgram m5 = maxbwd_program(16);
  m5.vertex_outputs[1].width = 8;
  EXPECT_EQ(match_core(m5).kind, CoreKind::None);
}

/// The GAT score-gradient program: mask/sub/leaky_relu_grad chain, boundary
/// (src-side) reduce listed before the sequential (dst-side) one — the
/// matcher must record the roles by layout, not by position.
EdgeProgram gat_scorebwd_program(std::int64_t h) {
  EdgeProgram ep;
  ep.phases.resize(1);
  ep.phases[0].instrs = {
      {EPOp::LoadE, 0, -1, -1, 0, -1, -1, 0.f, 1, h},
      {EPOp::LoadV, 1, -1, -1, 1, -1, -1, 0.f, 1, h},
      {EPOp::MaxBwdMask, 2, 1, -1, 2, -1, -1, 0.f, 1, h},
      {EPOp::Sub, 3, 0, 2, -1, -1, -1, 0.f, 1, h},
      {EPOp::LoadE, 4, -1, -1, 3, -1, -1, 0.f, 1, h},
      {EPOp::LeakyReLUGrad, 5, 3, 4, -1, -1, -1, 0.2f, 1, h},
      {EPOp::Reduce, -1, 5, -1, -1, -1, 0, 0.f, 1, h},
      {EPOp::Reduce, -1, 5, -1, -1, -1, 1, 0.f, 1, h},
  };
  ep.vertex_outputs = {
      {6, static_cast<std::uint8_t>(ReduceFn::Sum), h, 0, true, true, false},
      {7, static_cast<std::uint8_t>(ReduceFn::Sum), h, 0, false, false, false}};
  ep.num_regs = 6;
  ep.reg_width = {h, h, h, h, h, h};
  return ep;
}

TEST(Specialize, MatchesGatScoreBwd) {
  const CoreBinding cb = match_core(gat_scorebwd_program(2));
  ASSERT_EQ(cb.kind, CoreKind::GatScoreBwd);
  EXPECT_EQ(cb.seq_out, 1);       // layout, not listing order
  EXPECT_EQ(cb.boundary_out, 0);
  EXPECT_EQ(cb.alpha, 0.2f);
  EXPECT_EQ(cb.label(), "gat_scorebwd/dyn");  // h=2 has no width template
}

TEST(Specialize, MutatedGatScoreBwdProgramsFallBack) {
  // Sub operands swapped: mask - eg is a different expression.
  EdgeProgram m1 = gat_scorebwd_program(2);
  std::swap(m1.phases[0].instrs[3].a, m1.phases[0].instrs[3].b);
  EXPECT_EQ(match_core(m1).kind, CoreKind::None);

  // Grad gate reads the masked value instead of the raw score.
  EdgeProgram m2 = gat_scorebwd_program(2);
  m2.phases[0].instrs[5].b = 2;
  EXPECT_EQ(match_core(m2).kind, CoreKind::None);

  // Plain LeakyReLU is not its own gradient.
  EdgeProgram m3 = gat_scorebwd_program(2);
  m3.phases[0].instrs[5].op = EPOp::LeakyReLU;
  EXPECT_EQ(match_core(m3).kind, CoreKind::None);

  // Wide head rows stay interpreted: the recompute combine loses to the
  // stash past h = 8 (measured on bench_micro_kernels).
  EXPECT_EQ(match_core(gat_scorebwd_program(16)).kind, CoreKind::None);
}

/// The GAT attention-aggregation backward program, as fusion emits it per
/// layer: h heads of f features. Tensors: 1 = a_l, 2 = a_r, 3 = upstream
/// gradient, 4 = softmax max, 5 = softmax sum, 6 = projected features.
/// Outputs: 7 = feature gradient (boundary), 8 / 9 = phase-0 / phase-1 sums,
/// edge outputs 10 = raw score, 11 = score gradient.
EdgeProgram gat_attnbwd_program(std::int64_t h, std::int64_t f) {
  const std::int64_t w = h * f;
  EdgeProgram ep;
  ep.phases.resize(2);
  ep.phases[0].instrs = {
      {EPOp::LoadU, 0, -1, -1, 1, -1, -1, 0.f, 1, h},
      {EPOp::LoadV, 1, -1, -1, 2, -1, -1, 0.f, 1, h},
      {EPOp::Add, 2, 0, 1, -1, -1, -1, 0.f, 1, h},
      {EPOp::StoreE, -1, 2, -1, 10, -1, -1, 0.f, 1, h},
      {EPOp::LoadV, 3, -1, -1, 3, -1, -1, 0.f, 1, w},
      {EPOp::LeakyReLU, 4, 2, -1, -1, -1, -1, 0.2f, 1, h},
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
      {EPOp::LeakyReLU, 25, 24, -1, -1, -1, -1, 0.2f, 1, h},
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
  return ep;
}

TEST(Specialize, MatchesGatAttnBwdAndRecordsRoles) {
  for (const auto& [h, f, tw] :
       std::vector<std::tuple<std::int64_t, std::int64_t, int>>{
           {4, 16, 16}, {2, 64, 64}, {1, 8, 0}}) {
    const CoreBinding cb = match_core(gat_attnbwd_program(h, f));
    ASSERT_EQ(cb.kind, CoreKind::GatAttnBwd) << "h=" << h << " f=" << f;
    EXPECT_EQ(cb.heads, h);
    EXPECT_EQ(cb.hot_width, f);  // per-head feature width
    EXPECT_EQ(cb.template_width, tw);
    EXPECT_EQ(cb.boundary_out, 0);  // the feature gradient, folded to src
    EXPECT_EQ(cb.seq_out, 1);       // phase-0 sum, read back by LoadAcc
    EXPECT_EQ(cb.seq_out2, 2);      // phase-1 sum
    EXPECT_EQ(cb.t_e0, 10);         // raw score
    EXPECT_EQ(cb.t_e1, 11);         // score gradient
    EXPECT_EQ(cb.t_feat, 6);
    EXPECT_EQ(cb.t_g, 3);
    EXPECT_EQ(cb.t_c, 4);  // max
    EXPECT_EQ(cb.t_d, 5);  // sum
    EXPECT_EQ(cb.alpha, 0.2f);
    EXPECT_TRUE(cb.has_boundary());
  }
  EXPECT_EQ(match_core(gat_attnbwd_program(4, 16)).label(), "gat_attnbwd/w16");
  EXPECT_EQ(match_core(gat_attnbwd_program(1, 8)).label(), "gat_attnbwd/dyn");
}

TEST(Specialize, MutatedGatAttnBwdProgramsFallBack) {
  // MulHead weights the gradient by the unnormalized exp, not exp / sum.
  EdgeProgram m1 = gat_attnbwd_program(4, 16);
  m1.phases[0].instrs[11].b = 7;
  EXPECT_EQ(match_core(m1).kind, CoreKind::None);

  // The phase-1 LoadAcc reads the phase-1 output instead of the phase-0 sum.
  EdgeProgram m2 = gat_attnbwd_program(4, 16);
  m2.phases[1].instrs[5].tensor = 9;
  EXPECT_EQ(match_core(m2).kind, CoreKind::None);

  // The feature gradient becomes a sequential (dst-side) reduction.
  EdgeProgram m3 = gat_attnbwd_program(4, 16);
  m3.vertex_outputs[0].reverse = false;
  EXPECT_EQ(match_core(m3).kind, CoreKind::None);

  // Phase-1 Sub operands swapped: acc1 - dot / sum is a different value.
  EdgeProgram m4 = gat_attnbwd_program(4, 16);
  std::swap(m4.phases[1].instrs[6].a, m4.phases[1].instrs[6].b);
  EXPECT_EQ(match_core(m4).kind, CoreKind::None);

  // A third edge output: the walk core writes exactly two.
  EdgeProgram m5 = gat_attnbwd_program(4, 16);
  m5.edge_outputs.push_back({12, 4});
  EXPECT_EQ(match_core(m5).kind, CoreKind::None);
}

/// The MoNet gradient program (src-major): gaussian weights and per-kernel
/// dots stashed to edge outputs plus a sequential weighted gather.
EdgeProgram gauss_bwd_program(std::int64_t k, std::int64_t f) {
  const std::int64_t w = k * f;
  EdgeProgram ep;
  ep.dst_major = false;
  ep.phases.resize(1);
  ep.phases[0].instrs = {
      {EPOp::LoadE, 0, -1, -1, 0, -1, -1, 0.f, 1, 2},
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
  ep.reg_width = {2, k, w, w, k, w};
  return ep;
}

TEST(Specialize, MatchesGaussBwd) {
  const CoreBinding cb = match_core(gauss_bwd_program(2, 64));
  ASSERT_EQ(cb.kind, CoreKind::GaussBwd);
  EXPECT_EQ(cb.heads, 2);
  EXPECT_EQ(cb.hot_width, 64);  // per-kernel feature width
  EXPECT_EQ(cb.template_width, 64);
  EXPECT_FALSE(cb.has_boundary());  // everything is center-side
  EXPECT_EQ(cb.label(), "gauss_bwd/w64");
}

TEST(Specialize, MutatedGaussBwdProgramsFallBack) {
  // A store targets a tensor that is not a declared edge output.
  EdgeProgram m1 = gauss_bwd_program(2, 16);
  m1.phases[0].instrs[2].tensor = 9;
  EXPECT_EQ(match_core(m1).kind, CoreKind::None);

  // The reduction becomes a boundary (combine would be required).
  EdgeProgram m2 = gauss_bwd_program(2, 16);
  m2.vertex_outputs[0].reverse = false;  // src-major: reverse IS sequential
  EXPECT_EQ(match_core(m2).kind, CoreKind::None);

  // MulHead weights by the dots instead of the gaussian weights.
  EdgeProgram m3 = gauss_bwd_program(2, 16);
  m3.phases[0].instrs[7].b = 4;
  EXPECT_EQ(match_core(m3).kind, CoreKind::None);

  // Head-count mismatch between Gauss and DotHead.
  EdgeProgram m4 = gauss_bwd_program(2, 16);
  m4.phases[0].instrs[5].heads = 4;
  EXPECT_EQ(match_core(m4).kind, CoreKind::None);
}

/// The edge-balanced Sum gather (gcn_program re-mapped), target side `rev`.
EdgeProgram sum_eb_program(std::int64_t w, bool rev) {
  EdgeProgram ep = gcn_program(w);
  ep.mapping = WorkMapping::EdgeBalanced;
  ep.vertex_outputs[0].atomic = true;
  if (rev) {
    ep.vertex_outputs[0].reverse = true;
    ep.phases[0].instrs[0].op = EPOp::LoadV;  // contributions from dst rows
  }
  return ep;
}

TEST(Specialize, MatchesSumEbBothOrientations) {
  for (const bool rev : {false, true}) {
    const CoreBinding cb = match_core(sum_eb_program(64, rev));
    ASSERT_EQ(cb.kind, CoreKind::SumEb) << "rev=" << rev;
    EXPECT_EQ(cb.template_width, 64);
    EXPECT_FALSE(cb.has_boundary());
  }
  EXPECT_EQ(match_core(sum_eb_program(64, false)).label(), "sum_eb/w64");
  EXPECT_EQ(match_core(sum_eb_program(48, false)).label(), "sum_eb/dyn");
}

TEST(Specialize, MutatedSumEbProgramsFallBack) {
  // Load reads the target endpoint instead of the contributing one.
  EdgeProgram m1 = sum_eb_program(16, false);
  m1.phases[0].instrs[0].op = EPOp::LoadV;
  EXPECT_EQ(match_core(m1).kind, CoreKind::None);

  // Two outputs: the single-fold core does not apply.
  EdgeProgram m2 = sum_eb_program(16, false);
  m2.vertex_outputs.push_back(m2.vertex_outputs[0]);
  EXPECT_EQ(match_core(m2).kind, CoreKind::None);

  // An edge output disqualifies the shape.
  EdgeProgram m3 = sum_eb_program(16, false);
  m3.edge_outputs.push_back({2, 16});
  EXPECT_EQ(match_core(m3).kind, CoreKind::None);

  // An extra arithmetic instruction breaks the pure-gather pattern.
  EdgeProgram m4 = sum_eb_program(16, false);
  m4.phases[0].instrs.insert(
      m4.phases[0].instrs.begin() + 1,
      EPInstr{EPOp::Neg, 1, 0, -1, -1, -1, -1, 0.f, 1, 16});
  m4.phases[0].instrs[2].a = 1;
  m4.num_regs = 2;
  m4.reg_width = {16, 16};
  EXPECT_EQ(match_core(m4).kind, CoreKind::None);
}

}  // namespace
}  // namespace triad
