// Tests for the typed front-end (src/api): build-time diagnostics,
// builder-vs-module bit-identity, hierarchical parameter naming, and the
// Engine entry point.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "api/triad.h"
#include "graph/generators.h"
#include "tensor/ops.h"

namespace triad {
namespace {

using api::Value;

Graph test_graph() {
  Rng rng(101);
  return gen::erdos_renyi(24, 120, rng);
}

/// Expects `fn()` to throw triad::Error whose message contains every
/// fragment — the "diagnostics are actionable" contract.
template <typename Fn>
void expect_error_containing(Fn&& fn, std::initializer_list<const char*> frags) {
  try {
    fn();
    FAIL() << "expected triad::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    for (const char* frag : frags) {
      EXPECT_NE(what.find(frag), std::string::npos)
          << "message missing '" << frag << "': " << what;
    }
  }
}

// --- build-time diagnostics --------------------------------------------------

TEST(ApiDiagnostics, VertexOpFedEdgeSpaceValue) {
  api::GraphBuilder g;
  const Value x = g.features(8);
  const Value e = api::copy_u(x, "msg");  // edge-space
  // A scatter consumes vertex-space values; feeding it the edge-space 'msg'
  // must fail at build time, naming the op and the offending value.
  expect_error_containing([&] { api::copy_u(e); },
                          {"scatter(copy_u)", "vertex-space", "msg"});
  // Same for the edge->vertex direction: gather eats edge-space only.
  expect_error_containing([&] { api::gather_sum(x); },
                          {"gather(sum)", "edge-space", "features"});
}

TEST(ApiDiagnostics, WidthMismatchInApplyBinary) {
  api::GraphBuilder g;
  const Value x = g.features(8);
  const Value w = g.param(8, 4, "W", Tensor::zeros(8, 4, MemTag::kWeights));
  const Value a = api::linear(x, w, 0, 0, "proj4");
  expect_error_containing([&] { api::add(x, a); },
                          {"add", "widths differ", "features", "proj4"});
  expect_error_containing([&] { x* a; }, {"mul", "widths differ"});
}

TEST(ApiDiagnostics, ValueFromDifferentGraph) {
  api::GraphBuilder g1;
  api::GraphBuilder g2;
  const Value a = g1.features(4);
  const Value b = g2.features(4);
  expect_error_containing([&] { api::u_add_v(a, b); },
                          {"scatter(u_add_v)", "different graphs"});
  expect_error_containing([&] { api::add(a, b); }, {"different graphs"});
}

TEST(ApiDiagnostics, UndefinedValueRejected) {
  api::GraphBuilder g;
  const Value x = g.features(4);
  expect_error_containing([&] { api::add(x, Value()); }, {"undefined"});
  expect_error_containing([&] { api::u_add_v(x, Value()); },
                          {"scatter(u_add_v)", "undefined"});
}

TEST(ApiDiagnostics, LinearChecksWeightAndWindow) {
  api::GraphBuilder g;
  const Value x = g.features(8);
  const Value w = g.param(6, 4, "W", Tensor::zeros(6, 4, MemTag::kWeights));
  expect_error_containing([&] { api::linear(x, w); },
                          {"linear", "does not match", "W"});
  expect_error_containing([&] { api::linear(x, w, 0, 99); },
                          {"linear", "row window", "out of range"});
  expect_error_containing([&] { api::linear(x, x); },
                          {"linear", "param-space", "features"});
}

TEST(ApiDiagnostics, HeadOpsValidateHeadCounts) {
  api::GraphBuilder g;
  const Value x = g.features(8);
  const Value e = api::copy_u(x);
  const Value s = api::u_dot_v(x, x, 2, "scores");  // Ex2
  expect_error_containing([&] { api::mul_head(e, s, 4); },
                          {"mul_head", "heads=4", "scores"});
  expect_error_containing([&] { api::head_sum(x, 3, 1.f); },
                          {"head_sum", "not divisible", "heads=3"});
}

TEST(ApiDiagnostics, OpsAfterFinishAreRejectedByName) {
  api::GraphBuilder g;
  const Value x = g.features(4);
  const ModelGraph m = g.finish(x);
  EXPECT_GE(m.output, 0);
  expect_error_containing([&] { api::relu(x); }, {"ReLU", "finished"});
  expect_error_containing([&] { api::copy_u(x); },
                          {"scatter(copy_u)", "finished"});
  expect_error_containing([&] { g.features(4); }, {"finished"});
}

TEST(ApiDiagnostics, MixedSpaceElementwise) {
  api::GraphBuilder g;
  const Value x = g.features(8);
  const Value e = api::copy_u(x, "msg");
  expect_error_containing([&] { api::add(x, e); },
                          {"add", "different spaces", "features", "msg"});
}

// --- builder-vs-module bit-identity ------------------------------------------

std::string compiled_dump(ModelGraph m, const Strategy& s, bool training,
                          const Graph& g) {
  const Compiled c = compile_model(std::move(m), s, training, g);
  return c.ir.dump();
}

/// The legacy build_* shims and the api:: modules must produce bit-identical
/// IR all the way through the pass pipeline, under the full strategy and the
/// no-op strategy, with bitwise-equal parameter init.
template <typename ModuleT, typename Cfg>
void expect_bit_identity(const Cfg& cfg) {
  const Graph g = test_graph();
  Rng r1(7);
  Rng r2(7);
  const ModuleT module(cfg);
  ModelGraph legacy = ModuleT(cfg).build(r1);  // what the shim does
  ModelGraph direct = module.build(r2);
  ASSERT_EQ(legacy.ir.dump(), direct.ir.dump());
  ASSERT_EQ(legacy.init.size(), direct.init.size());
  for (std::size_t i = 0; i < legacy.init.size(); ++i) {
    EXPECT_EQ(ops::max_abs_diff(legacy.init[i], direct.init[i]), 0.f);
  }
  for (const Strategy& s : {ours(), naive()}) {
    for (const bool training : {false, true}) {
      Rng r3(7);
      Rng r4(7);
      ModelGraph via_shim = [&] {
        if constexpr (std::is_same_v<ModuleT, api::Gcn>) return build_gcn(cfg, r3);
        else if constexpr (std::is_same_v<ModuleT, api::Gat>) return build_gat(cfg, r3);
        else if constexpr (std::is_same_v<ModuleT, api::EdgeConv>) return build_edgeconv(cfg, r3);
        else return build_monet(cfg, r3);
      }();
      EXPECT_EQ(compiled_dump(std::move(via_shim), s, training, g),
                compiled_dump(module.build(r4), s, training, g))
          << "strategy=" << s.name << " training=" << training;
    }
  }
}

TEST(ApiBitIdentity, Gcn) {
  GcnConfig cfg;
  cfg.in_dim = 8;
  cfg.hidden = {16};
  cfg.num_classes = 5;
  expect_bit_identity<api::Gcn>(cfg);
}

TEST(ApiBitIdentity, Gat) {
  GatConfig cfg;
  cfg.in_dim = 8;
  cfg.hidden = 16;
  cfg.heads = 2;
  cfg.layers = 2;
  cfg.num_classes = 3;
  expect_bit_identity<api::Gat>(cfg);
  cfg.prereorganized = true;
  cfg.builtin_softmax = true;
  expect_bit_identity<api::Gat>(cfg);
}

TEST(ApiBitIdentity, EdgeConv) {
  EdgeConvConfig cfg;
  cfg.in_dim = 3;
  cfg.hidden = {16, 16};
  cfg.num_classes = 10;
  expect_bit_identity<api::EdgeConv>(cfg);
}

TEST(ApiBitIdentity, MoNet) {
  MoNetConfig cfg;
  cfg.in_dim = 8;
  cfg.hidden = 16;
  cfg.layers = 2;
  cfg.kernels = 2;
  cfg.pseudo_dim = 2;
  cfg.num_classes = 4;
  expect_bit_identity<api::MoNet>(cfg);
}

/// Frozen pre-refactor reference: the GCN builder exactly as models.cc
/// shipped it before the module migration (raw IrGraph calls, legacy flat
/// names). The module must reproduce its structure node for node; only the
/// debug names changed ("W0" -> "layer0.W"), which a name-stripped dump
/// makes explicit.
ModelGraph frozen_legacy_gcn(const GcnConfig& cfg, Rng& rng) {
  ModelGraph m;
  m.features = m.ir.input(Space::Vertex, 0, cfg.in_dim, "features");
  std::int64_t f_in = cfg.in_dim;
  int h = m.features;
  std::vector<std::int64_t> dims = cfg.hidden;
  dims.push_back(cfg.num_classes);
  for (std::size_t l = 0; l < dims.size(); ++l) {
    const std::int64_t f_out = dims[l];
    const std::string suffix = std::to_string(l);
    const int w = m.ir.param(f_in, f_out, "W" + suffix);
    m.params.push_back(w);
    m.init.push_back(Tensor::xavier(f_in, f_out, rng));
    const int b = m.ir.param(1, f_out, "b" + suffix);
    m.params.push_back(b);
    m.init.push_back(Tensor::zeros(1, f_out, MemTag::kWeights));
    const int proj = m.ir.linear(h, w, 0, 0, "proj" + suffix);
    const int msg = m.ir.scatter(ScatterFn::CopyU, proj, -1, "msg" + suffix);
    const int agg = m.ir.gather(ReduceFn::Sum, msg, false, "agg" + suffix);
    h = m.ir.bias(agg, b, "bias" + suffix);
    if (l + 1 < dims.size()) {
      h = m.ir.apply_unary(ApplyFn::ReLU, h, 0.f, "relu" + suffix);
    }
    f_in = f_out;
  }
  m.output = h;
  m.ir.mark_output(h);
  return m;
}

std::string structural_dump(const IrGraph& ir) {
  IrGraph copy = ir;
  for (int i = 0; i < copy.size(); ++i) copy.node_mut(i).name.clear();
  return copy.dump();
}

TEST(ApiBitIdentity, ModuleMatchesFrozenLegacyGcn) {
  GcnConfig cfg;
  cfg.in_dim = 8;
  cfg.hidden = {16, 8};
  cfg.num_classes = 5;
  Rng r1(7);
  Rng r2(7);
  const ModelGraph frozen = frozen_legacy_gcn(cfg, r1);
  const ModelGraph module = api::Gcn(cfg).build(r2);
  EXPECT_EQ(structural_dump(frozen.ir), structural_dump(module.ir));
  EXPECT_EQ(frozen.params.size(), module.params.size());
  EXPECT_EQ(frozen.features, module.features);
  EXPECT_EQ(frozen.output, module.output);
  ASSERT_EQ(frozen.init.size(), module.init.size());
  for (std::size_t i = 0; i < frozen.init.size(); ++i) {
    EXPECT_EQ(ops::max_abs_diff(frozen.init[i], module.init[i]), 0.f);
  }
}

// --- hierarchical naming -----------------------------------------------------

TEST(ApiNaming, NamedModuleScopesParameters) {
  GatConfig cfg;
  cfg.in_dim = 4;
  cfg.hidden = 8;
  cfg.heads = 2;
  cfg.layers = 2;
  cfg.num_classes = 3;
  cfg.prereorganized = true;
  Rng rng(3);
  const ModelGraph m = api::Gat(cfg, "gat").build(rng);
  std::vector<std::string> param_names;
  for (int p : m.params) param_names.push_back(m.ir.node(p).name);
  EXPECT_EQ(param_names[0], "gat.layer0.W");
  EXPECT_EQ(param_names[1], "gat.layer0.A");
  EXPECT_EQ(param_names[3], "gat.layer1.W");
  // Scoped op names too: the issue's canonical example.
  bool found_aL = false;
  for (const Node& n : m.ir.nodes()) found_aL |= n.name == "gat.layer0.aL";
  EXPECT_TRUE(found_aL);
  // Inputs stay at root scope — the harness binds them by name.
  EXPECT_EQ(m.ir.node(m.features).name, "features");
}

TEST(ApiNaming, ModulesComposeAsSubmodules) {
  // A custom module nesting two stock modules: parameters of each child are
  // scoped by the child's name.
  class TwoTower final : public api::Module {
   public:
    TwoTower() : Module("tower") {}
    std::string signature() const override { return "twotower"; }
    std::int64_t in_dim() const override { return 6; }
    Value forward(api::GraphBuilder& g, const Value& features,
                  const Value& pseudo) const override {
      GcnConfig cfg;
      cfg.in_dim = 6;
      cfg.hidden = {};
      cfg.num_classes = 4;
      const api::Gcn left(cfg, "left");
      const api::Gcn right(cfg, "right");
      // Sequence the towers explicitly: node order (and therefore Rng draw
      // order) must not depend on argument evaluation order.
      const Value l = left(g, features, pseudo);
      const Value r = right(g, features, pseudo);
      return api::add(l, r, "combine");
    }
  };
  Rng rng(3);
  const ModelGraph m = TwoTower().build(rng);
  std::vector<std::string> names;
  for (int p : m.params) names.push_back(m.ir.node(p).name);
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[0], "tower.left.layer0.W");
  EXPECT_EQ(names[2], "tower.right.layer0.W");
}

// --- Engine ------------------------------------------------------------------

TEST(ApiEngine, TrainerMatchesLegacyPath) {
  const Graph g = test_graph();
  Rng rng(5);
  Tensor features = Tensor::randn(g.num_vertices(), 8, rng);
  IntTensor labels(g.num_vertices(), 1);
  for (std::int64_t v = 0; v < g.num_vertices(); ++v) {
    labels.at(v, 0) = static_cast<std::int32_t>(v % 5);
  }
  GcnConfig cfg;
  cfg.in_dim = 8;
  cfg.hidden = {16};
  cfg.num_classes = 5;

  // Legacy spelling.
  Rng mrng(1234);
  Compiled legacy = compile_model(build_gcn(cfg, mrng), ours(), true, g);
  Trainer t_legacy(std::move(legacy), g, features.clone());

  // Engine spelling (same init seed).
  api::CompileOptions opts;
  opts.strategy = ours();
  opts.init_seed = 1234;
  const api::Model model =
      api::Engine(opts).compile(std::make_shared<api::Gcn>(cfg));
  Trainer t_engine = model.trainer(g, features.clone());

  for (int step = 0; step < 3; ++step) {
    const float l1 = t_legacy.train_step(labels, 0.05f).loss;
    const float l2 = t_engine.train_step(labels, 0.05f).loss;
    EXPECT_EQ(l1, l2) << "step " << step;
  }
  EXPECT_EQ(ops::max_abs_diff(t_legacy.logits(), t_engine.logits()), 0.f);
}

TEST(ApiEngine, PlanCacheRoundTrip) {
  const Graph g = test_graph();
  GcnConfig cfg;
  cfg.in_dim = 8;
  cfg.hidden = {16};
  cfg.num_classes = 5;
  api::CompileOptions opts;
  opts.use_plan_cache = true;
  const api::Model model =
      api::Engine(opts).compile(std::make_shared<api::Gcn>(cfg));
  const auto c1 = model.compiled(g, /*training=*/true);
  const auto c2 = model.compiled(g, /*training=*/true);
  EXPECT_EQ(c1.get(), c2.get());  // same shared artifact, no recompile
  // A fresh Model with the same key shares through the global cache.
  const api::Model twin =
      api::Engine(opts).compile(std::make_shared<api::Gcn>(cfg));
  EXPECT_EQ(c1.get(), twin.compiled(g, true).get());
  // A different init seed carries different weights: never alias.
  api::CompileOptions reseeded = opts;
  reseeded.init_seed = opts.init_seed + 1;
  const api::Model other_weights =
      api::Engine(reseeded).compile(std::make_shared<api::Gcn>(cfg));
  EXPECT_NE(c1.get(), other_weights.compiled(g, true).get());
  // A different shard count is a different artifact.
  api::CompileOptions sharded = opts;
  sharded.shards = 2;
  const api::Model model2 =
      api::Engine(sharded).compile(std::make_shared<api::Gcn>(cfg));
  const auto c3 = model2.compiled(g, /*training=*/true);
  EXPECT_NE(c1.get(), c3.get());
  ASSERT_NE(c3->partition, nullptr);
  EXPECT_EQ(c3->partition->num_shards(), 2);
  // …and so is the same K under a different partition strategy.
  api::CompileOptions vrange = sharded;
  vrange.partition = PartitionStrategy::VertexRange;
  const api::Model model3 =
      api::Engine(vrange).compile(std::make_shared<api::Gcn>(cfg));
  const auto c4 = model3.compiled(g, /*training=*/true);
  EXPECT_NE(c3.get(), c4.get());
  EXPECT_EQ(c4->partition->strategy(), PartitionStrategy::VertexRange);
  PlanCache::global().clear();
}

TEST(ApiEngine, ModelMemoizesWithoutGlobalCache) {
  const Graph g = test_graph();
  GcnConfig cfg;
  cfg.in_dim = 8;
  cfg.hidden = {16};
  cfg.num_classes = 5;
  const api::Model model =
      api::Engine().compile(std::make_shared<api::Gcn>(cfg));  // no PlanCache
  const auto c1 = model.compiled(g, /*training=*/true);
  const auto c2 = model.compiled(g, /*training=*/true);
  EXPECT_EQ(c1.get(), c2.get());  // one pipeline run, shared by both
  EXPECT_NE(c1.get(), model.compiled(g, /*training=*/false).get());
}

TEST(ApiEngine, ShardedArtifactsArePinnedToTopology) {
  // Two graphs with identical shape but different adjacency.
  Rng r1(101);
  Rng r2(202);
  const Graph g1 = gen::erdos_renyi(24, 120, r1);
  const Graph g2 = gen::erdos_renyi(24, 120, r2);
  ASSERT_EQ(g1.num_edges(), g2.num_edges());
  ASSERT_NE(g1.topology_fingerprint(), g2.topology_fingerprint());

  GcnConfig cfg;
  cfg.in_dim = 8;
  cfg.hidden = {16};
  cfg.num_classes = 5;
  // Unsharded plans are shape-specialized only: equal shapes share.
  const api::Model shapewise =
      api::Engine().compile(std::make_shared<api::Gcn>(cfg));
  EXPECT_EQ(shapewise.compiled(g1, true).get(),
            shapewise.compiled(g2, true).get());
  // A sharded plan bakes g1's Partitioning; g2 must get its own.
  const api::Model sharded =
      api::Engine({.shards = 2}).compile(std::make_shared<api::Gcn>(cfg));
  const auto s1 = sharded.compiled(g1, true);
  const auto s2 = sharded.compiled(g2, true);
  EXPECT_NE(s1.get(), s2.get());
  EXPECT_NE(s1->partition.get(), s2->partition.get());
}

TEST(ApiEngine, ShardedTrainerBitIdentical) {
  const Graph g = test_graph();
  Rng rng(5);
  Tensor features = Tensor::randn(g.num_vertices(), 8, rng);
  IntTensor labels(g.num_vertices(), 1);
  for (std::int64_t v = 0; v < g.num_vertices(); ++v) {
    labels.at(v, 0) = static_cast<std::int32_t>(v % 4);
  }
  GcnConfig cfg;
  cfg.in_dim = 8;
  cfg.hidden = {8};
  cfg.num_classes = 4;
  api::CompileOptions base;
  base.init_seed = 99;
  api::CompileOptions sharded = base;
  sharded.shards = 4;
  const auto module = std::make_shared<api::Gcn>(cfg);
  Trainer t1 = api::Engine(base).compile(module).trainer(g, features.clone());
  Trainer t4 = api::Engine(sharded).compile(module).trainer(g, features.clone());
  for (int step = 0; step < 2; ++step) {
    EXPECT_EQ(t1.train_step(labels, 0.05f).loss, t4.train_step(labels, 0.05f).loss);
  }
  EXPECT_EQ(ops::max_abs_diff(t1.logits(), t4.logits()), 0.f);
}

TEST(ApiEngine, HostServesModule) {
  GcnConfig cfg;
  cfg.in_dim = 4;
  cfg.hidden = {8};
  cfg.num_classes = 3;
  api::CompileOptions opts;
  opts.init_seed = 11;
  const api::Model model =
      api::Engine(opts).compile(std::make_shared<api::Gcn>(cfg));

  serve::ServingHost host({.workers = 1});
  serve::ModelOptions mo;
  mo.batch.max_batch = 4;
  const std::string name = model.register_with(host, mo);
  // The served identity pins the weights too: signature + init seed.
  EXPECT_EQ(name, model.cache_identity());
  EXPECT_NE(name.find(model.module().signature()), std::string::npos);

  Rng rng(21);
  std::vector<std::future<serve::InferenceResult>> futures;
  for (int i = 0; i < 4; ++i) {
    serve::InferenceRequest req;
    req.graph = std::make_shared<const Graph>(test_graph());
    req.features = Tensor::randn(req.graph->num_vertices(), 4, rng);
    futures.push_back(host.submit(name, std::move(req)));
  }
  for (auto& f : futures) {
    const serve::InferenceResult r = f.get();
    EXPECT_EQ(r.output.rows(), 24);
    EXPECT_EQ(r.output.cols(), 3);
  }
  host.shutdown();
  EXPECT_EQ(host.stats(name).completed, 4u);
  PlanCache::global().clear();
}

}  // namespace
}  // namespace triad
