// Tests for the compile-once/run-many split: ExecutionPlan precomputation,
// plan reuse across epochs (bit-identical to per-epoch recompilation, with
// compilation charged exactly once), concurrent PlanRunners sharing one
// plan, and the PlanCache.
#include <gtest/gtest.h>

#include <thread>
#include <utility>

#include "baselines/plan_cache.h"
#include "baselines/strategy.h"
#include "engine/plan.h"
#include "graph/generators.h"
#include "models/models.h"
#include "models/trainer.h"
#include "support/counters.h"
#include "tensor/ops.h"

namespace triad {
namespace {

// Small enough that every kernel loop stays under the parallel_for grain:
// runs are serial and therefore bit-reproducible.
Graph small_graph() {
  Rng rng(17);
  return gen::k_in_regular(64, 4, rng);
}

GcnConfig small_gcn() {
  GcnConfig cfg;
  cfg.in_dim = 8;
  cfg.hidden = {16};
  cfg.num_classes = 4;
  return cfg;
}

ModelGraph build_small_gcn() {
  Rng mrng(7);  // fixed seed: every build yields identical initial weights
  return build_gcn(small_gcn(), mrng);
}

Tensor make_features(const Graph& g, MemoryPool* pool) {
  Rng rng(3);
  return Tensor::randn(g.num_vertices(), 8, rng, 1.f, MemTag::kInput, pool);
}

IntTensor make_labels(const Graph& g) {
  IntTensor labels(g.num_vertices(), 1);
  for (std::int64_t v = 0; v < g.num_vertices(); ++v) {
    labels.at(v, 0) = static_cast<std::int32_t>(v % 4);
  }
  return labels;
}

TEST(ExecutionPlan, PrecomputesScheduleAndFreePoints) {
  IrGraph ir;
  const int x = ir.input(Space::Vertex, 0, 4, "x");
  const int a = ir.apply_unary(ApplyFn::ReLU, x);
  const int b = ir.apply_unary(ApplyFn::Neg, a);
  const int c = ir.apply_unary(ApplyFn::ReLU, b);
  ir.mark_output(c);
  ExecutionPlan plan = ExecutionPlan::compile(ir, 5, 0);

  EXPECT_EQ(plan.size(), 4);
  EXPECT_EQ(plan.forward_end(), 4);  // inference: no backward boundary
  EXPECT_EQ(plan.step(a).rows, 5);
  EXPECT_TRUE(plan.is_output(c));
  // `a` dies right after `b` consumes it; the bound input and the output
  // never appear in a free list.
  ASSERT_EQ(plan.step(b).free_after.size(), 1u);
  EXPECT_EQ(plan.step(b).free_after[0], a);
  for (int id = 0; id < plan.size(); ++id) {
    for (int f : plan.step(id).free_after) {
      EXPECT_NE(f, x);
      EXPECT_NE(f, c);
    }
  }
  // Peak estimate: input persists, at most two activations live at once.
  EXPECT_EQ(plan.persistent_bytes(), 5u * 4u * 4u);
  EXPECT_LE(plan.estimated_peak_bytes(), plan.persistent_bytes() + 2u * 5u * 4u * 4u);
}

/// The two benchmark training models at their benchmark widths, with the
/// input feature width each expects.
std::pair<ModelGraph, std::int64_t> bench_model(bool gat) {
  Rng mrng(7);
  if (gat) {
    GatConfig cfg;
    cfg.in_dim = 32;
    cfg.hidden = 16;
    cfg.heads = 4;
    cfg.layers = 2;
    cfg.num_classes = 8;
    return {build_gat(cfg, mrng), cfg.in_dim};
  }
  EdgeConvConfig cfg;
  cfg.in_dim = 3;
  cfg.hidden = {64, 64, 128, 256};
  cfg.num_classes = 40;
  return {build_edgeconv(cfg, mrng), cfg.in_dim};
}

// The peak estimate charges what the runtime allocates: a boundary stash only
// where the interpreter keeps one, none for a program bound to a core (its
// combine recomputes). Checked against the pool peak of real training steps
// — the first and the steady state, whose peak also holds the previous
// step's outputs — with cores on and off. Charging every boundary output a
// stash put the EdgeConv estimate at twice the measured peak.
TEST(ExecutionPlan, PeakEstimateTracksMeasuredTrainingPeak) {
  Rng grng(5);
  const Graph g = gen::rmat(11, 8192, grng);
  IntTensor labels(g.num_vertices(), 1);
  for (std::int64_t v = 0; v < g.num_vertices(); ++v) {
    labels.at(v, 0) = static_cast<std::int32_t>(v % 8);
  }
  for (const bool gat : {true, false}) {
    for (const bool specialize : {true, false}) {
      auto [model, in_dim] = bench_model(gat);
      Strategy s = ours();
      s.specialize = specialize;
      Compiled c = compile_model(std::move(model), s, /*training=*/true, g);
      const auto estimate = static_cast<double>(c.plan->estimated_peak_bytes());
      MemoryPool pool;
      Rng frng(9);
      Trainer t(std::move(c), g,
                Tensor::randn(g.num_vertices(), in_dim, frng, 1.f,
                              MemTag::kInput, &pool),
                Tensor{}, &pool);
      for (int step = 0; step < 2; ++step) {
        const auto peak =
            static_cast<double>(t.train_step(labels, 0.01f).peak_bytes);
        EXPECT_NEAR(estimate / peak, 1.0, 0.10)
            << (gat ? "gat" : "edgeconv")
            << (specialize ? "" : " --no-specialize") << " step " << step
            << ": estimate " << estimate << " B, measured " << peak << " B";
      }
    }
  }
}

TEST(ExecutionPlan, RunnerRejectsMismatchedGraph) {
  IrGraph ir;
  const int x = ir.input(Space::Vertex, 0, 2, "x");
  ir.mark_output(x);
  auto plan = ExecutionPlan::compile_shared(ir, 3, 3);
  Graph other(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_THROW(PlanRunner(other, plan), Error);
}

// The acceptance criterion of the refactor: one compiled plan, many epochs,
// results bit-identical to recompiling from scratch before every epoch —
// and zero compile-phase work (passes or plan builds) inside the epoch loop.
TEST(PlanReuse, EpochsBitIdenticalToPerEpochRecompilation) {
  const Graph g = small_graph();
  const IntTensor labels = make_labels(g);
  constexpr int kEpochs = 4;
  constexpr float kLr = 0.05f;

  // Compile once.
  auto shared = std::make_shared<const Compiled>(
      compile_model(build_small_gcn(), ours(), /*training=*/true, g));
  ASSERT_NE(shared->plan, nullptr);

  MemoryPool pool;
  Trainer reuse(shared, g, make_features(g, &pool), Tensor{}, &pool);
  std::vector<float> reuse_loss;
  CounterScope epochs_scope;
  for (int e = 0; e < kEpochs; ++e) {
    reuse_loss.push_back(reuse.train_step(labels, kLr).loss);
  }
  // No pass or plan (liveness/schedule) analysis ran inside the epoch loop.
  EXPECT_EQ(epochs_scope.delta().ir_passes, 0u);
  EXPECT_EQ(epochs_scope.delta().plan_compiles, 0u);
  EXPECT_EQ(epochs_scope.delta().compile_events(), 0u);
  const Tensor reuse_logits = reuse.logits().clone();

  // Baseline: recompile the model from scratch, then train to epoch e.
  // Trajectories must coincide bitwise at every epoch.
  for (int e = 0; e < kEpochs; ++e) {
    MemoryPool fresh_pool;
    Trainer fresh(compile_model(build_small_gcn(), ours(), true, g), g,
                  make_features(g, &fresh_pool), Tensor{}, &fresh_pool);
    float last = 0.f;
    for (int i = 0; i <= e; ++i) {
      last = fresh.train_step(labels, kLr).loss;
      EXPECT_EQ(last, reuse_loss[i]) << "epoch " << i << " diverged";
    }
    if (e == kEpochs - 1) {
      EXPECT_EQ(ops::max_abs_diff(fresh.logits(), reuse_logits), 0.f);
    }
  }
}

// One plan, two Trainer instances: independent weights, identical results.
TEST(PlanReuse, TwoTrainersShareOneCompiledModel) {
  const Graph g = small_graph();
  const IntTensor labels = make_labels(g);
  auto shared = std::make_shared<const Compiled>(
      compile_model(build_small_gcn(), ours(), /*training=*/true, g));

  MemoryPool pool_a, pool_b;
  Trainer a(shared, g, make_features(g, &pool_a), Tensor{}, &pool_a);
  Trainer b(shared, g, make_features(g, &pool_b), Tensor{}, &pool_b);
  ASSERT_EQ(&a.runner().plan(), &b.runner().plan());
  for (int e = 0; e < 3; ++e) {
    const float la = a.train_step(labels, 0.05f).loss;
    const float lb = b.train_step(labels, 0.05f).loss;
    EXPECT_EQ(la, lb);
  }
  EXPECT_EQ(ops::max_abs_diff(a.logits(), b.logits()), 0.f);
}

// M concurrent inference requests off one immutable plan.
TEST(PlanReuse, ConcurrentRunnersProduceIdenticalResults) {
  const Graph g = small_graph();
  Compiled c = compile_model(build_small_gcn(), ours(), /*training=*/false, g);
  ASSERT_NE(c.plan, nullptr);
  const std::shared_ptr<const ExecutionPlan> plan = c.plan;

  auto serve = [&](MemoryPool* pool) {
    PlanRunner runner(g, plan, pool);
    runner.bind(c.features, make_features(g, pool));
    for (std::size_t i = 0; i < c.params.size(); ++i) {
      runner.bind(c.params[i], c.init[i].clone(MemTag::kWeights, pool));
    }
    runner.run();
    return runner.result(c.output).clone();
  };

  MemoryPool ref_pool;
  const Tensor reference = serve(&ref_pool);

  constexpr int kRequests = 4;
  std::vector<Tensor> results(kRequests);
  std::vector<MemoryPool> pools(kRequests);
  std::vector<std::thread> threads;
  threads.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    threads.emplace_back([&, i] { results[i] = serve(&pools[i]); });
  }
  for (std::thread& t : threads) t.join();
  for (const Tensor& r : results) {
    EXPECT_EQ(ops::max_abs_diff(r, reference), 0.f);
  }
}

TEST(PlanCache, SecondLookupReturnsSameArtifact) {
  const Graph g = small_graph();
  PlanCache cache;
  PlanKey key{"gcn/test", "Ours", true, g.num_vertices(), g.num_edges(), 8};

  int builds = 0;
  auto build = [&] {
    ++builds;
    return build_small_gcn();
  };
  auto first = cache.get_or_compile(key, ours(), true, g, build);
  auto second = cache.get_or_compile(key, ours(), true, g, build);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);

  // A different feature width is a different artifact.
  PlanKey other = key;
  other.feat_dim = 16;
  auto third = cache.get_or_compile(other, ours(), true, g, build);
  EXPECT_NE(third.get(), first.get());
  EXPECT_EQ(builds, 2);
  EXPECT_EQ(cache.size(), 2u);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
}

}  // namespace
}  // namespace triad
