// Sharded-execution tests: bit-identical determinism across shard counts,
// a PlanRunner with an installed Partitioning, per-shard plan schedules, and
// the combine-traffic accounting of the device model.
//
// The determinism guarantee is structural, not statistical: owned-vertex
// ranges are contiguous (per-vertex sequential reductions see the same edge
// order for every K) and boundary reductions fold stashed per-edge
// contributions in fixed reverse-adjacency order, so K ∈ {1, 2, 4, 8}
// sharded training must produce the same float bits as the single-shard
// path — not merely close values.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "baselines/strategy.h"
#include "engine/device.h"
#include "engine/plan.h"
#include "graph/generators.h"
#include "graph/partition.h"
#include "models/models.h"
#include "models/trainer.h"
#include "support/counters.h"
#include "support/rng.h"

namespace triad {
namespace {

Graph test_graph() {
  Rng rng(11);
  return gen::rmat(7, 1500, rng);  // 128 vertices, skewed degrees
}

Tensor random_features(std::int64_t n, std::int64_t d, MemoryPool* pool) {
  Rng rng(23);
  Tensor t(n, d, MemTag::kInput, pool);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

IntTensor random_labels(std::int64_t n, std::int32_t classes) {
  Rng rng(29);
  IntTensor t(n, 1);
  for (std::int64_t v = 0; v < n; ++v) {
    t.at(v, 0) = static_cast<std::int32_t>(rng.uniform_int(classes));
  }
  return t;
}

void expect_bit_identical(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<std::size_t>(a.numel()) * sizeof(float)),
            0)
      << what << " differs bitwise";
}

/// Trains `steps` and returns (logits, all parameter tensors) as clones.
struct RunResult {
  Tensor logits;
  std::vector<Tensor> params;
};

template <typename BuildFn>
RunResult train_run(const Graph& g, BuildFn&& build, int shards,
                    PartitionStrategy strategy, int steps, std::int64_t in_dim,
                    const Strategy& strat = ours()) {
  Rng mrng(7);  // fixed: identical initial weights across runs
  Compiled c = compile_model(build(mrng), strat, /*training=*/true, g, shards,
                             strategy);
  const Compiled& model = c;
  std::vector<int> param_nodes = model.params;
  MemoryPool pool;
  Trainer t(std::move(c), g, random_features(g.num_vertices(), in_dim, &pool),
            Tensor{}, &pool);
  const IntTensor labels = random_labels(g.num_vertices(), 4);
  for (int i = 0; i < steps; ++i) t.train_step(labels, 1e-2f);
  RunResult r{t.logits().clone(MemTag::kWorkspace), {}};
  for (int p : param_nodes) {
    r.params.push_back(t.runner().result(p).clone(MemTag::kWorkspace));
  }
  return r;
}

ModelGraph gat_model(Rng& rng, std::int64_t in_dim) {
  GatConfig cfg;
  cfg.in_dim = in_dim;
  cfg.hidden = 8;
  cfg.heads = 2;
  cfg.layers = 2;
  cfg.num_classes = 4;
  return build_gat(cfg, rng);
}

ModelGraph edgeconv_model(Rng& rng, std::int64_t in_dim) {
  EdgeConvConfig cfg;
  cfg.in_dim = in_dim;
  cfg.hidden = {8, 8};
  cfg.num_classes = 4;
  return build_edgeconv(cfg, rng);
}

TEST(Sharded, GatTrainingBitIdenticalAcrossShardCounts) {
  const Graph g = test_graph();
  const auto build = [](Rng& r) { return gat_model(r, 6); };
  const RunResult base =
      train_run(g, build, /*shards=*/0, PartitionStrategy::VertexRange, 2, 6);
  for (int k : {1, 2, 4, 8}) {
    for (const auto strategy :
         {PartitionStrategy::VertexRange, PartitionStrategy::DegreeBalanced}) {
      const RunResult sharded = train_run(g, build, k, strategy, 2, 6);
      expect_bit_identical(base.logits, sharded.logits, "GAT logits");
      ASSERT_EQ(base.params.size(), sharded.params.size());
      for (std::size_t i = 0; i < base.params.size(); ++i) {
        expect_bit_identical(base.params[i], sharded.params[i], "GAT weights");
      }
    }
  }
}

TEST(Sharded, EdgeConvTrainingBitIdenticalAcrossShardCounts) {
  // EdgeConv exercises Max reductions (argmax tracking + MaxBwdMask) and
  // reverse-orientation gradient reductions through the boundary combine.
  const Graph g = test_graph();
  const auto build = [](Rng& r) { return edgeconv_model(r, 5); };
  const RunResult base =
      train_run(g, build, /*shards=*/0, PartitionStrategy::VertexRange, 2, 5);
  for (int k : {1, 2, 4, 8}) {
    const RunResult sharded =
        train_run(g, build, k, PartitionStrategy::DegreeBalanced, 2, 5);
    expect_bit_identical(base.logits, sharded.logits, "EdgeConv logits");
    for (std::size_t i = 0; i < base.params.size(); ++i) {
      expect_bit_identical(base.params[i], sharded.params[i],
                           "EdgeConv weights");
    }
  }
}

TEST(Sharded, UnfusedKernelsBitIdenticalWhenSharded) {
  // The DGL-like strategy runs op-by-op (Scatter/Gather/EdgeSoftmax special
  // kernels, no fused programs) — this pins down the shard-view refactor of
  // kernels.cc rather than the VM.
  const Graph g = test_graph();
  const auto build = [](Rng& r) { return gat_model(r, 6); };
  const RunResult base = train_run(g, build, 0, PartitionStrategy::VertexRange,
                                   2, 6, dgl_like());
  for (int k : {2, 4}) {
    const RunResult sharded = train_run(
        g, build, k, PartitionStrategy::DegreeBalanced, 2, 6, dgl_like());
    expect_bit_identical(base.logits, sharded.logits, "DGL-like logits");
    for (std::size_t i = 0; i < base.params.size(); ++i) {
      expect_bit_identical(base.params[i], sharded.params[i],
                           "DGL-like weights");
    }
  }
}

TEST(Sharded, PartitionedPlanRunnerMatchesPlanRunner) {
  const Graph g = test_graph();
  Rng mrng(7);
  Compiled c = compile_model(gat_model(mrng, 6), ours(), /*training=*/false, g);
  MemoryPool pool_a, pool_b;

  PlanRunner serial(g, c.plan, &pool_a);
  serial.bind(c.features, random_features(g.num_vertices(), 6, &pool_a));
  for (std::size_t i = 0; i < c.params.size(); ++i) {
    serial.bind(c.params[i], c.init[i].clone(MemTag::kWeights, &pool_a));
  }
  serial.run();

  const Partitioning part = Partitioning::build(
      g, /*num_shards=*/4, PartitionStrategy::DegreeBalanced);
  EXPECT_EQ(part.num_shards(), 4);
  PlanRunner sharded(g, c.plan, &pool_b);
  sharded.set_partitioning(&part);
  sharded.bind(c.features, random_features(g.num_vertices(), 6, &pool_b));
  for (std::size_t i = 0; i < c.params.size(); ++i) {
    sharded.bind(c.params[i], c.init[i].clone(MemTag::kWeights, &pool_b));
  }
  sharded.run();

  expect_bit_identical(serial.result(c.output), sharded.result(c.output),
                       "inference logits");
}

TEST(Sharded, PlanCarriesPerShardSchedule) {
  const Graph g = test_graph();
  Rng mrng(7);
  Compiled c = compile_model(gat_model(mrng, 6), ours(), /*training=*/true, g,
                             /*num_shards=*/4, PartitionStrategy::DegreeBalanced);
  ASSERT_NE(c.plan, nullptr);
  ASSERT_NE(c.partition, nullptr);
  EXPECT_EQ(c.plan->num_shards(), 4);

  std::int64_t vertices = 0, edges = 0;
  for (int s = 0; s < 4; ++s) {
    const ShardSchedule& ss = c.plan->shard_schedule(s);
    vertices += ss.num_vertices;
    edges += ss.local_edges;
    // A shard's slice of the run must not need more memory than the whole
    // run, and every shard still replicates the parameters.
    EXPECT_LE(ss.estimated_peak_bytes, c.plan->estimated_peak_bytes());
    EXPECT_GT(ss.persistent_bytes, 0u);
  }
  EXPECT_EQ(vertices, g.num_vertices());
  EXPECT_EQ(edges, g.num_edges());
  EXPECT_LE(c.plan->max_shard_peak_bytes(), c.plan->estimated_peak_bytes());
  EXPECT_TRUE(c.plan->shards_fit(c.plan->estimated_peak_bytes()));

  // The partitioning step is visible in the compile report.
  bool saw_partition_pass = false;
  for (const PassInfo& p : c.stats.passes) {
    if (p.name.rfind("partition", 0) == 0) saw_partition_pass = true;
  }
  EXPECT_TRUE(saw_partition_pass);
}

TEST(Sharded, CombineBytesChargedOnlyWhenSharded) {
  const Graph g = test_graph();
  const auto build = [](Rng& r) { return gat_model(r, 6); };

  CounterScope unsharded_scope;
  train_run(g, build, 0, PartitionStrategy::VertexRange, 1, 6);
  const PerfCounters unsharded = unsharded_scope.delta();
  EXPECT_EQ(unsharded.combine_bytes, 0u);

  CounterScope sharded_scope;
  train_run(g, build, 4, PartitionStrategy::DegreeBalanced, 1, 6);
  const PerfCounters sharded = sharded_scope.delta();
  EXPECT_GT(sharded.combine_bytes, 0u);

  // The device model must price the combine traffic: same device, same
  // counters except combine_bytes => strictly larger projected latency.
  PerfCounters with = sharded;
  PerfCounters without = sharded;
  without.combine_bytes = 0;
  const DeviceProfile dev = rtx2080();
  EXPECT_GT(dev.modeled_seconds(with), dev.modeled_seconds(without));
}

}  // namespace
}  // namespace triad
