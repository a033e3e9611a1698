// Serving-runtime tests: collation edge cases, the bit-identity guarantee of
// batched execution, de-collation ordering when a one-model ServingHost's
// worker pool completes batches out of order, sharded serving, and the
// queue/histogram support pieces.
//
// The load-bearing property is the same one the sharded runtime pins down:
// batching is a pure throughput/latency policy. A block-diagonal batch gives
// every vertex exactly the incident edges — in exactly the order — it has in
// its standalone graph, so batched outputs must equal sequential per-request
// outputs to the last float bit, for every batch size and strategy.
#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <memory>
#include <vector>

#include "baselines/plan_cache.h"
#include "baselines/strategy.h"
#include "graph/generators.h"
#include "graph/knn.h"
#include "models/models.h"
#include "serve/collate.h"
#include "serve/host.h"
#include "support/histogram.h"
#include "support/queue.h"
#include "support/rng.h"

namespace triad {
namespace {

using serve::CollatedBatch;
using serve::InferenceRequest;
using serve::RequestRange;
using serve::ServingHost;

constexpr std::int64_t kInDim = 6;
constexpr std::int64_t kClasses = 4;

ModelGraph serving_gcn() {
  GcnConfig cfg;
  cfg.in_dim = kInDim;
  cfg.hidden = {8};
  cfg.num_classes = kClasses;
  Rng rng(1234);  // fixed: every invocation yields bit-identical weights
  return build_gcn(cfg, rng);
}

ModelGraph serving_gat() {
  GatConfig cfg;
  cfg.in_dim = kInDim;
  cfg.hidden = 4;
  cfg.heads = 2;
  cfg.layers = 2;
  cfg.num_classes = kClasses;
  Rng rng(1234);
  return build_gat(cfg, rng);
}

/// A small request over a k-NN "point cloud" graph; the seed varies the
/// structure and features while keeping the (|V|, |E|) shape fixed.
InferenceRequest make_request(std::int64_t points, unsigned seed) {
  Rng rng(seed);
  const Tensor cloud = synthetic_point_cloud(points, 3, seed % 4, rng);
  InferenceRequest req;
  req.graph = std::make_shared<const Graph>(points, knn_edges(cloud, 3));
  req.features = Tensor(points, kInDim, MemTag::kInput);
  for (std::int64_t i = 0; i < req.features.numel(); ++i) {
    req.features.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return req;
}

/// Sequential reference: compiles `model` for this request's own shape and
/// runs it alone.
Tensor run_standalone(ModelGraph model, const Strategy& s,
                      const InferenceRequest& req) {
  Compiled c = compile_model(std::move(model), s, /*training=*/false,
                             *req.graph);
  PlanRunner runner(*req.graph, c.plan);
  runner.bind(c.features, req.features);
  for (std::size_t i = 0; i < c.params.size(); ++i) {
    runner.bind(c.params[i], c.init[i]);
  }
  runner.run();
  return runner.take_result(c.output);
}

void expect_bit_identical(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<std::size_t>(a.numel()) * sizeof(float)),
            0)
      << what << " differs bitwise";
}

// --- collation edge cases ---------------------------------------------------

TEST(Collate, EmptyBatch) {
  const CollatedBatch batch = serve::collate(std::vector<InferenceRequest>{});
  EXPECT_EQ(batch.graph, nullptr);
  EXPECT_EQ(batch.size(), 0);
  EXPECT_EQ(batch.num_vertices(), 0);
  EXPECT_EQ(batch.num_edges(), 0);
  EXPECT_FALSE(batch.features.defined());
  EXPECT_FALSE(batch.pseudo.defined());
}

TEST(Collate, SingleVertexGraph) {
  // Three one-vertex, zero-edge requests: the degenerate shape a serving
  // path must not trip over.
  std::vector<InferenceRequest> reqs;
  for (unsigned i = 0; i < 3; ++i) {
    InferenceRequest req;
    req.graph = std::make_shared<const Graph>(1, std::vector<Edge>{});
    req.features = Tensor::full(1, kInDim, static_cast<float>(i + 1));
    reqs.push_back(std::move(req));
  }
  const CollatedBatch batch = serve::collate(reqs);
  ASSERT_EQ(batch.size(), 3);
  EXPECT_EQ(batch.num_vertices(), 3);
  EXPECT_EQ(batch.num_edges(), 0);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(batch.ranges[i].v_lo, i);
    EXPECT_EQ(batch.ranges[i].v_hi, i + 1);
    EXPECT_EQ(batch.ranges[i].num_edges(), 0);
    EXPECT_FLOAT_EQ(batch.features.at(i, 0), static_cast<float>(i + 1));
  }

  // And the batch executes: a Sum gather over an isolated vertex is a zero
  // row, not an error.
  Compiled c = compile_model(serving_gcn(), ours(), false, *batch.graph);
  PlanRunner runner(*batch.graph, c.plan);
  runner.bind(c.features, batch.features);
  for (std::size_t i = 0; i < c.params.size(); ++i) {
    runner.bind(c.params[i], c.init[i]);
  }
  runner.run();
  EXPECT_EQ(runner.result(c.output).rows(), 3);
}

TEST(Collate, BlockDiagonalStructure) {
  InferenceRequest a;
  a.graph = std::make_shared<const Graph>(
      3, std::vector<Edge>{{0, 1}, {2, 1}, {1, 2}});
  a.features = Tensor::full(3, 2, 1.f);
  InferenceRequest b;
  b.graph = std::make_shared<const Graph>(2, std::vector<Edge>{{1, 0}});
  b.features = Tensor::full(2, 2, 2.f);

  const CollatedBatch batch = serve::collate(std::vector<const InferenceRequest*>{&a, &b});
  ASSERT_EQ(batch.size(), 2);
  EXPECT_EQ(batch.num_vertices(), 5);
  EXPECT_EQ(batch.num_edges(), 4);
  const RequestRange& rb = batch.ranges[1];
  EXPECT_EQ(rb.v_lo, 3);
  EXPECT_EQ(rb.v_hi, 5);
  EXPECT_EQ(rb.e_lo, 3);
  EXPECT_EQ(rb.e_hi, 4);
  // Request b's edge 1->0 lands offset to 4->3, with its edge id shifted by
  // a's edge count.
  EXPECT_EQ(batch.graph->edge_src()[3], 4);
  EXPECT_EQ(batch.graph->edge_dst()[3], 3);
  // No cross-request edges: every in-edge of a's vertices comes from a.
  for (std::int64_t v = 0; v < 3; ++v) {
    for (std::int64_t e = batch.graph->in_ptr()[v];
         e < batch.graph->in_ptr()[v + 1]; ++e) {
      EXPECT_LT(batch.graph->in_src()[e], 3);
    }
  }
  EXPECT_FLOAT_EQ(batch.features.at(2, 0), 1.f);
  EXPECT_FLOAT_EQ(batch.features.at(3, 0), 2.f);
}

TEST(Collate, RejectsMismatchedFeatureWidths) {
  InferenceRequest a = make_request(8, 1);
  InferenceRequest b = make_request(8, 2);
  b.features = Tensor::full(8, kInDim + 1, 0.f);
  EXPECT_THROW(serve::collate(std::vector<const InferenceRequest*>{&a, &b}), Error);
}

TEST(Collate, DecollateRecoversRows) {
  Tensor batch_rows(6, 3, MemTag::kActivations);
  for (std::int64_t i = 0; i < batch_rows.numel(); ++i) {
    batch_rows.data()[i] = static_cast<float>(i);
  }
  const Tensor mid = serve::decollate(batch_rows, {2, 5, 0, 0});
  ASSERT_EQ(mid.rows(), 3);
  EXPECT_FLOAT_EQ(mid.at(0, 0), batch_rows.at(2, 0));
  EXPECT_FLOAT_EQ(mid.at(2, 2), batch_rows.at(4, 2));
}

// --- the bit-identity guarantee ---------------------------------------------

class BatchedBitIdentity : public ::testing::TestWithParam<int> {};

TEST_P(BatchedBitIdentity, MatchesSequentialExecution) {
  const int batch_size = GetParam();
  std::vector<InferenceRequest> reqs;
  for (int i = 0; i < batch_size; ++i) {
    reqs.push_back(make_request(12, 100 + static_cast<unsigned>(i)));
  }
  struct Case {
    const char* name;
    ModelGraph (*build)();
    Strategy strategy;
  };
  for (const Case& c : {Case{"gcn/ours", serving_gcn, ours()},
                        Case{"gcn/naive", serving_gcn, naive()},
                        Case{"gat/ours", serving_gat, ours()}}) {
    const CollatedBatch batch = serve::collate(reqs);
    Compiled compiled =
        compile_model(c.build(), c.strategy, false, *batch.graph);
    PlanRunner runner(*batch.graph, compiled.plan);
    runner.bind(compiled.features, batch.features);
    for (std::size_t i = 0; i < compiled.params.size(); ++i) {
      runner.bind(compiled.params[i], compiled.init[i]);
    }
    runner.run();
    const Tensor out = runner.take_result(compiled.output);
    for (int i = 0; i < batch_size; ++i) {
      const Tensor expected =
          run_standalone(c.build(), c.strategy, reqs[static_cast<std::size_t>(i)]);
      const Tensor got = serve::decollate(out, batch.ranges[static_cast<std::size_t>(i)]);
      expect_bit_identical(got, expected, c.name);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BatchSizes, BatchedBitIdentity,
                         ::testing::Values(1, 2, 8));

TEST(BatchedBitIdentity, IdenticalRequestsYieldIdenticalSlices) {
  const InferenceRequest req = make_request(10, 7);
  std::vector<const InferenceRequest*> reqs(4, &req);
  const CollatedBatch batch = serve::collate(reqs);
  Compiled compiled = compile_model(serving_gcn(), ours(), false, *batch.graph);
  PlanRunner runner(*batch.graph, compiled.plan);
  runner.bind(compiled.features, batch.features);
  for (std::size_t i = 0; i < compiled.params.size(); ++i) {
    runner.bind(compiled.params[i], compiled.init[i]);
  }
  runner.run();
  const Tensor out = runner.take_result(compiled.output);
  const Tensor first = serve::decollate(out, batch.ranges[0]);
  const Tensor expected = run_standalone(serving_gcn(), ours(), req);
  expect_bit_identical(first, expected, "slice 0 vs standalone");
  for (int i = 1; i < 4; ++i) {
    const Tensor slice =
        serve::decollate(out, batch.ranges[static_cast<std::size_t>(i)]);
    expect_bit_identical(slice, first, "replicated slice");
  }
}

// --- queue / histogram ------------------------------------------------------

TEST(BoundedQueue, CloseDrainsThenEnds) {
  BoundedQueue<int> q(8);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  q.close();
  EXPECT_FALSE(q.push(3));
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(BoundedQueue, TryPushRespectsCapacity) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));
  q.pop();
  EXPECT_TRUE(q.try_push(3));
}

TEST(LatencyHistogram, NearestRankPercentiles) {
  LatencyHistogram h;
  for (int i = 100; i >= 1; --i) h.record(static_cast<double>(i));
  const LatencyHistogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.p50, 50.0);
  EXPECT_DOUBLE_EQ(s.p95, 95.0);
  EXPECT_DOUBLE_EQ(s.p99, 99.0);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

// --- a one-model host -------------------------------------------------------

TEST(ServingHost, DecollationOrderingUnderOutOfOrderCompletion) {
  // Four workers complete batches in whatever order the scheduler likes; the
  // per-request futures must still receive *their own* rows. Each request's
  // expected output is computed standalone first.
  constexpr int kRequests = 24;
  std::vector<InferenceRequest> reqs;
  std::vector<Tensor> expected;
  for (int i = 0; i < kRequests; ++i) {
    reqs.push_back(make_request(12, 500 + static_cast<unsigned>(i)));
    expected.push_back(
        run_standalone(serving_gcn(), ours(), reqs[static_cast<std::size_t>(i)]));
  }

  ServingHost host({.workers = 4});
  serve::ModelOptions opts;
  opts.batch.max_batch = 3;
  opts.batch.max_wait_us = 500;
  host.register_model("test/gcn-ordering", serving_gcn, opts);
  std::vector<std::future<serve::InferenceResult>> futures;
  for (InferenceRequest& r : reqs) {
    futures.push_back(host.submit("test/gcn-ordering", std::move(r)));
  }
  for (int i = 0; i < kRequests; ++i) {
    serve::InferenceResult res = futures[static_cast<std::size_t>(i)].get();
    ASSERT_GE(res.batch_size, 1);
    ASSERT_LE(res.batch_size, 3);
    EXPECT_GT(res.latency_seconds, 0.0);
    expect_bit_identical(res.output, expected[static_cast<std::size_t>(i)],
                         "request routed to the wrong rows");
  }
  host.shutdown();

  const serve::ServerStats stats = host.stats("test/gcn-ordering");
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GE(stats.batches, static_cast<std::uint64_t>(kRequests) / 3);
  EXPECT_EQ(stats.latency.count, static_cast<std::uint64_t>(kRequests));
  EXPECT_LE(stats.latency.p50, stats.latency.p95);
  EXPECT_LE(stats.latency.p95, stats.latency.p99);
  EXPECT_GT(stats.throughput_rps(), 0.0);
  EXPECT_GT(stats.counters.kernel_launches, 0u);
  // Compile work is bounded by batch shapes × workers, not by the request
  // count: at most max_batch distinct shapes exist, and same-key PlanCache
  // racers may each compile once before the first insert wins.
  EXPECT_LE(stats.counters.plan_compiles, 12u);
}

TEST(ServingHost, ShardedServingBitIdentical) {
  // K = 4 shards over each collated batch graph must match a standalone
  // unsharded PlanRunner bitwise.
  const InferenceRequest req = make_request(32, 9);
  const Tensor expected = run_standalone(serving_gcn(), ours(), req);

  ServingHost host({.workers = 2});
  serve::ModelOptions opts;
  opts.shards = 4;
  opts.batch.max_batch = 2;
  host.register_model("test/gcn-sharded", serving_gcn, opts);
  std::vector<std::future<serve::InferenceResult>> futures;
  for (int i = 0; i < 6; ++i) {
    InferenceRequest copy;
    copy.graph = req.graph;
    copy.features = req.features;
    futures.push_back(host.submit("test/gcn-sharded", std::move(copy)));
  }
  for (auto& f : futures) {
    expect_bit_identical(f.get().output, expected, "sharded serving");
  }
  host.shutdown();
  // The batches really ran shard-parallel: only per-shard walks charge this.
  EXPECT_GT(host.stats("test/gcn-sharded").counters.walk_ns, 0u);
}

}  // namespace
}  // namespace triad
