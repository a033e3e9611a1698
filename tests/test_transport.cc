// Transport layer (src/transport/): the message-passing seam between a
// training worker and the ParamServer that owns the training state.
//
// Three contracts are pinned here:
//  * LocalTransport semantics — FIFO channels and fabric-wide message/byte
//    accounting — and the exact message and byte count of one training step;
//  * bit-identity: routing parameter updates through the transport must not
//    perturb a single bit. Every model × strategy × K comparison is memcmp
//    against the unsharded in-place-update (--no-transport) path;
//  * ParamServer state ownership — the optimizer and its momentum/Adam state
//    live server-side, attach() runs exactly once, and N push/pull round
//    trips reproduce the direct in-place update bit for bit.
//
// Plus the serving fairness knob that rides along: max_workers_per_model
// bounds peak_workers however hot the model runs.
#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "api/triad.h"
#include "baselines/strategy.h"
#include "graph/generators.h"
#include "graph/knn.h"
#include "graph/partition.h"
#include "models/models.h"
#include "models/optim.h"
#include "models/trainer.h"
#include "serve/host.h"
#include "support/counters.h"
#include "support/rng.h"
#include "transport/param_server.h"
#include "transport/transport.h"

namespace triad {
namespace {

using serve::ServingHost;
using transport::LocalTransport;
using transport::ParamServer;
using transport::TransportMessage;
using transport::TransportStats;

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
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<std::size_t>(a.numel()) * sizeof(float)),
            0)
      << what << " differs bitwise";
}

/// The in-place-update ablation of any strategy — what --no-transport selects.
Strategy without_transport(Strategy s) {
  s.transport = false;
  s.name += "(-transport)";
  return s;
}

// --- LocalTransport semantics -----------------------------------------------

TEST(Transport, ChannelsAreFifoAndCounted) {
  LocalTransport fabric(3, 8);
  ASSERT_EQ(fabric.num_endpoints(), 3);
  EXPECT_EQ(fabric.channel(0, 2).src(), 0);
  EXPECT_EQ(fabric.channel(0, 2).dst(), 2);

  float payload[4] = {1, 2, 3, 4};
  for (std::uint32_t i = 0; i < 3; ++i) {
    TransportMessage m;
    m.src = 0;
    m.dst = 2;
    m.tag = i;
    m.data = payload;
    m.bytes = sizeof(payload);
    ASSERT_TRUE(fabric.channel(0, 2).send(m));
  }
  // FIFO on the (0, 2) lane; the (1, 2) lane is independent and empty.
  EXPECT_FALSE(fabric.channel(1, 2).try_recv().has_value());
  for (std::uint32_t i = 0; i < 3; ++i) {
    auto m = fabric.channel(0, 2).try_recv();
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->tag, i);
    EXPECT_EQ(m->src, 0);
    EXPECT_EQ(m->dst, 2);
    EXPECT_EQ(m->data, payload);  // zero-copy: the view travels unchanged
    EXPECT_EQ(m->bytes, sizeof(payload));
  }
  EXPECT_FALSE(fabric.channel(0, 2).try_recv().has_value());

  const TransportStats st = fabric.stats();
  EXPECT_EQ(st.messages, 3u);
  EXPECT_EQ(st.bytes, 3u * sizeof(payload));
  fabric.close();
  EXPECT_FALSE(fabric.channel(0, 2).recv().has_value());  // closed + drained
}

// --- end-to-end bit identity -------------------------------------------------

struct RunResult {
  Tensor logits;
  std::vector<Tensor> params;
};

/// One deterministic training run; pseudo_dim > 0 builds the MoNet edge
/// pseudo-coordinates input.
template <typename BuildFn>
RunResult train_run(const Graph& g, BuildFn&& build, int shards, int steps,
                    std::int64_t in_dim, std::int64_t pseudo_dim,
                    const Strategy& strat) {
  Rng mrng(7);  // fixed: identical initial weights across runs
  Compiled c = compile_model(build(mrng), strat, /*training=*/true, g, shards,
                             PartitionStrategy::DegreeBalanced);
  std::vector<int> param_nodes = c.params;
  MemoryPool pool;
  Tensor pseudo =
      pseudo_dim > 0 ? make_pseudo_coords(g, pseudo_dim) : Tensor{};
  Trainer t(std::move(c), g, random_features(g.num_vertices(), in_dim, &pool),
            std::move(pseudo), &pool);
  const IntTensor labels = random_labels(g.num_vertices(), 4);
  for (int i = 0; i < steps; ++i) t.train_step(labels, 1e-2f);
  RunResult r{t.logits().clone(MemTag::kWorkspace), {}};
  for (int p : param_nodes) {
    r.params.push_back(t.runner().result(p).clone(MemTag::kWorkspace));
  }
  return r;
}

/// Transport-on vs in-place update, all bitwise, for one model under both the
/// fused and unfused strategy (fusion changes which programs have boundary
/// reductions) and K in {1, 4, 8} (plus the unsharded anchor).
template <typename BuildFn>
void check_bit_identity(const Graph& g, BuildFn&& build, std::int64_t in_dim,
                        std::int64_t pseudo_dim, const char* what) {
  for (const Strategy& strat : {ours(), ours_no_fusion()}) {
    // Anchor: unsharded, in-place update — the pre-transport ground truth.
    const RunResult base = train_run(g, build, /*shards=*/0, 2, in_dim,
                                     pseudo_dim, without_transport(strat));
    for (int k : {1, 4, 8}) {
      const RunResult on = train_run(g, build, k, 2, in_dim, pseudo_dim, strat);
      const RunResult off = train_run(g, build, k, 2, in_dim, pseudo_dim,
                                      without_transport(strat));
      expect_bit_identical(base.logits, on.logits, what);
      expect_bit_identical(base.logits, off.logits, what);
      ASSERT_EQ(base.params.size(), on.params.size());
      ASSERT_EQ(base.params.size(), off.params.size());
      for (std::size_t i = 0; i < base.params.size(); ++i) {
        expect_bit_identical(base.params[i], on.params[i], what);
        expect_bit_identical(base.params[i], off.params[i], what);
      }
    }
  }
}

TEST(Transport, GcnBitIdentical) {
  const Graph g = test_graph();
  check_bit_identity(
      g,
      [](Rng& r) {
        GcnConfig cfg;
        cfg.in_dim = 6;
        cfg.hidden = {8};
        cfg.num_classes = 4;
        return build_gcn(cfg, r);
      },
      6, 0, "GCN");
}

TEST(Transport, GatBitIdentical) {
  const Graph g = test_graph();
  check_bit_identity(
      g,
      [](Rng& r) {
        GatConfig cfg;
        cfg.in_dim = 6;
        cfg.hidden = 8;
        cfg.heads = 2;
        cfg.layers = 2;
        cfg.num_classes = 4;
        return build_gat(cfg, r);
      },
      6, 0, "GAT");
}

TEST(Transport, EdgeConvBitIdentical) {
  const Graph g = test_graph();
  check_bit_identity(
      g,
      [](Rng& r) {
        EdgeConvConfig cfg;
        cfg.in_dim = 5;
        cfg.hidden = {8, 8};
        cfg.num_classes = 4;
        return build_edgeconv(cfg, r);
      },
      5, 0, "EdgeConv");
}

TEST(Transport, MoNetBitIdentical) {
  const Graph g = test_graph();
  check_bit_identity(
      g,
      [](Rng& r) {
        MoNetConfig cfg;
        cfg.in_dim = 5;
        cfg.hidden = 8;
        cfg.layers = 2;
        cfg.kernels = 2;
        cfg.pseudo_dim = 2;
        cfg.num_classes = 4;
        return build_monet(cfg, r);
      },
      5, 2, "MoNet");
}

TEST(Transport, CountersFireWithTransportAndStayZeroWithout) {
  const Graph g = test_graph();
  const auto build = [](Rng& r) {
    GatConfig cfg;  // GAT: its K=4 step runs cross-shard boundary combines
    cfg.in_dim = 6;
    cfg.hidden = 8;
    cfg.heads = 2;
    cfg.layers = 2;
    cfg.num_classes = 4;
    return build_gat(cfg, r);
  };
  // One step is one push (a message per parameter) and one pull (a request,
  // then a reply per parameter), each carrying every parameter's bytes once.
  // Nothing else crosses the fabric: sharding moves no messages.
  Rng mrng(7);
  const Compiled c = compile_model(build(mrng), ours(), /*training=*/true, g);
  const std::uint64_t num_params = c.init.size();
  std::uint64_t param_bytes = 0;
  for (const Tensor& p : c.init) param_bytes += p.bytes();
  ASSERT_GT(num_params, 0u);

  CounterScope on_scope;
  train_run(g, build, 4, 1, 6, 0, ours());
  const PerfCounters on = on_scope.delta();
  EXPECT_EQ(on.transport_msgs, 2 * num_params + 1);
  EXPECT_EQ(on.param_push_bytes, param_bytes);
  EXPECT_EQ(on.param_pull_bytes, param_bytes);
  EXPECT_EQ(on.transport_bytes, on.param_push_bytes + on.param_pull_bytes);

  CounterScope off_scope;
  train_run(g, build, 4, 1, 6, 0, without_transport(ours()));
  const PerfCounters off = off_scope.delta();
  // The in-place-update ablation has no ParamServer, so there is no fabric
  // and nothing to count.
  EXPECT_EQ(off.transport_msgs, 0u);
  EXPECT_EQ(off.transport_bytes, 0u);
  EXPECT_EQ(off.param_push_bytes, 0u);
  EXPECT_EQ(off.param_pull_bytes, 0u);
}

// --- ParamServer state ownership ---------------------------------------------

std::vector<Tensor> fixed_params(MemoryPool* pool) {
  Rng rng(41);
  std::vector<Tensor> p;
  p.push_back(Tensor::randn(4, 3, rng, 1.f, MemTag::kWeights, pool));
  p.push_back(Tensor::randn(1, 5, rng, 1.f, MemTag::kWeights, pool));
  return p;
}

std::vector<Tensor> fixed_grads(MemoryPool* pool) {
  Rng rng(43);
  std::vector<Tensor> g;
  g.push_back(Tensor::randn(4, 3, rng, 1.f, MemTag::kGradient, pool));
  g.push_back(Tensor::randn(1, 5, rng, 1.f, MemTag::kGradient, pool));
  return g;
}

TEST(ParamServer, PlainSgdRoundTripMatchesDirectUpdate) {
  MemoryPool pool;
  std::vector<Tensor> init = fixed_params(&pool);
  std::vector<Tensor> grads = fixed_grads(&pool);
  std::vector<const Tensor*> gptrs;
  for (const Tensor& g : grads) gptrs.push_back(&g);
  constexpr float kLr = 3e-2f;
  constexpr int kSteps = 5;

  // Direct in-place SGD — the Trainer's old update, p -= lr * g.
  std::vector<Tensor> direct;
  for (const Tensor& p : init) direct.push_back(p.clone(MemTag::kWeights));
  for (int s = 0; s < kSteps; ++s) {
    for (std::size_t i = 0; i < direct.size(); ++i) {
      for (std::int64_t j = 0; j < direct[i].numel(); ++j) {
        direct[i].data()[j] += -kLr * grads[i].data()[j];
      }
    }
  }

  // Server-side: N push/pull round trips over the fabric.
  std::vector<Tensor> server_init;
  for (const Tensor& p : init) server_init.push_back(p.clone(MemTag::kWeights));
  ParamServer ps(std::move(server_init), &pool);
  std::vector<Tensor> pulled;
  for (const Tensor& p : init) pulled.push_back(p.clone(MemTag::kWeights));
  for (int s = 0; s < kSteps; ++s) {
    ps.push_grads(gptrs, kLr);
    ps.pull_params(pulled);
  }
  for (std::size_t i = 0; i < direct.size(); ++i) {
    expect_bit_identical(direct[i], pulled[i], "SGD round trip");
    expect_bit_identical(direct[i], ps.params()[i], "server params");
  }
  // 5 steps x (2 grad msgs + 1 pull request + 2 reply msgs).
  EXPECT_EQ(ps.stats().messages, 5u * 5u);
}

/// Optimizer state (momentum velocities, Adam moments + timestep) lives
/// server-side and must survive N push/pull round trips bit-identically —
/// the satellite contract for moving the Optimizer into the ParamServer.
void check_optimizer_round_trip(std::unique_ptr<Optimizer> direct_opt,
                                std::unique_ptr<Optimizer> server_opt,
                                const char* what) {
  MemoryPool pool;
  std::vector<Tensor> init = fixed_params(&pool);
  std::vector<Tensor> grads = fixed_grads(&pool);
  std::vector<const Tensor*> gptrs;
  for (const Tensor& g : grads) gptrs.push_back(&g);
  constexpr int kSteps = 7;  // > 1: stale state would diverge by step 2

  std::vector<Tensor> direct;
  for (const Tensor& p : init) direct.push_back(p.clone(MemTag::kWeights));
  direct_opt->attach(direct);
  for (int s = 0; s < kSteps; ++s) direct_opt->step(direct, gptrs);

  std::vector<Tensor> server_init;
  for (const Tensor& p : init) server_init.push_back(p.clone(MemTag::kWeights));
  ParamServer ps(std::move(server_init), &pool);
  ps.set_optimizer(std::move(server_opt));
  std::vector<Tensor> pulled;
  for (const Tensor& p : init) pulled.push_back(p.clone(MemTag::kWeights));
  for (int s = 0; s < kSteps; ++s) {
    ps.push_grads(gptrs, /*lr=*/123.f);  // lr ignored with an optimizer
    ps.pull_params(pulled);
  }
  EXPECT_EQ(ps.attach_calls(), 1) << what;
  for (std::size_t i = 0; i < direct.size(); ++i) {
    expect_bit_identical(direct[i], pulled[i], what);
  }
}

TEST(ParamServer, MomentumStateSurvivesRoundTrips) {
  check_optimizer_round_trip(
      std::make_unique<Sgd>(1e-2f, /*momentum=*/0.9f),
      std::make_unique<Sgd>(1e-2f, /*momentum=*/0.9f), "momentum SGD");
}

TEST(ParamServer, AdamStateSurvivesRoundTrips) {
  check_optimizer_round_trip(std::make_unique<Adam>(1e-3f),
                             std::make_unique<Adam>(1e-3f), "Adam");
}

TEST(ParamServer, TrainerRoutesThroughServerWithAdamBitIdentically) {
  // End to end: a sharded Trainer with an installed Adam optimizer trains
  // bit-identically with and without the ParamServer in the loop, and the
  // transport path provably owns the optimizer (attach exactly once).
  const Graph g = test_graph();
  const auto build = [](Rng& r) {
    GatConfig cfg;
    cfg.in_dim = 6;
    cfg.hidden = 8;
    cfg.heads = 2;
    cfg.layers = 2;
    cfg.num_classes = 4;
    return build_gat(cfg, r);
  };
  const IntTensor labels = random_labels(g.num_vertices(), 4);
  auto run = [&](const Strategy& strat, bool* had_server) {
    Rng mrng(7);
    Compiled c = compile_model(build(mrng), strat, /*training=*/true, g, 4,
                               PartitionStrategy::DegreeBalanced);
    MemoryPool pool;
    Trainer t(std::move(c), g,
              random_features(g.num_vertices(), 6, &pool), Tensor{}, &pool);
    t.set_optimizer(std::make_unique<Adam>(1e-3f));
    for (int i = 0; i < 3; ++i) t.train_step(labels);
    if (had_server != nullptr) {
      *had_server = t.param_server() != nullptr;
      if (t.param_server() != nullptr) {
        EXPECT_EQ(t.param_server()->attach_calls(), 1);
      }
    }
    return t.logits().clone(MemTag::kWorkspace);
  };
  bool on_server = false, off_server = true;
  const Tensor on = run(ours(), &on_server);
  const Tensor off = run(without_transport(ours()), &off_server);
  EXPECT_TRUE(on_server);    // transport=true trains through the server
  EXPECT_FALSE(off_server);  // the ablation keeps the in-place update
  expect_bit_identical(on, off, "Adam training through ParamServer");
}

// --- serving fairness: max_workers_per_model ---------------------------------

constexpr std::int64_t kInDim = 6;

ModelGraph quota_gcn() {
  GcnConfig cfg;
  cfg.in_dim = kInDim;
  cfg.hidden = {8};
  cfg.num_classes = 4;
  Rng rng(1234);  // fixed: every invocation yields bit-identical weights
  return build_gcn(cfg, rng);
}

serve::InferenceRequest quota_request(std::int64_t points, unsigned seed) {
  Rng rng(seed);
  const Tensor cloud = synthetic_point_cloud(points, 3, seed % 4, rng);
  serve::InferenceRequest req;
  req.graph = std::make_shared<const Graph>(points, knn_edges(cloud, 3));
  req.features = Tensor(points, kInDim, MemTag::kInput);
  for (std::int64_t i = 0; i < req.features.numel(); ++i) {
    req.features.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return req;
}

TEST(ServingHost, WorkerQuotaBoundsPeakWorkers) {
  // Three shared workers, but the one hot model may hold at most one of
  // them: peak_workers is the observed fairness bound and must never exceed
  // the quota, however many requests pile up.
  serve::HostConfig cfg;
  cfg.workers = 3;
  cfg.max_workers_per_model = 1;
  ServingHost host(cfg);
  serve::ModelOptions mo;
  mo.batch.max_batch = 2;  // small batches -> many collect() claims
  mo.batch.max_wait_us = 100;
  host.register_model("transport/quota", quota_gcn, mo);

  std::vector<std::future<serve::InferenceResult>> futures;
  for (unsigned i = 0; i < 12; ++i) {
    futures.push_back(host.submit("transport/quota", quota_request(10, 50 + i)));
  }
  for (auto& f : futures) f.get();
  host.shutdown();

  const serve::ServerStats st = host.stats("transport/quota");
  EXPECT_EQ(st.completed, 12u);
  EXPECT_EQ(st.failed, 0u);
  EXPECT_GT(st.peak_workers, 0);
  EXPECT_LE(st.peak_workers, 1);  // the quota held
  // The aggregate reports the max across models (one model here).
  EXPECT_EQ(host.stats().total.peak_workers, st.peak_workers);
}

TEST(ServingHost, UnlimitedQuotaByDefault) {
  // quota = 0 keeps today's behavior: any worker may pick up the model, and
  // the peak merely observes whatever concurrency actually happened.
  serve::HostConfig cfg;
  cfg.workers = 2;
  ServingHost host(cfg);
  serve::ModelOptions mo;
  mo.batch.max_batch = 2;
  mo.batch.max_wait_us = 100;
  host.register_model("transport/unbounded", quota_gcn, mo);
  std::vector<std::future<serve::InferenceResult>> futures;
  for (unsigned i = 0; i < 8; ++i) {
    futures.push_back(
        host.submit("transport/unbounded", quota_request(10, 90 + i)));
  }
  for (auto& f : futures) f.get();
  host.shutdown();
  const serve::ServerStats st = host.stats("transport/unbounded");
  EXPECT_EQ(st.completed, 8u);
  EXPECT_GT(st.peak_workers, 0);
  EXPECT_LE(st.peak_workers, 2);  // can't exceed the pool itself
}

}  // namespace
}  // namespace triad
