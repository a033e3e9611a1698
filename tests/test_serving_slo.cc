// SLO-aware multi-model serving tests: the ServingHost front door.
//
// The properties pinned down here are the serving-layer contract of PR 8:
//  * multi-model batching keeps the bit-identity guarantee — every request
//    routed through the shared host equals its own standalone run exactly;
//  * priority lanes drain High before Normal before Low under a saturated
//    queue, deterministically (workers = 0, pump()-driven);
//  * admission control sheds Low-priority work at the configured queue-depth
//    threshold with exact counting (shed / rejected / submitted never blur);
//  * hot weight reload is atomic per batch — every response is computed
//    entirely under the old or entirely under the new weights, bitwise;
//  * the open-loop load generator is seeded-deterministic and its report
//    fields satisfy the accounting identities;
//  * it times each request from its due instant, so a generator running
//    behind schedule charges its send lag to the client-side latency;
//  * an enabled SloPolicy provably engages inside the host (counted shrinks,
//    effective max-wait below the static knob).
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "api/triad.h"
#include "graph/knn.h"
#include "models/models.h"
#include "serve/host.h"
#include "serve/loadgen.h"
#include "support/rng.h"

namespace triad {
namespace {

using serve::Admission;
using serve::InferenceRequest;
using serve::ModelOptions;
using serve::Priority;
using serve::ServingHost;

constexpr std::int64_t kInDim = 6;
constexpr std::int64_t kClasses = 4;

ModelGraph host_gcn() {
  GcnConfig cfg;
  cfg.in_dim = kInDim;
  cfg.hidden = {8};
  cfg.num_classes = kClasses;
  Rng rng(1234);  // fixed: every invocation yields bit-identical weights
  return build_gcn(cfg, rng);
}

ModelGraph host_gcn_v2() {
  GcnConfig cfg;
  cfg.in_dim = kInDim;
  cfg.hidden = {8};
  cfg.num_classes = kClasses;
  Rng rng(9999);  // same architecture, different weights: the reload target
  return build_gcn(cfg, rng);
}

ModelGraph host_gat() {
  GatConfig cfg;
  cfg.in_dim = kInDim;
  cfg.hidden = 4;
  cfg.heads = 2;
  cfg.layers = 2;
  cfg.num_classes = kClasses;
  Rng rng(1234);
  return build_gat(cfg, rng);
}

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

InferenceRequest copy_of(const InferenceRequest& req) {
  InferenceRequest copy;
  copy.graph = req.graph;
  copy.features = req.features;  // shallow handle; payload shared
  copy.pseudo = req.pseudo;
  return copy;
}

Tensor run_standalone(ModelGraph model, const Strategy& s,
                      const InferenceRequest& req) {
  Compiled c =
      compile_model(std::move(model), s, /*training=*/false, *req.graph);
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

bool matches_bitwise(const Tensor& a, const Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

// --- multi-model bit identity -----------------------------------------------

TEST(ServingHost, MultiModelBitIdentity) {
  // Two models behind one front door, served by shared workers: every
  // request's output must equal its own standalone run to the last bit —
  // multi-model batching is still exactly solo execution per request.
  serve::HostConfig cfg;
  cfg.workers = 2;
  ServingHost host(cfg);
  ModelOptions mo;
  mo.batch.max_batch = 3;
  mo.batch.max_wait_us = 200;
  host.register_model("slohost/gcn", host_gcn, mo);
  host.register_model("slohost/gat", host_gat, mo);

  constexpr int kPerModel = 8;
  std::vector<InferenceRequest> reqs;
  std::vector<Tensor> expected;
  std::vector<std::string> model_of;
  for (int i = 0; i < kPerModel; ++i) {
    InferenceRequest g = make_request(12, 700 + static_cast<unsigned>(i));
    expected.push_back(run_standalone(host_gcn(), ours(), g));
    model_of.push_back("slohost/gcn");
    reqs.push_back(std::move(g));
    InferenceRequest a = make_request(10, 800 + static_cast<unsigned>(i));
    expected.push_back(run_standalone(host_gat(), ours(), a));
    model_of.push_back("slohost/gat");
    reqs.push_back(std::move(a));
  }

  std::vector<std::future<serve::InferenceResult>> futures;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    futures.push_back(host.submit(model_of[i], std::move(reqs[i])));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    serve::InferenceResult res = futures[i].get();
    expect_bit_identical(res.output, expected[i], model_of[i].c_str());
  }
  host.shutdown();

  const serve::HostStats hs = host.stats();
  EXPECT_EQ(hs.total.submitted, static_cast<std::uint64_t>(2 * kPerModel));
  EXPECT_EQ(hs.total.completed, static_cast<std::uint64_t>(2 * kPerModel));
  EXPECT_EQ(hs.total.failed, 0u);
  EXPECT_EQ(hs.models.at("slohost/gcn").completed,
            static_cast<std::uint64_t>(kPerModel));
  EXPECT_EQ(hs.models.at("slohost/gat").completed,
            static_cast<std::uint64_t>(kPerModel));
  // Every batch is single-model: total latency accounting stays per model.
  EXPECT_EQ(hs.total.latency.count, static_cast<std::uint64_t>(2 * kPerModel));
}

TEST(ServingHost, UnknownModelAndShutdownThrow) {
  ServingHost host({.workers = 0});
  host.register_model("slohost/known", host_gcn);
  EXPECT_THROW(host.submit("slohost/unknown", make_request(8, 1)), Error);
  host.shutdown();
  EXPECT_THROW(host.submit("slohost/known", make_request(8, 1)), Error);
  EXPECT_THROW(host.register_model("slohost/late", host_gcn), Error);
}

// --- priorities under a saturated queue --------------------------------------

TEST(ServingHost, PriorityOrderingUnderSaturatedQueue) {
  // workers = 0: nothing drains the queue until pump(), so the saturation is
  // deterministic. Five requests across three priorities, max_batch = 3,
  // zero wait: the first pump must serve exactly {High, High, Normal}.
  ServingHost host({.workers = 0});
  ModelOptions mo;
  mo.batch.max_batch = 3;
  mo.batch.max_wait_us = 0;
  mo.batch.queue_capacity = 16;
  mo.shed_fraction = 1.0;  // shedding off: this test is about ordering
  host.register_model("slohost/prio", host_gcn, mo);

  const InferenceRequest req = make_request(8, 42);
  auto low1 = host.submit("slohost/prio", copy_of(req), Priority::Low);
  auto low2 = host.submit("slohost/prio", copy_of(req), Priority::Low);
  auto normal = host.submit("slohost/prio", copy_of(req), Priority::Normal);
  auto high1 = host.submit("slohost/prio", copy_of(req), Priority::High);
  auto high2 = host.submit("slohost/prio", copy_of(req), Priority::High);

  ASSERT_TRUE(host.pump());  // one batch: the three highest-priority items
  const auto ready = [](std::future<serve::InferenceResult>& f) {
    return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
  };
  EXPECT_TRUE(ready(high1));
  EXPECT_TRUE(ready(high2));
  EXPECT_TRUE(ready(normal));
  EXPECT_FALSE(ready(low1));
  EXPECT_FALSE(ready(low2));
  EXPECT_EQ(high1.get().batch_size, 3);

  ASSERT_TRUE(host.pump());  // the two Low stragglers
  EXPECT_TRUE(ready(low1));
  EXPECT_TRUE(ready(low2));
  EXPECT_EQ(low1.get().batch_size, 2);
  EXPECT_FALSE(host.pump());  // drained

  const serve::ServerStats s = host.stats("slohost/prio");
  EXPECT_EQ(s.submitted, 5u);
  EXPECT_EQ(s.completed, 5u);
  EXPECT_EQ(s.batches, 2u);
  ASSERT_GT(s.batch_size_hist.size(), 3u);
  EXPECT_EQ(s.batch_size_hist[3], 1u);
  EXPECT_EQ(s.batch_size_hist[2], 1u);
}

// --- admission control -------------------------------------------------------

TEST(ServingHost, SheddingCountedExactly) {
  // capacity 8, shed threshold 0.5 -> Low is shed at depth >= 4. workers = 0
  // keeps the depth exact during admission.
  ServingHost host({.workers = 0});
  ModelOptions mo;
  mo.batch.max_batch = 8;
  mo.batch.max_wait_us = 0;
  mo.batch.queue_capacity = 8;
  mo.shed_fraction = 0.5;
  host.register_model("slohost/shed", host_gcn, mo);

  const InferenceRequest req = make_request(8, 43);
  std::vector<std::future<serve::InferenceResult>> accepted;

  // Below the threshold, Low is admitted like anyone else.
  std::future<serve::InferenceResult> fut;
  ASSERT_EQ(host.try_submit("slohost/shed", copy_of(req), Priority::Low, &fut),
            Admission::Accepted);
  accepted.push_back(std::move(fut));

  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(
        host.try_submit("slohost/shed", copy_of(req), Priority::Normal, &fut),
        Admission::Accepted);
    accepted.push_back(std::move(fut));
  }
  // Depth is now 4 = threshold: every Low submission is shed, exactly.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(host.try_submit("slohost/shed", copy_of(req), Priority::Low, &fut),
              Admission::Shed);
  }
  // Normal and High are not subject to shedding — they fill to capacity...
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(
        host.try_submit("slohost/shed", copy_of(req), Priority::High, &fut),
        Admission::Accepted);
    accepted.push_back(std::move(fut));
  }
  // ...and the queue-full refusal is counted as rejected, not shed.
  EXPECT_EQ(host.try_submit("slohost/shed", copy_of(req), Priority::High, &fut),
            Admission::Rejected);

  serve::ServerStats s = host.stats("slohost/shed");
  EXPECT_EQ(s.submitted, 8u);
  EXPECT_EQ(s.shed, 3u);
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.queue_depth, 8u);

  while (host.pump()) {
  }
  for (auto& f : accepted) f.get();  // everything admitted is served
  s = host.stats("slohost/shed");
  EXPECT_EQ(s.completed, 8u);
  EXPECT_EQ(s.shed, 3u);  // draining does not invent or lose shed counts
}

// --- hot weight reload -------------------------------------------------------

TEST(ServingHost, HotReloadAtomicity) {
  // Stream identical requests through live workers while swapping weights
  // mid-stream. Every single response must equal the v1 or the v2 standalone
  // output bitwise — a torn read (half-old, half-new weights) matches
  // neither and fails loudly.
  const InferenceRequest req = make_request(12, 77);
  const Tensor expected_v1 = run_standalone(host_gcn(), ours(), req);
  const Tensor expected_v2 = run_standalone(host_gcn_v2(), ours(), req);
  ASSERT_FALSE(matches_bitwise(expected_v1, expected_v2))
      << "reload test needs distinguishable weight versions";

  serve::HostConfig cfg;
  cfg.workers = 2;
  ServingHost host(cfg);
  ModelOptions mo;
  mo.batch.max_batch = 4;
  mo.batch.max_wait_us = 100;
  mo.batch.queue_capacity = 256;
  host.register_model("slohost/reload", host_gcn, mo);

  constexpr int kRequests = 48;
  std::vector<std::future<serve::InferenceResult>> futures;
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(host.submit("slohost/reload", copy_of(req)));
    if (i == kRequests / 2) host.reload("slohost/reload", host_gcn_v2);
  }
  int v1 = 0, v2 = 0;
  for (auto& f : futures) {
    const Tensor out = f.get().output;
    if (matches_bitwise(out, expected_v1)) {
      ++v1;
    } else if (matches_bitwise(out, expected_v2)) {
      ++v2;
    } else {
      FAIL() << "response matches neither weight version — torn reload";
    }
  }
  EXPECT_EQ(v1 + v2, kRequests);
  EXPECT_GT(v2, 0) << "post-reload requests must see the new weights";
  host.shutdown();

  const serve::ServerStats s = host.stats("slohost/reload");
  EXPECT_EQ(s.reloads, 1u);
  EXPECT_EQ(s.completed, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(s.failed, 0u);
}

TEST(ServingHost, ReloadRestoresDeterministicWeights) {
  // The api::Model path: register_with() names the model by cache_identity()
  // and its builder re-seeds, so reload() restores pristine init weights and
  // outputs stay bit-identical across the swap.
  GcnConfig gcfg;
  gcfg.in_dim = kInDim;
  gcfg.hidden = {8};
  gcfg.num_classes = kClasses;
  api::CompileOptions co;
  co.init_seed = 777;
  const api::Model model =
      api::Engine(co).compile(std::make_shared<api::Gcn>(gcfg));

  ServingHost host({.workers = 0});
  const std::string name = model.register_with(host);
  EXPECT_EQ(name, model.cache_identity());

  const InferenceRequest req = make_request(9, 21);
  auto before = host.submit(name, copy_of(req));
  while (host.pump()) {
  }
  host.reload(name);
  auto after = host.submit(name, copy_of(req));
  while (host.pump()) {
  }
  expect_bit_identical(after.get().output, before.get().output,
                       "seeded reload changed the weights");
  EXPECT_EQ(host.stats(name).reloads, 1u);
}

// --- SLO controller engagement inside the host -------------------------------

TEST(ServingHost, SloControllerEngagesUnderImpossibleTarget) {
  // A 1 us p99 target is unmeetable, so the controller must shrink the
  // effective max-wait below the static knob — counted, observable via
  // stats(), and clamped at the configured floor.
  serve::HostConfig cfg;
  cfg.workers = 1;
  ServingHost host(cfg);
  ModelOptions mo;
  mo.batch.max_batch = 4;
  mo.batch.max_wait_us = 500;
  mo.slo.enabled = true;
  mo.slo.target_p99_us = 1;
  mo.slo.min_samples = 1;
  mo.slo.window = 16;
  host.register_model("slohost/tight", host_gcn, mo);

  const InferenceRequest req = make_request(8, 5);
  for (int i = 0; i < 12; ++i) {
    host.submit("slohost/tight", copy_of(req)).get();
  }
  host.shutdown();

  const serve::ServerStats s = host.stats("slohost/tight");
  EXPECT_GE(s.slo_shrinks, 1u);
  EXPECT_LT(s.eff_max_wait_us, 500);
  EXPECT_GE(s.eff_max_wait_us, 0);
  EXPECT_GE(s.eff_max_batch, 1);
}

// --- the open-loop load generator --------------------------------------------

TEST(Loadgen, SeededSmokeWithConsistentAccounting) {
  serve::HostConfig cfg;
  cfg.workers = 2;
  ServingHost host(cfg);
  ModelOptions mo;
  mo.batch.max_batch = 4;
  mo.batch.max_wait_us = 100;
  mo.batch.queue_capacity = 16;
  mo.shed_fraction = 0.75;
  host.register_model("slohost/lg-gcn", host_gcn, mo);
  host.register_model("slohost/lg-gat", host_gat, mo);

  std::vector<serve::TrafficClass> classes(2);
  classes[0].model = "slohost/lg-gcn";
  classes[0].weight = 0.7;
  classes[1].model = "slohost/lg-gat";
  classes[1].weight = 0.3;
  for (unsigned i = 0; i < 4; ++i) {
    classes[0].requests.push_back(make_request(8 + 2 * i, 900 + i));
    classes[1].requests.push_back(make_request(8 + 2 * i, 950 + i));
  }

  serve::LoadSpec spec;
  spec.rate_rps = 2000;
  spec.total_requests = 60;
  spec.seed = 7;
  spec.slo_seconds = 0.05;
  spec.high_fraction = 0.2;
  spec.low_fraction = 0.3;

  const serve::LoadReport r = serve::run_open_loop(host, classes, spec);
  host.shutdown();

  EXPECT_EQ(r.offered, 60u);
  EXPECT_EQ(r.offered, r.accepted + r.shed + r.rejected);
  EXPECT_EQ(r.accepted, r.completed + r.failed);
  EXPECT_LE(r.good, r.completed);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_GT(r.wall_seconds, 0.0);
  EXPECT_DOUBLE_EQ(r.slo_seconds, 0.05);
  EXPECT_GE(r.goodput_rps(), 0.0);

  std::uint64_t offered = 0, accepted = 0, shed = 0, rejected = 0,
                completed = 0, good = 0;
  for (const auto& [name, m] : r.models) {
    EXPECT_EQ(m.offered, m.accepted + m.shed + m.rejected) << name;
    EXPECT_EQ(m.accepted, m.completed + m.failed) << name;
    EXPECT_EQ(m.latency.count, m.completed) << name;
    offered += m.offered;
    accepted += m.accepted;
    shed += m.shed;
    rejected += m.rejected;
    completed += m.completed;
    good += m.good;
  }
  EXPECT_EQ(offered, r.offered);
  EXPECT_EQ(accepted, r.accepted);
  EXPECT_EQ(shed, r.shed);
  EXPECT_EQ(rejected, r.rejected);
  EXPECT_EQ(completed, r.completed);
  EXPECT_EQ(good, r.good);

  // The host's own books agree with the client's.
  const serve::HostStats hs = host.stats();
  EXPECT_EQ(hs.total.submitted, r.accepted);
  EXPECT_EQ(hs.total.completed, r.completed);
  EXPECT_EQ(hs.total.shed, r.shed);
  EXPECT_EQ(hs.total.rejected, r.rejected);
}

TEST(Loadgen, LatencyCountsSendLagFromTheDueInstant) {
  // 1e7 rps schedules all 64 arrivals within a few microseconds, faster than
  // one thread can submit them, so the generator falls behind. Timing each
  // request from its due instant charges that lag to the request instead of
  // silently dropping it (coordinated omission): client latency = send lag +
  // the host's own submit-to-result latency, request by request.
  ServingHost host({.workers = 2});
  host.register_model("lag/gcn", host_gcn);
  host.register_model("lag/gat", host_gat);
  std::vector<serve::TrafficClass> classes(2);
  classes[0].model = "lag/gcn";
  classes[0].requests.push_back(make_request(8, 31));
  classes[1].model = "lag/gat";
  classes[1].requests.push_back(make_request(10, 32));
  serve::LoadSpec spec;
  spec.rate_rps = 1e7;
  spec.total_requests = 64;
  spec.seed = 5;
  const serve::LoadReport r = serve::run_open_loop(host, classes, spec);
  host.shutdown();

  // All Normal priority into a 1024-deep queue: every arrival is served.
  ASSERT_EQ(r.completed, r.offered);
  EXPECT_EQ(r.send_lag.count, r.offered);
  EXPECT_GT(r.send_lag.max, 0.0);

  double client_sum = 0, host_sum = 0;
  for (const auto& [name, m] : r.models) {
    const serve::ServerStats s = host.stats(name);
    ASSERT_EQ(m.latency.count, s.latency.count) << name;  // same requests
    EXPECT_GE(m.latency.p99, s.latency.p99) << name;
    client_sum += m.latency.sum;
    host_sum += s.latency.sum;
  }
  EXPECT_NEAR(client_sum, host_sum + r.send_lag.sum, 1e-9);
}

TEST(Loadgen, DecisionSequenceIsSeedDeterministic) {
  // Arrival timestamps are wall-clock, but the (model, template, priority)
  // sequence is a pure function of the seed: the per-model offered counts
  // must replay exactly across runs.
  auto offered_split = [] {
    ServingHost host({.workers = 1});
    ModelOptions mo;
    mo.batch.queue_capacity = 256;
    host.register_model("det/a", host_gcn, mo);
    host.register_model("det/b", host_gat, mo);
    std::vector<serve::TrafficClass> classes(2);
    classes[0].model = "det/a";
    classes[0].weight = 0.5;
    classes[0].requests.push_back(make_request(8, 1));
    classes[1].model = "det/b";
    classes[1].weight = 0.5;
    classes[1].requests.push_back(make_request(8, 2));
    serve::LoadSpec spec;
    spec.rate_rps = 5000;
    spec.total_requests = 40;
    spec.seed = 99;
    const serve::LoadReport r = serve::run_open_loop(host, classes, spec);
    host.shutdown();
    return std::pair<std::uint64_t, std::uint64_t>(
        r.models.at("det/a").offered, r.models.at("det/b").offered);
  };
  // Distinct model names per invocation would collide in the PlanCache name
  // space harmlessly (same builder), so reuse is fine here.
  const auto first = offered_split();
  const auto second = offered_split();
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
  EXPECT_EQ(first.first + first.second, 40u);
}

}  // namespace
}  // namespace triad
