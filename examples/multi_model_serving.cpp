// Example: SLO-aware multi-model serving — N models behind one front door.
//
// A ServingHost registers two models (a GCN and a GAT), each keyed by its
// cache identity into its own PlanCache namespace with its own stats, queue
// and SLO feedback controller. Shared workers drain the per-model queues
// round-robin; every batch is single-model, so outputs stay bit-identical to
// solo execution. On top of the plain batching examples/serving.cpp shows
// with one model, the host's serving policies come into play:
//
//  * priorities + admission control (Low-priority work is shed when queue
//    depth threatens the SLO),
//  * a target-p99 feedback loop steering the effective batching knobs,
//  * hot weight reload without invalidating compiled plans.
//
// An open-loop Poisson load generator (serve/loadgen.h) drives the host the
// way real traffic would — arrivals fire on schedule whether or not earlier
// requests finished — and a weight reload lands mid-run.
//
//   ./multi_model_serving [requests] [rate_rps]
//   ./multi_model_serving 128 600
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "api/triad.h"
#include "serve/host.h"
#include "serve/loadgen.h"

using namespace triad;

namespace {

constexpr std::int64_t kInDim = 8;

std::vector<serve::InferenceRequest> request_pool(std::int64_t points,
                                                  unsigned seed, int count) {
  std::vector<serve::InferenceRequest> pool;
  for (int i = 0; i < count; ++i) {
    Rng rng(seed + static_cast<unsigned>(i));
    const std::int64_t n = points / 2 + (i % 3) * (points / 2);  // mixed sizes
    const Tensor cloud = synthetic_point_cloud(n, 3, i % 8, rng);
    serve::InferenceRequest req;
    req.graph = std::make_shared<const Graph>(n, knn_edges(cloud, 4));
    req.features = Tensor(n, kInDim, MemTag::kInput);
    for (std::int64_t j = 0; j < req.features.numel(); ++j) {
      req.features.data()[j] = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    pool.push_back(std::move(req));
  }
  return pool;
}

}  // namespace

int main(int argc, char** argv) {
  const int requests = argc > 1 ? std::atoi(argv[1]) : 128;
  const double rate = argc > 2 ? std::atof(argv[2]) : 600;

  GcnConfig gcn_cfg;
  gcn_cfg.in_dim = kInDim;
  gcn_cfg.hidden = {16};
  gcn_cfg.num_classes = 8;
  api::Model gcn = api::Engine({.strategy = ours(), .init_seed = 7})
                       .compile(std::make_shared<api::Gcn>(gcn_cfg));
  GatConfig gat_cfg;
  gat_cfg.in_dim = kInDim;
  gat_cfg.hidden = 8;
  gat_cfg.heads = 2;
  gat_cfg.layers = 1;
  gat_cfg.num_classes = 8;
  api::Model gat = api::Engine({.strategy = ours(), .init_seed = 8})
                       .compile(std::make_shared<api::Gat>(gat_cfg));

  serve::ServingHost host({.workers = 2});
  serve::ModelOptions opts;
  opts.batch.max_batch = 8;
  opts.batch.max_wait_us = 4000;    // generous static knob...
  opts.batch.queue_capacity = 64;
  opts.slo.enabled = true;          // ...the SLO controller reins it in
  opts.slo.target_p99_us = 3000;
  opts.shed_fraction = 0.75;        // shed Low priority at 3/4 queue depth
  const std::string gcn_name = gcn.register_with(host, opts);
  const std::string gat_name = gat.register_with(host, opts);
  std::printf("registered %s and %s behind one host (2 workers)\n",
              gcn_name.c_str(), gat_name.c_str());

  std::vector<serve::TrafficClass> classes(2);
  classes[0].model = gcn_name;
  classes[0].weight = 0.6;
  classes[0].requests = request_pool(64, 100, 8);
  classes[1].model = gat_name;
  classes[1].weight = 0.4;
  classes[1].requests = request_pool(64, 200, 8);

  serve::LoadSpec spec;
  spec.rate_rps = rate;
  spec.total_requests = requests;
  spec.seed = 42;
  spec.slo_seconds = 3000e-6;
  spec.high_fraction = 0.1;
  spec.low_fraction = 0.25;

  // Hot reload mid-run from another thread: weights swap atomically per
  // batch while requests stream — compiled plans are untouched.
  std::thread reloader([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    host.reload(gcn_name);
    std::printf("  [reloader] swapped %s weights mid-run\n", gcn_name.c_str());
  });
  const serve::LoadReport r = serve::run_open_loop(host, classes, spec);
  reloader.join();
  host.shutdown();

  std::printf("\nopen-loop run: %llu offered (%.0f rps), %llu accepted, "
              "%llu shed, %llu rejected\n",
              static_cast<unsigned long long>(r.offered), r.offered_rps(),
              static_cast<unsigned long long>(r.accepted),
              static_cast<unsigned long long>(r.shed),
              static_cast<unsigned long long>(r.rejected));
  std::printf("goodput: %.0f req/s within the %.1f ms SLO (%llu/%llu "
              "completed)\n",
              r.goodput_rps(), spec.slo_seconds * 1e3,
              static_cast<unsigned long long>(r.good),
              static_cast<unsigned long long>(r.completed));
  for (const auto& [name, m] : r.models) {
    std::printf("  %-20s p50 %.2f ms  p95 %.2f ms  p99 %.2f ms  "
                "(%llu completed, %llu good)\n",
                name.c_str(), m.latency.p50 * 1e3, m.latency.p95 * 1e3,
                m.latency.p99 * 1e3,
                static_cast<unsigned long long>(m.completed),
                static_cast<unsigned long long>(m.good));
  }
  const serve::HostStats hs = host.stats();
  std::printf("SLO controller: %llu shrinks, %llu grows; reloads: %llu\n",
              static_cast<unsigned long long>(hs.total.slo_shrinks),
              static_cast<unsigned long long>(hs.total.slo_grows),
              static_cast<unsigned long long>(hs.total.reloads));
  std::printf("plan cache: %zu entries, %zu hits, %zu misses — reload "
              "invalidated nothing\n",
              PlanCache::global().size(), PlanCache::global().hits(),
              PlanCache::global().misses());
  return 0;
}
