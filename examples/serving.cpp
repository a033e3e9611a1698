// Example: batched inference serving — the compile-once/serve-many stack as
// an application.
//
// One model registered on a ServingHost wraps the whole pipeline: requests
// (here, k-NN point clouds) enter a bounded queue, worker threads pack them
// into block-diagonal batch graphs under a max-batch/max-wait policy, each
// distinct batch shape is compiled exactly once into an immutable
// ExecutionPlan via the process-wide PlanCache, and the workers execute plans
// concurrently. Outputs are bit-identical to running every request alone —
// batching is a latency/throughput policy, not an approximation.
// examples/multi_model_serving.cpp puts a second model on the same host.
//
//   ./serving [requests] [max_batch]
//   ./serving 32 8
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "api/triad.h"

using namespace triad;

namespace {

constexpr std::int64_t kPoints = 96;
constexpr std::int64_t kInDim = 8;

serve::InferenceRequest make_request(unsigned seed) {
  Rng rng(seed);
  const Tensor cloud = synthetic_point_cloud(kPoints, 3, seed % 8, rng);
  serve::InferenceRequest req;
  req.graph = std::make_shared<const Graph>(kPoints, knn_edges(cloud, 4));
  req.features = Tensor(kPoints, kInDim, MemTag::kInput);
  for (std::int64_t i = 0; i < req.features.numel(); ++i) {
    req.features.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return req;
}

}  // namespace

int main(int argc, char** argv) {
  const int requests = argc > 1 ? std::atoi(argv[1]) : 32;
  const int max_batch = argc > 2 ? std::atoi(argv[2]) : 8;

  GcnConfig cfg;
  cfg.in_dim = kInDim;
  cfg.hidden = {16};
  cfg.num_classes = 8;
  // init_seed makes the served weights deterministic; a real deployment
  // bakes trained ones into the module's init tensors.
  api::Model model = api::Engine({.strategy = ours(), .init_seed = 7})
                         .compile(std::make_shared<api::Gcn>(cfg));

  serve::ServingHost host({.workers = 2});
  serve::ModelOptions opts;
  opts.batch.max_batch = max_batch;
  opts.batch.max_wait_us = 300;
  // register_with names the model by its cache identity and returns it.
  const std::string name = model.register_with(host, opts);
  std::printf("serving %d point-cloud requests (max_batch=%d, 2 workers, "
              "model %s)\n",
              requests, max_batch, name.c_str());

  std::vector<std::future<serve::InferenceResult>> futures;
  for (int i = 0; i < requests; ++i) {
    futures.push_back(
        host.submit(name, make_request(100 + static_cast<unsigned>(i))));
  }
  for (int i = 0; i < requests; ++i) {
    const serve::InferenceResult res = futures[static_cast<std::size_t>(i)].get();
    if (i < 5 || i == requests - 1) {
      std::printf("  request %2d: %lld logit rows, %.3f ms latency, rode a "
                  "batch of %d\n",
                  i, static_cast<long long>(res.output.rows()),
                  res.latency_seconds * 1e3, res.batch_size);
    } else if (i == 5) {
      std::printf("  ...\n");
    }
  }
  host.shutdown();

  const serve::ServerStats stats = host.stats(name);
  std::printf(
      "\nserved %llu requests in %llu batches (mean batch %.2f): "
      "%.0f req/s, p50 %.3f ms, p95 %.3f ms, p99 %.3f ms\n",
      static_cast<unsigned long long>(stats.completed),
      static_cast<unsigned long long>(stats.batches), stats.mean_batch_size(),
      stats.throughput_rps(), stats.latency.p50 * 1e3, stats.latency.p95 * 1e3,
      stats.latency.p99 * 1e3);
  std::printf("plan cache: %zu entries, %zu hits, %zu misses — one compile "
              "per distinct batch shape, ever\n",
              PlanCache::global().size(), PlanCache::global().hits(),
              PlanCache::global().misses());
  return 0;
}
