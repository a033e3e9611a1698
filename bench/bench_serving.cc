// bench_serving: throughput and tail latency of the batched serving runtime.
//
// Not a paper figure — this measures the serving layer on top of the
// reproduction: a fixed population of inference requests (one k-NN point
// cloud each) is pushed through a ServingHost with one registered model, once
// with batching disabled (max_batch=1, the sequential baseline) and once with
// max_batch=B. Batched execution is bit-identical to sequential
// execution (tests/test_serving.cc), so every difference between the rows is
// pure serving policy: batch amortization of per-run overhead and plan-cache
// reuse across batch shapes.
//
// JSON rows keep the shared BENCH schema semantics: run_seconds is seconds
// per request (inverse throughput, so speedup stays higher-is-better), and
// the serving SLO numbers — throughput_rps, mean latency, p50/p95/p99 —
// ride in the extra fields of each row.
//
// Flags (besides the common ones): --requests=N --max-batch=B
// --max-wait-us=U --workers=W --knn=K.
#include <algorithm>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"

using namespace triad;
using namespace triad::bench;

namespace {

struct ServeOptions {
  int requests = 64;
  int max_batch = 8;
  long max_wait_us = 200;
  int workers = 2;
  int knn = 4;

  static ServeOptions parse(int argc, char** argv) {
    ServeOptions o;
    for (int i = 1; i < argc; ++i) {
      auto val = [&](const char* flag) { return flag_value(argv[i], flag); };
      if (const char* v = val("--requests")) o.requests = std::atoi(v);
      if (const char* v = val("--max-batch")) o.max_batch = std::atoi(v);
      if (const char* v = val("--max-wait-us")) o.max_wait_us = std::atol(v);
      if (const char* v = val("--workers")) o.workers = std::atoi(v);
      if (const char* v = val("--knn")) o.knn = std::atoi(v);
    }
    return o;
  }
};

constexpr std::int64_t kInDim = 16;

api::Model serving_model(const Options& opt) {
  GcnConfig cfg;
  cfg.in_dim = kInDim;
  cfg.hidden = {32};
  cfg.num_classes = 8;
  api::CompileOptions co;
  co.shards = opt.shards;
  co.init_seed = 4242;  // fixed: every cache-miss compile gets identical weights
  return api::Engine(co).compile(std::make_shared<api::Gcn>(cfg));
}

}  // namespace

int main(int argc, char** argv) {
  Options opt = Options::parse(argc, argv);
  const ServeOptions so = ServeOptions::parse(argc, argv);
  const std::int64_t points = opt.points;

  // Fixed request population, reused (by shallow tensor/graph handles) for
  // every configuration so the rows serve identical traffic.
  std::vector<serve::InferenceRequest> requests;
  requests.reserve(static_cast<std::size_t>(so.requests));
  for (int i = 0; i < so.requests; ++i) {
    Rng rng(opt.seed + static_cast<unsigned>(i));
    const Tensor cloud = synthetic_point_cloud(points, 3, i % 8, rng);
    serve::InferenceRequest req;
    req.graph =
        std::make_shared<const Graph>(points, knn_edges(cloud, so.knn));
    req.features = Tensor(points, kInDim, MemTag::kInput);
    for (std::int64_t j = 0; j < req.features.numel(); ++j) {
      req.features.data()[j] = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    requests.push_back(std::move(req));
  }

  std::printf("\n=== serving: batched GCN inference over %d k-NN clouds "
              "(%lld points, k=%d) ===\n",
              so.requests, static_cast<long long>(points), so.knn);
  std::printf("%-22s %-14s %12s %12s %10s %10s %10s %12s %10s\n", "workload",
              "config", "thruput(r/s)", "mean(ms)", "p50(ms)", "p95(ms)",
              "p99(ms)", "mean-batch", "plans");

  JsonReport report("serving", opt);
  Measurement base;
  const std::string workload =
      "gcn/knn-cloud" + std::to_string(points);
  std::vector<int> configs{1};  // sequential baseline first
  if (so.max_batch != 1) configs.push_back(so.max_batch);
  const api::Model model = serving_model(opt);
  for (const int max_batch : configs) {
    serve::ModelOptions mo;
    mo.batch.max_batch = max_batch;
    mo.batch.max_wait_us = so.max_wait_us;
    mo.batch.queue_capacity = static_cast<std::size_t>(so.requests) + 1;

    // A fresh one-model host per row, so every row starts from empty stats.
    // At least one worker: a host without workers serves only on pump().
    serve::ServingHost host({.workers = std::max(1, so.workers)});
    const std::string name = model.register_with(host, mo);
    std::vector<std::future<serve::InferenceResult>> futures;
    futures.reserve(requests.size());
    Timer wall;
    for (const serve::InferenceRequest& req : requests) {
      serve::InferenceRequest copy;
      copy.graph = req.graph;
      copy.features = req.features;  // shallow handle; payload is shared
      futures.push_back(host.submit(name, std::move(copy)));
    }
    for (auto& f : futures) f.get();
    const double wall_seconds = wall.seconds();
    host.shutdown();
    const serve::ServerStats stats = host.stats(name);

    Measurement m;
    // Keep the shared-schema semantics of run_seconds ("time per unit of
    // work", like the per-step mean of the figure benches): seconds per
    // request = inverse throughput, so the standard speedup field stays
    // higher-is-better. Request *latency* (a different quantity under
    // batching) is reported in the extra fields.
    m.seconds = wall_seconds / so.requests;
    m.counters = stats.counters;
    m.io_bytes = stats.counters.io_bytes() /
                 static_cast<std::uint64_t>(so.requests);
    m.peak_bytes = stats.pool_peak_bytes;
    m.shards = opt.shards;
    if (max_batch == 1) base = m;

    char extra[512];
    std::snprintf(
        extra, sizeof extra,
        "\"requests\": %d, \"max_batch\": %d, \"max_wait_us\": %ld, "
        "\"workers\": %d, \"throughput_rps\": %.2f, \"mean_latency_ms\": %.3f, "
        "\"p50_ms\": %.3f, \"p95_ms\": %.3f, \"p99_ms\": %.3f, "
        "\"mean_batch_size\": %.2f, \"batches\": %llu, \"wall_seconds\": %.4f",
        so.requests, max_batch, so.max_wait_us, so.workers,
        stats.throughput_rps(), stats.latency.mean() * 1e3,
        stats.latency.p50 * 1e3, stats.latency.p95 * 1e3,
        stats.latency.p99 * 1e3, stats.mean_batch_size(),
        static_cast<unsigned long long>(stats.batches), wall_seconds);
    const std::string config_name = "max_batch=" + std::to_string(max_batch);
    report.add(workload, config_name, m, base, extra);

    std::printf("%-22s %-14s %12.1f %12.3f %10.3f %10.3f %10.3f %12.2f %10llu\n",
                workload.c_str(), config_name.c_str(), stats.throughput_rps(),
                stats.latency.mean() * 1e3, stats.latency.p50 * 1e3,
                stats.latency.p95 * 1e3, stats.latency.p99 * 1e3,
                stats.mean_batch_size(),
                static_cast<unsigned long long>(stats.counters.plan_compiles));
  }
  std::printf("(requests=%d workers=%d max-wait=%ldus shards=%d; batched rows "
              "serve identical traffic, outputs bit-identical to "
              "max_batch=1)\n",
              so.requests, so.workers, so.max_wait_us, opt.shards);
  std::printf("plan cache: %zu entries, %zu hits, %zu misses\n",
              PlanCache::global().size(), PlanCache::global().hits(),
              PlanCache::global().misses());
  report.write();
  return 0;
}
