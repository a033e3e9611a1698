// bench_serving_slo: goodput-under-SLO of the multi-model serving host.
//
// An open-loop load harness (serve/loadgen.h) fires seeded Poisson arrivals
// over a two-model mix (GCN + GAT, mixed graph sizes, a High/Normal/Low
// priority split) at a ServingHost, and the figure of merit is *goodput* —
// requests completed within the SLO per second — not raw throughput. Two
// configurations serve the identical traffic sequence:
//
//   static        the plain max-batch/max-wait policy. A max-wait generous
//                 enough to fill batches inflates every request's tail by the
//                 wait itself.
//   slo-adaptive  the same base policy with the target-p99 feedback
//                 controller (serve/slo.h) engaged: observed tail above the
//                 target shrinks the effective max-wait (then max-batch)
//                 until p99 fits, and grows it back when there is headroom.
//
// The JSON rows carry goodput_rps, per-model latency percentiles, shed /
// rejected counts from admission control, the controller's shrink/grow
// counters (proof the mechanism engaged even when the rows tie), and the
// batch-size distribution. run_seconds keeps the shared-schema meaning of
// seconds per unit work (inverse goodput) so speedup stays higher-is-better.
//
// Flags (besides the common ones): --requests=N --rate=RPS --max-batch=B
// --max-wait-us=U --workers=W --knn=K --slo-us=T --high-frac=F --low-frac=F.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "serve/host.h"
#include "serve/loadgen.h"

using namespace triad;
using namespace triad::bench;

namespace {

struct SloOptions {
  int requests = 192;
  double rate = 400;       // aggregate offered load (requests/second)
  int max_batch = 8;
  long max_wait_us = 5000; // deliberately generous: the static policy's sin
  int workers = 2;
  int knn = 4;
  long slo_us = 2000;      // the p99 target the controller steers to
  double high_frac = 0.1;
  double low_frac = 0.2;

  static SloOptions parse(int argc, char** argv) {
    SloOptions o;
    for (int i = 1; i < argc; ++i) {
      auto val = [&](const char* flag) { return flag_value(argv[i], flag); };
      if (const char* v = val("--requests")) o.requests = std::atoi(v);
      if (const char* v = val("--rate")) o.rate = std::atof(v);
      if (const char* v = val("--max-batch")) o.max_batch = std::atoi(v);
      if (const char* v = val("--max-wait-us")) o.max_wait_us = std::atol(v);
      if (const char* v = val("--workers")) o.workers = std::atoi(v);
      if (const char* v = val("--knn")) o.knn = std::atoi(v);
      if (const char* v = val("--slo-us")) o.slo_us = std::atol(v);
      if (const char* v = val("--high-frac")) o.high_frac = std::atof(v);
      if (const char* v = val("--low-frac")) o.low_frac = std::atof(v);
    }
    return o;
  }
};

constexpr std::int64_t kInDim = 16;

api::Model gcn_model(const Options& opt) {
  GcnConfig cfg;
  cfg.in_dim = kInDim;
  cfg.hidden = {32};
  cfg.num_classes = 8;
  api::CompileOptions co;
  co.shards = opt.shards;
  co.init_seed = 4242;
  return api::Engine(co).compile(std::make_shared<api::Gcn>(cfg));
}

api::Model gat_model(const Options& opt) {
  GatConfig cfg;
  cfg.in_dim = kInDim;
  cfg.hidden = 16;
  cfg.heads = 2;
  cfg.layers = 1;
  cfg.num_classes = 8;
  api::CompileOptions co;
  co.shards = opt.shards;
  co.init_seed = 4243;
  return api::Engine(co).compile(std::make_shared<api::Gat>(cfg));
}

/// Mixed-size request pool: point clouds at 1/2x, 1x and 2x `points` so the
/// host sees several batch shapes per model (each compiles once, ever).
std::vector<serve::InferenceRequest> request_pool(std::int64_t points, int knn,
                                                  unsigned seed, int count) {
  std::vector<serve::InferenceRequest> pool;
  pool.reserve(static_cast<std::size_t>(count));
  const std::int64_t sizes[3] = {std::max<std::int64_t>(8, points / 2), points,
                                 points * 2};
  for (int i = 0; i < count; ++i) {
    Rng rng(seed + static_cast<unsigned>(i));
    const std::int64_t n = sizes[i % 3];
    const Tensor cloud = synthetic_point_cloud(n, 3, i % 8, rng);
    serve::InferenceRequest req;
    req.graph = std::make_shared<const Graph>(n, knn_edges(cloud, knn));
    req.features = Tensor(n, kInDim, MemTag::kInput);
    for (std::int64_t j = 0; j < req.features.numel(); ++j) {
      req.features.data()[j] = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    pool.push_back(std::move(req));
  }
  return pool;
}

const serve::LoadModelReport& report_model(const serve::LoadReport& lr,
                                           const std::string& name) {
  static const serve::LoadModelReport empty;
  const auto it = lr.models.find(name);
  return it != lr.models.end() ? it->second : empty;
}

std::string hist_json(const std::vector<std::uint64_t>& hist) {
  std::string out = "[";
  for (std::size_t i = 0; i < hist.size(); ++i) {
    out += (i ? ", " : "") + std::to_string(hist[i]);
  }
  return out + "]";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt = Options::parse(argc, argv);
  const SloOptions so = SloOptions::parse(argc, argv);

  const api::Model gcn = gcn_model(opt);
  const api::Model gat = gat_model(opt);

  // One request pool per model, shared (shallow handles) by both
  // configurations so the rows serve identical traffic.
  std::vector<serve::TrafficClass> classes(2);
  classes[0].weight = 0.6;
  classes[0].requests = request_pool(opt.points, so.knn, opt.seed, 12);
  classes[1].weight = 0.4;
  classes[1].requests = request_pool(opt.points, so.knn, opt.seed + 100, 12);

  serve::LoadSpec spec;
  spec.rate_rps = so.rate;
  spec.total_requests = so.requests;
  spec.seed = opt.seed;
  spec.slo_seconds = static_cast<double>(so.slo_us) * 1e-6;
  spec.high_fraction = so.high_frac;
  spec.low_fraction = so.low_frac;

  std::printf("\n=== serving-slo: 2-model open-loop Poisson load "
              "(%d arrivals @ %.0f rps, SLO p99 <= %ld us) ===\n",
              so.requests, so.rate, so.slo_us);
  std::printf("%-14s %12s %12s %10s %8s %8s %8s %10s %10s\n", "config",
              "goodput(r/s)", "offered(r/s)", "good", "shed", "reject",
              "failed", "shrinks", "eff-wait");

  JsonReport report("serving_slo", opt);
  Measurement base;
  for (const bool adaptive : {false, true}) {
    serve::HostConfig host_cfg;
    host_cfg.workers = so.workers;
    serve::ServingHost host(host_cfg);

    serve::ModelOptions mo;
    mo.batch.max_batch = so.max_batch;
    mo.batch.max_wait_us = so.max_wait_us;
    mo.batch.queue_capacity = 64;
    mo.slo.enabled = adaptive;
    mo.slo.target_p99_us = so.slo_us;
    classes[0].model = gcn.register_with(host, mo);
    classes[1].model = gat.register_with(host, mo);

    const serve::LoadReport lr = serve::run_open_loop(host, classes, spec);
    host.shutdown();
    const serve::HostStats hs = host.stats();

    Measurement m;
    // Inverse goodput: seconds per SLO-compliant request, so the standard
    // speedup field reads "x more goodput than static".
    m.seconds = lr.good > 0 ? lr.wall_seconds / static_cast<double>(lr.good)
                            : lr.wall_seconds;
    m.counters = hs.total.counters;
    m.peak_bytes = hs.total.pool_peak_bytes;
    m.shards = opt.shards;
    if (!adaptive) base = m;

    std::string models_json = "[";
    bool first = true;
    for (const auto& [name, ms] : hs.models) {
      const serve::LoadModelReport& lm = report_model(lr, name);
      char buf[640];
      std::snprintf(
          buf, sizeof buf,
          "{\"model\": \"%s\", \"offered\": %llu, \"accepted\": %llu, "
          "\"shed\": %llu, \"rejected\": %llu, \"completed\": %llu, "
          "\"failed\": %llu, \"good\": %llu, \"p50_ms\": %.3f, "
          "\"p95_ms\": %.3f, \"p99_ms\": %.3f, \"mean_batch_size\": %.2f, "
          "\"slo_shrinks\": %llu, \"slo_grows\": %llu, "
          "\"eff_max_wait_us\": %lld, \"eff_max_batch\": %d, "
          "\"batch_size_hist\": %s}",
          name.c_str(), static_cast<unsigned long long>(lm.offered),
          static_cast<unsigned long long>(lm.accepted),
          static_cast<unsigned long long>(lm.shed),
          static_cast<unsigned long long>(lm.rejected),
          static_cast<unsigned long long>(lm.completed),
          static_cast<unsigned long long>(lm.failed),
          static_cast<unsigned long long>(lm.good), lm.latency.p50 * 1e3,
          lm.latency.p95 * 1e3, lm.latency.p99 * 1e3, ms.mean_batch_size(),
          static_cast<unsigned long long>(ms.slo_shrinks),
          static_cast<unsigned long long>(ms.slo_grows),
          static_cast<long long>(ms.eff_max_wait_us), ms.eff_max_batch,
          hist_json(ms.batch_size_hist).c_str());
      models_json += (first ? "" : ", ") + std::string(buf);
      first = false;
    }
    models_json += "]";

    char extra[1024];
    std::snprintf(
        extra, sizeof extra,
        "\"requests\": %d, \"rate_rps\": %.1f, \"max_batch\": %d, "
        "\"max_wait_us\": %ld, \"workers\": %d, \"slo_target_us\": %ld, "
        "\"slo_adaptive\": %s, \"goodput_rps\": %.2f, \"offered_rps\": %.2f, "
        "\"offered\": %llu, \"accepted\": %llu, \"shed\": %llu, "
        "\"rejected\": %llu, \"completed\": %llu, \"failed\": %llu, "
        "\"good\": %llu, \"slo_shrinks\": %llu, \"slo_grows\": %llu, "
        "\"send_lag_p99_ms\": %.3f, \"send_lag_max_ms\": %.3f, "
        "\"wall_seconds\": %.4f",
        so.requests, so.rate, so.max_batch, so.max_wait_us, so.workers,
        so.slo_us, adaptive ? "true" : "false", lr.goodput_rps(),
        lr.offered_rps(), static_cast<unsigned long long>(lr.offered),
        static_cast<unsigned long long>(lr.accepted),
        static_cast<unsigned long long>(lr.shed),
        static_cast<unsigned long long>(lr.rejected),
        static_cast<unsigned long long>(lr.completed),
        static_cast<unsigned long long>(lr.failed),
        static_cast<unsigned long long>(lr.good),
        static_cast<unsigned long long>(hs.total.slo_shrinks),
        static_cast<unsigned long long>(hs.total.slo_grows),
        lr.send_lag.p99 * 1e3, lr.send_lag.max * 1e3, lr.wall_seconds);
    const std::string config_name = adaptive ? "slo-adaptive" : "static";
    report.add("gcn+gat/mixed-cloud", config_name, m, base,
               std::string(extra) + ", \"models\": " + models_json);

    // The per-model effective wait after the run; static rows stay at base.
    long long eff_wait = 0;
    for (const auto& [name, ms] : hs.models) {
      eff_wait = std::max(eff_wait, static_cast<long long>(ms.eff_max_wait_us));
    }
    std::printf("%-14s %12.1f %12.1f %10llu %8llu %8llu %8llu %10llu %10lld\n",
                config_name.c_str(), lr.goodput_rps(), lr.offered_rps(),
                static_cast<unsigned long long>(lr.good),
                static_cast<unsigned long long>(lr.shed),
                static_cast<unsigned long long>(lr.rejected),
                static_cast<unsigned long long>(lr.failed),
                static_cast<unsigned long long>(hs.total.slo_shrinks),
                eff_wait);
  }
  std::printf("(identical seeded traffic per row; goodput counts only "
              "requests completing within the SLO; shed = Low-priority "
              "admission control)\n");
  report.write();
  return 0;
}
