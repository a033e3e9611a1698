// Serving workload: serve-mix-openloop.
//
// A ServingHost with two workers serves a GCN + GAT mix (the models of
// bench_serving_slo) under a static batching policy, SLO controller off. The
// traffic is open loop: a seeded Poisson schedule of mixed-size k-NN cloud
// requests, all Normal priority, fixed before anything is sent, each request
// fired with try_submit at its due instant and timed from that instant
// (send lag + the host's own latency).
//
// Set-up (host construction, model registration, PlanCache warm-up over every
// batch shape the traffic can produce) is timed and repeated. A traced run
// serves half its budget untraced, half with a span around every try_submit,
// then replays the observed batch sizes through serve::collate, the
// PlanCache, PlanRunner::run and serve::decollate with a span around each.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "api/triad.h"
#include "bench.h"
#include "graph/knn.h"
#include "serve/host.h"

namespace perfbench {
namespace {

using namespace triad;
using serve::InferenceRequest;

constexpr int kSetupRepeats = 15;
constexpr std::int64_t kInDim = 16;
constexpr std::int64_t kPoints = 256;  // request sizes: 128, 256, 512 points
constexpr std::int64_t kKnn = 4;
constexpr int kTemplates = 96;         // request templates per model
constexpr int kMaxBatch = 8;
constexpr long kMaxWaitUs = 500;
constexpr int kWorkers = 2;
// About half the saturation throughput: a 4-vCPU VM saturated at 6k-11k
// requests/s depending on load from co-located guests.
constexpr double kRateRps = 3000;
constexpr double kSloSeconds = 0.010;  // goodput threshold
constexpr int kSampled = 48;           // responses checked against solo runs
constexpr int kReplayBatches = 400;

struct ServedModel {
  std::shared_ptr<const api::Module> module;
  unsigned init_seed = 0;
  double weight = 0;  // traffic share
  std::vector<InferenceRequest> templates;
  std::optional<api::Model> model;  // unsharded ours(); the solo reference
  std::string name;   // host registration name (cache identity)

  ModelGraph build() const {
    Rng rng(init_seed);
    return module->build(rng);
  }
};

std::vector<InferenceRequest> request_templates(std::uint64_t seed) {
  std::vector<InferenceRequest> out;
  const std::int64_t sizes[3] = {kPoints / 2, kPoints, kPoints * 2};
  for (int i = 0; i < kTemplates; ++i) {
    Rng rng(seed * 7919 + static_cast<std::uint64_t>(i));
    const std::int64_t n = sizes[i % 3];
    const Tensor cloud = synthetic_point_cloud(n, 3, i % 8, rng);
    InferenceRequest req;
    req.graph = std::make_shared<const Graph>(n, knn_edges(cloud, kKnn));
    req.features = Tensor(n, kInDim, MemTag::kInput);
    for (std::int64_t j = 0; j < req.features.numel(); ++j) {
      req.features.data()[j] = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    out.push_back(std::move(req));
  }
  return out;
}

std::vector<ServedModel> served_models(std::uint64_t seed) {
  GcnConfig gcn;
  gcn.in_dim = kInDim;
  gcn.hidden = {32};
  gcn.num_classes = 8;
  GatConfig gat;
  gat.in_dim = kInDim;
  gat.hidden = 16;
  gat.heads = 2;
  gat.layers = 1;
  gat.num_classes = 8;
  std::vector<ServedModel> models(2);
  models[0].module = std::make_shared<api::Gcn>(gcn);
  models[0].init_seed = 4242;
  models[0].weight = 0.6;
  models[1].module = std::make_shared<api::Gat>(gat);
  models[1].init_seed = 4243;
  models[1].weight = 0.4;
  for (std::size_t m = 0; m < models.size(); ++m) {
    ServedModel& sm = models[m];
    sm.templates = request_templates(seed + 100 * m);
    api::CompileOptions co;
    co.init_seed = sm.init_seed;
    sm.model.emplace(api::Engine(co).compile(sm.module));
    sm.name = sm.model->cache_identity();
  }
  return models;
}

/// The PlanCache key ServingHost uses for a batch of this shape.
PlanKey batch_key(const ServedModel& m, const serve::CollatedBatch& cb) {
  return PlanKey{m.name,           ours().name,      /*training=*/false,
                 cb.num_vertices(), cb.num_edges(), cb.features.cols()};
}

std::shared_ptr<const Compiled> plan_for(const ServedModel& m,
                                         const serve::CollatedBatch& cb) {
  return PlanCache::global().get_or_compile(batch_key(m, cb), ours(), false,
                                            *cb.graph, [&m] { return m.build(); });
}

/// Compile-time totals of the plans a warm-up built.
struct WarmupStats {
  int plans = 0;
  double pass_seconds = 0;
  double plan_seconds = 0;
};

/// Compiles every batch shape the traffic can produce: each multiset of up to
/// kMaxBatch templates, one per distinct collated (|V|, |E|).
void warm_plan_cache(const ServedModel& m, WarmupStats* stats) {
  std::map<std::pair<std::int64_t, std::int64_t>, const InferenceRequest*> shapes;
  for (const InferenceRequest& r : m.templates) {
    shapes.emplace(std::make_pair(r.graph->num_vertices(), r.graph->num_edges()), &r);
  }
  std::vector<const InferenceRequest*> kinds;
  for (const auto& [shape, r] : shapes) kinds.push_back(r);
  std::set<std::pair<std::int64_t, std::int64_t>> done;
  std::vector<const InferenceRequest*> batch;
  // Multisets as non-decreasing index sequences.
  auto visit = [&](auto& self, std::size_t from) -> void {
    if (!batch.empty()) {
      std::int64_t v = 0, e = 0;
      for (const InferenceRequest* r : batch) {
        v += r->graph->num_vertices();
        e += r->graph->num_edges();
      }
      if (done.insert({v, e}).second) {
        const std::shared_ptr<const Compiled> c = plan_for(m, serve::collate(batch));
        ++stats->plans;
        stats->pass_seconds += c->stats.pass_seconds;
        stats->plan_seconds += c->stats.plan_seconds;
      }
    }
    if (batch.size() == static_cast<std::size_t>(kMaxBatch)) return;
    for (std::size_t k = from; k < kinds.size(); ++k) {
      batch.push_back(kinds[k]);
      self(self, k);
      batch.pop_back();
    }
  };
  visit(visit, 0);
}

serve::ModelOptions model_options() {
  serve::ModelOptions mo;
  mo.batch.max_batch = kMaxBatch;
  mo.batch.max_wait_us = kMaxWaitUs;
  mo.batch.queue_capacity = 256;
  mo.slo.enabled = false;
  return mo;
}

std::unique_ptr<serve::ServingHost> set_up(std::vector<ServedModel>& models,
                                           Tracer& tr, double* seconds,
                                           WarmupStats* warmup) {
  const std::int64_t t0 = now_ns();
  std::unique_ptr<serve::ServingHost> host;
  {
    Span setup(tr, "setup");
    {
      Span span(tr, "serve.host");
      serve::HostConfig cfg;
      cfg.workers = kWorkers;
      host = std::make_unique<serve::ServingHost>(cfg);
    }
    for (ServedModel& m : models) {
      Span span(tr, "serve.register");
      m.model->register_with(*host, model_options());
    }
    for (const ServedModel& m : models) {
      Span span(tr, "baselines.plan_cache_warmup");
      warm_plan_cache(m, warmup);
    }
  }
  *seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  return host;
}

struct Arrival {
  double due = 0;  // seconds from the schedule start
  std::size_t model = 0;
  std::size_t request = 0;
  bool sampled = false;  // response checked against a solo run
};

std::vector<Arrival> schedule(Rng& rng, const std::vector<ServedModel>& models,
                              double rate, double seconds) {
  std::vector<Arrival> out;
  double t = 0;
  for (;;) {
    t += -std::log(std::max(rng.uniform(), 1e-12)) / rate;
    if (t >= seconds) break;
    Arrival a;
    a.due = t;
    a.model = rng.uniform() < models[0].weight ? 0 : 1;
    a.request = rng.uniform_int(models[a.model].templates.size());
    out.push_back(a);
  }
  // A seeded sample of responses is kept for the bit-identity check.
  for (int i = 0; i < kSampled && !out.empty(); ++i) {
    out[rng.uniform_int(out.size())].sampled = true;
  }
  return out;
}

/// What one open-loop phase observed.
struct Phase {
  std::uint64_t offered = 0, accepted = 0, shed = 0, rejected = 0;
  std::uint64_t completed = 0, failed = 0, good = 0;
  std::vector<double> latency_s, send_lag_s, queue_wait_s, batch_s, batch_size;
  double wall_seconds = 0;
  std::uint64_t plan_cache_misses = 0;
  struct Kept {
    std::size_t model = 0, request = 0;
    Tensor output;
  };
  std::vector<Kept> kept;
};

Phase serve_open_loop(serve::ServingHost& host,
                      const std::vector<ServedModel>& models,
                      const std::vector<Arrival>& arrivals, Tracer& tr) {
  struct InFlight {
    std::future<serve::InferenceResult> future;
    const Arrival* arrival = nullptr;
    double lag = 0;
  };
  Phase p;
  std::vector<InFlight> in_flight;
  in_flight.reserve(arrivals.size());
  const std::size_t misses_before = PlanCache::global().misses();
  using clock = std::chrono::steady_clock;
  const clock::time_point start = clock::now();
  for (const Arrival& a : arrivals) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<clock::duration>(
                    std::chrono::duration<double>(a.due)));
    const double lag =
        std::chrono::duration<double>(clock::now() - start).count() - a.due;
    const ServedModel& m = models[a.model];
    std::future<serve::InferenceResult> fut;
    serve::Admission verdict;
    {
      Span span(tr, "serve.try_submit");
      verdict = host.try_submit(m.name, m.templates[a.request],
                                serve::Priority::Normal, &fut);
    }
    ++p.offered;
    p.send_lag_s.push_back(lag);
    switch (verdict) {
      case serve::Admission::Accepted:
        ++p.accepted;
        in_flight.push_back({std::move(fut), &a, lag});
        break;
      case serve::Admission::Shed:
        ++p.shed;
        break;
      default:
        ++p.rejected;
        break;
    }
  }
  for (InFlight& f : in_flight) {
    try {
      serve::InferenceResult r = f.future.get();
      ++p.completed;
      const double latency = f.lag + r.latency_seconds;
      if (latency <= kSloSeconds) ++p.good;
      p.latency_s.push_back(latency);
      p.queue_wait_s.push_back(r.latency_seconds - r.batch_seconds);
      p.batch_s.push_back(r.batch_seconds);
      p.batch_size.push_back(r.batch_size);
      if (f.arrival->sampled) {
        p.kept.push_back({f.arrival->model, f.arrival->request, std::move(r.output)});
      }
    } catch (const std::exception&) {
      ++p.failed;
    }
  }
  p.wall_seconds = std::chrono::duration<double>(clock::now() - start).count();
  p.plan_cache_misses = PlanCache::global().misses() - misses_before;
  return p;
}

/// Runs `req` alone through its own compiled plan — the reference a batched
/// response must equal bit for bit.
Tensor solo(const ServedModel& m, const InferenceRequest& req, MemoryPool* pool) {
  const std::shared_ptr<const Compiled> c = m.model->compiled(*req.graph, false);
  PlanRunner runner(*req.graph, c->plan, pool);
  runner.bind(c->features, req.features);
  for (std::size_t i = 0; i < c->params.size(); ++i) {
    runner.bind(c->params[i], c->init[i]);
  }
  runner.run();
  return runner.take_result(c->output);
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

/// Replays batches of the observed sizes through the public calls a host
/// worker makes, with a span around each call.
void replay_batches(const std::vector<ServedModel>& models,
                    const std::vector<std::vector<std::uint64_t>>& batch_hist,
                    std::uint64_t seed, Tracer& tr) {
  std::vector<std::pair<std::size_t, int>> batches;  // (model, size)
  for (std::size_t m = 0; m < batch_hist.size(); ++m) {
    for (std::size_t b = 1; b < batch_hist[m].size(); ++b) {
      for (std::uint64_t n = 0; n < batch_hist[m][b]; ++n) {
        batches.push_back({m, static_cast<int>(b)});
      }
    }
  }
  Rng rng(seed ^ 0x5eedULL);
  for (std::size_t i = batches.size(); i > 1; --i) {
    std::swap(batches[i - 1], batches[rng.uniform_int(i)]);
  }
  if (batches.size() > static_cast<std::size_t>(kReplayBatches)) {
    batches.resize(kReplayBatches);
  }
  MemoryPool pool;
  for (const auto& [mi, size] : batches) {
    const ServedModel& m = models[mi];
    std::vector<const InferenceRequest*> requests;
    for (int i = 0; i < size; ++i) {
      requests.push_back(&m.templates[rng.uniform_int(m.templates.size())]);
    }
    Span batch(tr, "serve.batch");
    serve::CollatedBatch cb;
    {
      Span span(tr, "serve.collate");
      cb = serve::collate(requests, &pool);
    }
    std::shared_ptr<const Compiled> c;
    {
      Span span(tr, "baselines.plan_cache");
      c = plan_for(m, cb);
    }
    Tensor out;
    {
      Span span(tr, "engine.run");
      PlanRunner runner(*cb.graph, c->plan, &pool);
      runner.bind(c->features, cb.features);
      for (std::size_t i = 0; i < c->params.size(); ++i) {
        runner.bind(c->params[i], c->init[i]);
      }
      runner.run();
      out = runner.take_result(c->output);
    }
    {
      Span span(tr, "serve.decollate");
      for (const serve::RequestRange& r : cb.ranges) {
        serve::decollate(out, r, MemTag::kActivations, &pool);
      }
    }
  }
}

/// Pool peak of one largest possible batch (kMaxBatch copies of a model's
/// largest request) run through a fresh pool, over the served models: the
/// memory a worker needs for the biggest batch the policy admits.
std::size_t max_batch_peak_bytes(const std::vector<ServedModel>& models) {
  std::size_t peak = 0;
  for (const ServedModel& m : models) {
    const InferenceRequest* largest = &m.templates.front();
    for (const InferenceRequest& r : m.templates) {
      if (r.graph->num_vertices() > largest->graph->num_vertices()) largest = &r;
    }
    MemoryPool pool;
    {
      const std::vector<const InferenceRequest*> requests(kMaxBatch, largest);
      const serve::CollatedBatch cb = serve::collate(requests, &pool);
      const std::shared_ptr<const Compiled> c = plan_for(m, cb);
      PlanRunner runner(*cb.graph, c->plan, &pool);
      runner.bind(c->features, cb.features);
      for (std::size_t i = 0; i < c->params.size(); ++i) {
        runner.bind(c->params[i], c->init[i]);
      }
      runner.run();
    }
    peak = std::max(peak, pool.peak_bytes());
  }
  return peak;
}

void write_phase(Json& j, const char* key, const Phase& p) {
  j.key(key).begin_object()
      .field("offered", p.offered)
      .field("accepted", p.accepted)
      .field("shed", p.shed)
      .field("rejected", p.rejected)
      .field("completed", p.completed)
      .field("failed", p.failed)
      .field("good", p.good)
      .field("wall_seconds", p.wall_seconds)
      .field("plan_cache_misses", p.plan_cache_misses)
      .field("latency_s", p.latency_s)
      .field("send_lag_s", p.send_lag_s)
      .field("queue_wait_s", p.queue_wait_s)
      .field("batch_s", p.batch_s)
      .field("batch_size", p.batch_size)
      .end_object();
}

std::vector<std::vector<std::uint64_t>> batch_hist(
    const serve::ServingHost& host, const std::vector<ServedModel>& models) {
  std::vector<std::vector<std::uint64_t>> out;
  for (const ServedModel& m : models) out.push_back(host.stats(m.name).batch_size_hist);
  return out;
}

}  // namespace

void run_serve(const Args& args, Json& j) {
  std::vector<ServedModel> models = served_models(args.seed);
  Tracer tracer(args.trace);
  Tracer off(false);
  std::vector<Check> checks;

  // --- set-up, repeated from a cold PlanCache; the last host serves.
  std::vector<double> setup_s;
  std::unique_ptr<serve::ServingHost> host;
  WarmupStats warmup;
  for (int r = 0; r < kSetupRepeats; ++r) {
    if (host != nullptr) host->shutdown();
    host.reset();
    PlanCache::global().clear();
    double seconds = 0;
    warmup = WarmupStats{};
    host = set_up(models, tracer, &seconds, &warmup);
    setup_s.push_back(seconds);
  }

  // --- open-loop phases: one untraced; a traced run adds a traced one.
  Rng rng(args.seed);
  const double phase_seconds = args.trace ? args.seconds / 2 : args.seconds;
  const std::vector<Arrival> untraced_arrivals =
      schedule(rng, models, kRateRps, phase_seconds);
  const Phase untraced = serve_open_loop(*host, models, untraced_arrivals, off);
  Phase traced;
  std::vector<std::vector<std::uint64_t>> hist_before = batch_hist(*host, models);
  if (args.trace) {
    const std::vector<Arrival> arrivals =
        schedule(rng, models, kRateRps, phase_seconds);
    traced = serve_open_loop(*host, models, arrivals, tracer);
  }
  host->shutdown();

  // --- correctness: accounting identities and batched == solo.
  std::vector<const Phase*> phases = {&untraced};
  if (args.trace) phases.push_back(&traced);
  for (const Phase* p : phases) {
    const char* which = p == &traced ? "traced" : "untraced";
    checks.push_back({std::string(which) + ": offered == accepted + shed + rejected",
                      p->offered == p->accepted + p->shed + p->rejected,
                      std::to_string(p->offered) + " offered"});
    checks.push_back({std::string(which) + ": accepted == completed + failed",
                      p->accepted == p->completed + p->failed,
                      std::to_string(p->accepted) + " accepted"});
  }
  {
    MemoryPool pool;
    std::size_t mismatches = 0, compared = 0;
    for (const Phase* p : phases) {
      for (const Phase::Kept& k : p->kept) {
        const ServedModel& m = models[k.model];
        ++compared;
        if (!same_bits(solo(m, m.templates[k.request], &pool), k.output)) ++mismatches;
      }
    }
    checks.push_back({"sampled responses == solo PlanRunner (bitwise)",
                      compared > 0 && mismatches == 0,
                      std::to_string(compared) + " compared, " +
                          std::to_string(mismatches) + " differ"});
  }

  // --- traced replay of the observed batch sizes.
  if (args.trace) {
    std::vector<std::vector<std::uint64_t>> hist = batch_hist(*host, models);
    for (std::size_t m = 0; m < hist.size(); ++m) {
      for (std::size_t b = 0; b < hist[m].size(); ++b) hist[m][b] -= hist_before[m][b];
    }
    replay_batches(models, hist, args.seed, tracer);
  }

  j.field("kind", "serve")
      .field("rate_rps", kRateRps)
      .field("slo_seconds", kSloSeconds)
      .field("setup_s", setup_s)
      .field("warmup_plans", warmup.plans)
      .field("pass_seconds", warmup.pass_seconds)
      .field("plan_seconds", warmup.plan_seconds)
      .field("max_batch_peak_bytes",
             static_cast<std::uint64_t>(max_batch_peak_bytes(models)));
  write_phase(j, "untraced", untraced);
  if (args.trace) write_phase(j, "traced", traced);
  write_checks(j, checks);
  write_spans(j, tracer);
}

}  // namespace perfbench
