// Training workloads: full-batch training under ours().
//
//   train-edgeconv-knn  EdgeConv {64,64,128,256} -> 40 classes on 8 k-NN
//                       point clouds (256 points, k = 20), unsharded.
//   train-gat-rmat-k3   GAT 2 layers x 4 heads x 16, input 32, 8 classes, on
//                       an R-MAT graph (2^14 vertices, 2^17 edges), sharded
//                       K = 3 with the pipeline and transport on.
//
// A run sets up several times (graph build + Model::compiled + Trainer
// construction, each timed), then times Trainer::train_step untraced. A
// traced run spends half its budget there and half replaying the same step
// from a second Trainer through the public calls train_step makes, with a
// span around each call.
#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "api/triad.h"
#include "bench.h"
#include "graph/generators.h"
#include "graph/knn.h"
#include "tensor/ops.h"
#include "transport/param_server.h"

namespace perfbench {
namespace {

using namespace triad;

constexpr int kSetupRepeats = 15;
constexpr int kWarmupSteps = 2;

/// Everything a training workload needs, generated from the seed before any
/// timing starts.
struct TrainInputs {
  std::int64_t num_vertices = 0;
  std::vector<Edge> edges;
  Tensor features;
  IntTensor labels;
  std::shared_ptr<const api::Module> module;
  int shards = 0;
  float lr = 0;
};

TrainInputs edgeconv_inputs(std::uint64_t seed) {
  constexpr std::int64_t kPoints = 256, kClouds = 8, kK = 20, kClasses = 40;
  Rng rng(seed);
  TrainInputs in;
  in.num_vertices = kPoints * kClouds;
  in.features = Tensor(in.num_vertices, 3, MemTag::kInput);
  in.labels = IntTensor(in.num_vertices, 1, MemTag::kInput);
  for (std::int64_t b = 0; b < kClouds; ++b) {
    const auto category = static_cast<std::int32_t>(rng.uniform_int(kClasses));
    const Tensor cloud = synthetic_point_cloud(kPoints, 3, category, rng);
    std::memcpy(in.features.row(b * kPoints), cloud.data(),
                static_cast<std::size_t>(cloud.numel()) * sizeof(float));
    const auto offset = static_cast<std::int32_t>(b * kPoints);
    for (const Edge& e : knn_edges(cloud, kK)) {
      in.edges.push_back({e.src + offset, e.dst + offset});
    }
    for (std::int64_t v = 0; v < kPoints; ++v) {
      in.labels.at(b * kPoints + v, 0) = category;
    }
  }
  EdgeConvConfig cfg;
  cfg.in_dim = 3;
  cfg.hidden = {64, 64, 128, 256};
  cfg.num_classes = kClasses;
  in.module = std::make_shared<api::EdgeConv>(cfg);
  in.lr = 1e-2f;
  return in;
}

TrainInputs gat_inputs(std::uint64_t seed) {
  constexpr std::int64_t kScale = 14, kEdges = std::int64_t{1} << 17;
  constexpr std::int64_t kInDim = 32, kClasses = 8;
  Rng rng(seed);
  const Graph g = gen::rmat(kScale, kEdges, rng);
  TrainInputs in;
  in.num_vertices = g.num_vertices();
  in.edges.reserve(static_cast<std::size_t>(g.num_edges()));
  for (std::int64_t e = 0; e < g.num_edges(); ++e) {
    in.edges.push_back({g.edge_src()[static_cast<std::size_t>(e)],
                        g.edge_dst()[static_cast<std::size_t>(e)]});
  }
  in.features = Tensor::randn(in.num_vertices, kInDim, rng, 1.f, MemTag::kInput);
  in.labels = IntTensor(in.num_vertices, 1, MemTag::kInput);
  for (std::int64_t v = 0; v < in.num_vertices; ++v) {
    in.labels.at(v, 0) = static_cast<std::int32_t>(rng.uniform_int(kClasses));
  }
  GatConfig cfg;
  cfg.in_dim = kInDim;
  cfg.hidden = 16;
  cfg.heads = 4;
  cfg.layers = 2;
  cfg.num_classes = kClasses;
  in.module = std::make_shared<api::Gat>(cfg);
  in.shards = 3;
  in.lr = 5e-2f;
  return in;
}

api::CompileOptions compile_options(std::uint64_t seed, int shards) {
  api::CompileOptions co;
  co.strategy = ours();
  co.shards = shards;
  co.init_seed = static_cast<unsigned>(seed) + 1;
  return co;
}

/// One complete set-up: the objects a training run executes. Members are
/// declared before their users so destruction runs users first.
struct Setup {
  std::unique_ptr<MemoryPool> pool;
  std::unique_ptr<Graph> graph;
  std::shared_ptr<const Compiled> compiled;
  std::unique_ptr<Trainer> trainer;
  double seconds = 0;

  /// Drops the objects users-first (the Trainer frees into the pool).
  void release() {
    trainer.reset();
    compiled.reset();
    graph.reset();
    pool.reset();
  }
};

Setup set_up(const TrainInputs& in, std::uint64_t seed, Tracer& tr) {
  Setup s;
  s.pool = std::make_unique<MemoryPool>();
  // Inputs are copied before the clock starts: set-up covers building the
  // Graph from generated edges, compiling, and constructing the Trainer.
  std::vector<Edge> edges = in.edges;
  Tensor features = in.features.clone(MemTag::kInput, s.pool.get());
  const std::int64_t t0 = now_ns();
  {
    Span setup(tr, "setup");
    {
      Span span(tr, "graph.build");
      s.graph = std::make_unique<Graph>(in.num_vertices, std::move(edges));
    }
    const api::Model model =
        api::Engine(compile_options(seed, in.shards)).compile(in.module);
    {
      Span span(tr, "api.compiled");
      s.compiled = model.compiled(*s.graph, /*training=*/true);
    }
    {
      Span span(tr, "models.trainer");
      s.trainer = std::make_unique<Trainer>(s.compiled, *s.graph,
                                            std::move(features), Tensor{},
                                            s.pool.get());
    }
  }
  s.seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  return s;
}

/// The fields of one counter delta the report uses.
void write_counters(Json& j, const PerfCounters& c) {
  j.begin_object()
      .field("kernel_launches", c.kernel_launches)
      .field("flops", c.flops)
      .field("io_bytes", c.io_bytes())
      .field("specialized_fwd_edges", c.specialized_fwd_edges)
      .field("specialized_bwd_edges", c.specialized_bwd_edges)
      .field("interpreted_fwd_edges", c.interpreted_fwd_edges)
      .field("interpreted_bwd_edges", c.interpreted_bwd_edges)
      .field("walk_ns", c.walk_ns)
      .field("combine_ns", c.combine_ns)
      .field("combine_overlap_ns", c.combine_overlap_ns)
      .field("boundary_stash_bytes", c.boundary_stash_bytes)
      .field("boundary_stash_saved_bytes", c.boundary_stash_saved_bytes)
      .field("transport_msgs", c.transport_msgs)
      .field("transport_bytes", c.transport_bytes)
      .field("param_push_bytes", c.param_push_bytes)
      .field("param_pull_bytes", c.param_pull_bytes)
      .end_object();
}

/// One training step through the public calls Trainer::train_step makes on
/// its transport path, in the same order, with a span around each call.
/// `weights` aliases the runner's bound parameter storage, where
/// pull_params writes the updated values.
float replay_step(Tracer& tr, Trainer& t, const IntTensor& labels, float lr,
                  std::vector<Tensor>& weights, PerfCounters* counters) {
  PlanRunner& runner = t.runner();
  const Compiled& m = t.model();
  transport::ParamServer& server = *t.param_server();
  runner.pool().reset_peak();
  CounterScope scope;
  float loss = 0;
  {
    Span step(tr, "step");
    {
      Span span(tr, "engine.forward");
      runner.run_forward();
    }
    const Tensor& out = runner.result(m.output);
    Tensor grad(out.rows(), out.cols(), MemTag::kGradient, &runner.pool());
    {
      Span span(tr, "tensor.loss");
      loss = ops::softmax_cross_entropy(out, labels, &grad);
    }
    runner.bind(m.seed, std::move(grad));
    {
      Span span(tr, "engine.backward");
      runner.run_backward();
    }
    std::vector<const Tensor*> grads;
    grads.reserve(m.param_grads.size());
    for (const int g : m.param_grads) grads.push_back(&runner.result(g));
    {
      Span span(tr, "transport.push_grads");
      server.push_grads(grads, lr);
    }
    {
      Span span(tr, "transport.pull_params");
      server.pull_params(weights);
    }
  }
  *counters = scope.delta();
  return loss;
}

bool same_bits(float a, float b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

}  // namespace

void run_train(const Args& args, Json& j) {
  const bool gat = args.workload == "train-gat-rmat-k3";
  const TrainInputs in = gat ? gat_inputs(args.seed) : edgeconv_inputs(args.seed);
  Tracer tracer(args.trace);
  Tracer off(false);
  std::vector<Check> checks;

  // --- set-up, repeated; the last one is kept for the measured phase.
  std::vector<double> setup_s;
  Setup s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    s.release();  // the previous set-up goes before the next is timed
    s = set_up(in, args.seed, tracer);
    setup_s.push_back(s.seconds);
  }
  const Compiled& compiled = *s.compiled;

  // --- untraced train_step loop.
  const double untraced_budget = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<float> losses;
  std::vector<double> step_s, peak_bytes;
  for (int i = 0; i < kWarmupSteps; ++i) {
    losses.push_back(s.trainer->train_step(in.labels, in.lr).loss);
  }
  const std::int64_t t0 = now_ns();
  while (static_cast<double>(now_ns() - t0) * 1e-9 < untraced_budget) {
    const StepMetrics sm = s.trainer->train_step(in.labels, in.lr);
    losses.push_back(sm.loss);
    step_s.push_back(sm.seconds);
    peak_bytes.push_back(static_cast<double>(sm.peak_bytes));
  }

  // --- traced replay from a fresh Trainer over the same compiled artifact.
  std::vector<float> traced_losses;
  std::vector<PerfCounters> traced_counters;
  if (args.trace) {
    TRIAD_CHECK(s.trainer->param_server() != nullptr,
                "traced replay expects the transport update path");
    MemoryPool pool;
    Trainer replay(s.compiled, *s.graph,
                   in.features.clone(MemTag::kInput, &pool), Tensor{}, &pool);
    std::vector<Tensor> weights;
    for (const int p : compiled.params) weights.push_back(replay.runner().result(p));
    PerfCounters c;
    for (int i = 0; i < kWarmupSteps; ++i) {
      traced_losses.push_back(replay_step(off, replay, in.labels, in.lr, weights, &c));
    }
    const std::int64_t t1 = now_ns();
    while (static_cast<double>(now_ns() - t1) * 1e-9 < args.seconds / 2) {
      traced_losses.push_back(
          replay_step(tracer, replay, in.labels, in.lr, weights, &c));
      traced_counters.push_back(c);
    }
    std::size_t mismatches = 0;
    const std::size_t n = std::min(losses.size(), traced_losses.size());
    for (std::size_t i = 0; i < n; ++i) {
      if (!same_bits(losses[i], traced_losses[i])) ++mismatches;
    }
    checks.push_back({"traced replay loss == train_step loss (bitwise)",
                      mismatches == 0 && n > kWarmupSteps,
                      std::to_string(n) + " steps compared, " +
                          std::to_string(mismatches) + " differ"});
  }

  // --- sharded == unsharded on the first step.
  if (in.shards > 0) {
    MemoryPool pool;
    const auto unsharded = api::Engine(compile_options(args.seed, 0))
                               .compile(in.module)
                               .compiled(*s.graph, /*training=*/true);
    Trainer t(unsharded, *s.graph, in.features.clone(MemTag::kInput, &pool),
              Tensor{}, &pool);
    const float loss0 = t.train_step(in.labels, in.lr).loss;
    checks.push_back({"first-step loss K=" + std::to_string(in.shards) +
                          " == K=0 (bitwise)",
                      same_bits(loss0, losses.front()),
                      "K=0 " + std::to_string(loss0) + ", K=" +
                          std::to_string(in.shards) + " " +
                          std::to_string(losses.front())});
  }

  // --- raw result.
  j.field("kind", "train")
      .field("vertices", s.graph->num_vertices())
      .field("edges", s.graph->num_edges())
      .field("shards", in.shards)
      .field("setup_s", setup_s)
      .field("step_s", step_s)
      .field("peak_bytes", peak_bytes);
  std::vector<double> loss_d(losses.begin(), losses.end());
  j.field("losses", loss_d);
  j.field("ir_nodes_after", compiled.ir.size())
      .field("pass_seconds", compiled.stats.pass_seconds)
      .field("plan_seconds", compiled.stats.plan_seconds);
  j.key("compile_passes").begin_array();
  for (const PassInfo& p : compiled.stats.passes) {
    j.begin_object().field("name", p.name).field("seconds", p.seconds).end_object();
  }
  j.end_array();
  if (args.trace) {
    std::vector<double> traced_d(traced_losses.begin(), traced_losses.end());
    j.field("traced_losses", traced_d);
    j.key("traced_counters").begin_array();
    for (const PerfCounters& c : traced_counters) write_counters(j, c);
    j.end_array();
  }
  write_checks(j, checks);
  write_spans(j, tracer);
}

}  // namespace perfbench
