// Sharded-execution scaling: what sharding costs against unsharded execution
// on a multi-million-edge synthetic power-law graph.
//
// The bench trains the same GAT once unsharded (K=0, the baseline row) and
// once per shard count K in {1, 2, 3, 4, 8, 32}, so `speedup` reads directly
// as the K-shard run's speed relative to K=0 (below 1 = sharding costs
// time). Sharded rows carry walk_ns / combine_ns, the per-shard task times
// summed, so the cost splits into walks and the post-join boundary combine.
//
// --scale shrinks the graph for smoke runs (CI uses --scale<=0.01);
// --edges=N overrides the pre-scale edge-count target (default 4M).
#include <cmath>

#include "bench_common.h"
#include "graph/generators.h"

using namespace triad;
using namespace triad::bench;

int main(int argc, char** argv) {
  Options opt = Options::parse(argc, argv);
  std::int64_t edge_target = 4000000;
  for (int i = 1; i < argc; ++i) {
    if (const char* v = flag_value(argv[i], "--edges")) {
      edge_target = std::atoll(v);
    }
  }
  const auto m = std::max<std::int64_t>(
      64, static_cast<std::int64_t>(std::llround(
              static_cast<double>(edge_target) * opt.scale)));
  // Vertex count tracks |E|/8 (average degree ~8, Reddit-like regime).
  std::int64_t vscale = 3;
  while ((std::int64_t{1} << vscale) < m / 8) ++vscale;
  const std::int64_t n = std::int64_t{1} << vscale;

  print_header("Scaling — sharded vs unsharded execution (GAT)",
               "same model, same graph; only K differs (outputs bit-identical "
               "for every K)");
  JsonReport rep("scaling", opt);

  Rng rng(opt.seed);
  Graph g = gen::rmat(vscale, m, rng);
  const auto f = std::max<std::int64_t>(
      4, static_cast<std::int64_t>(std::llround(64 * opt.feat_scale)));
  constexpr std::int64_t kClasses = 8;
  Tensor features = Tensor::randn(n, f, rng, 1.f, MemTag::kInput);
  IntTensor labels(n, 1, MemTag::kInput);
  for (std::int64_t v = 0; v < n; ++v) {
    labels.at(v, 0) = static_cast<std::int32_t>(rng.uniform_int(kClasses));
  }
  const std::string workload =
      "rmat_" + std::to_string(m / 1000000) + "." +
      std::to_string(m / 100000 % 10) + "M";
  std::printf("graph: |V|=%lld |E|=%lld feat=%lld\n",
              static_cast<long long>(n), static_cast<long long>(m),
              static_cast<long long>(f));

  // GAT, not GCN: pure-Sum models reduce sequentially in whichever
  // orientation each program walks, so they never hit the boundary combine.
  // The fused GAT softmax/attention programs mix orientations.
  GatConfig cfg;
  cfg.in_dim = f;
  cfg.hidden = 64;
  cfg.heads = 1;
  cfg.layers = 2;
  cfg.num_classes = kClasses;

  auto run = [&](int k) {
    Options ok = opt;
    ok.shards = k;
    auto c = engine_compile(std::make_shared<api::Gat>(cfg), ours(),
                            /*training=*/true, g, ok);
    MemoryPool pool;
    return measure_training(std::move(c), g, features, Tensor{}, labels,
                            opt.steps, true, &pool);
  };

  const Measurement base = run(0);
  rep.row(workload, "unsharded", base, base, "\"k\": 0");
  for (const int k : {1, 2, 3, 4, 8, 32}) {
    rep.row(workload, "K=" + std::to_string(k), run(k), base,
            "\"k\": " + std::to_string(k));
  }
  print_footnote(opt);
  rep.write();
  return 0;
}
