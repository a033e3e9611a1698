// Figure 7 (GAT panel): end-to-end GAT training vs DGL-like and
// fuseGNN-like baselines on Cora/Citeseer/Pubmed/Reddit.
//
// Paper setting (§7.2): 2 layers, 128 hidden dims, single head (fuseGNN has
// no multi-head support). Paper result: avg 2.07x (up to 2.75x) speedup and
// 1.48x (up to 3.53x) less memory vs DGL; vs fuseGNN avg 1.85x / 1.29x.
#include "bench_common.h"

using namespace triad;
using namespace triad::bench;

int main(int argc, char** argv) {
  const Options opt = Options::parse(argc, argv);
  print_header("Figure 7 — GAT end-to-end training (2 layers, hidden 128, 1 head)",
               "strategies: DGL-like baseline, fuseGNN-like, Ours "
               "(reorg+fusion+recompute)");
  JsonReport rep("fig7_gat", opt);

  const std::vector<std::string> datasets = {"cora", "citeseer", "pubmed",
                                             "reddit"};
  for (const std::string& name : datasets) {
    Rng rng(opt.seed);
    Dataset data = make_dataset(name, rng, opt.scale_for(name), opt.feat_scale);

    auto run = [&](const Strategy& s) {
      GatConfig cfg;
      cfg.in_dim = data.features.cols();
      cfg.hidden = 128;
      cfg.heads = 1;
      cfg.layers = 2;
      cfg.num_classes = data.num_classes;
      cfg.prereorganized = s.prereorganized_gat;
      cfg.builtin_softmax = s.builtin_softmax;
      // Compile once through the Engine (plan included); every measured step
      // reuses the plan. --shards=K compiles a sharded plan: fused kernels
      // then run one pool task per shard (see PlanRunner::set_partitioning).
      auto c = engine_compile(std::make_shared<api::Gat>(cfg), s,
                              /*training=*/true, data.graph, opt);
      MemoryPool pool;
      return measure_training(std::move(c), data.graph, data.features, Tensor{},
                              data.labels, opt.steps, true, &pool);
    };

    const Measurement dgl = run(dgl_like());
    rep.row(name, "DGL", dgl, dgl);
    rep.row(name, "fuseGNN", run(fusegnn_like()), dgl);
    rep.row(name, "Ours", run(ours()), dgl);
  }
  print_footnote(opt);
  rep.write();
  return 0;
}
