#include "api/engine.h"

namespace triad::api {

ModelGraph Model::build_graph() const {
  Rng rng(opts_.init_seed);
  return module_->build(rng);
}

std::string Model::cache_identity() const {
  return module_->signature() + "@init" + std::to_string(opts_.init_seed);
}

std::shared_ptr<const Compiled> Model::compiled(const Graph& graph,
                                                bool training) const {
  // Unsharded plans are specialized to the graph SHAPE only and may be
  // shared across equal-shape graphs; a sharded plan bakes a Partitioning
  // of one concrete adjacency, so its key must pin the topology too.
  const std::uint64_t topology =
      opts_.shards > 0 ? graph.topology_fingerprint() : 0;
  const auto memo_key = std::make_tuple(graph.num_vertices(),
                                        graph.num_edges(), training, topology);
  {
    std::lock_guard<std::mutex> lock(memo_->mu);
    const auto it = memo_->entries.find(memo_key);
    if (it != memo_->entries.end()) return it->second;
  }
  std::shared_ptr<const Compiled> artifact;
  if (opts_.use_plan_cache) {
    PlanKey key{cache_identity(),     opts_.strategy.name, training,
                graph.num_vertices(), graph.num_edges(),   module_->in_dim(),
                opts_.shards,         opts_.partition,     topology};
    artifact = PlanCache::global().get_or_compile(
        key, opts_.strategy, training, graph, [this] { return build_graph(); },
        opts_.shards, opts_.partition);
  } else {
    artifact = std::make_shared<const Compiled>(
        compile_model(build_graph(), opts_.strategy, training, graph,
                      opts_.shards, opts_.partition));
  }
  std::lock_guard<std::mutex> lock(memo_->mu);
  return memo_->entries.emplace(memo_key, std::move(artifact)).first->second;
}

Trainer Model::trainer(const Graph& graph, Tensor features, Tensor pseudo,
                       MemoryPool* pool) const {
  return Trainer(compiled(graph, /*training=*/true), graph,
                 std::move(features), std::move(pseudo), pool);
}

Trainer Model::trainer(const Dataset& data, MemoryPool* pool) const {
  Tensor pseudo;
  if (module_->pseudo_dim() > 0) {
    pseudo = make_pseudo_coords(data.graph, module_->pseudo_dim())
                 .clone(MemTag::kInput, pool);
  }
  return trainer(data.graph, data.features.clone(MemTag::kInput, pool),
                 std::move(pseudo), pool);
}

std::string Model::register_with(serve::ServingHost& host,
                                 serve::ModelOptions opts) const {
  opts.strategy = opts_.strategy;
  opts.shards = opts_.shards;
  opts.partition_strategy = opts_.partition;
  // The builder must be self-contained: serving workers call it on cache
  // misses, possibly concurrently, so it re-seeds its own Rng — the same
  // init_seed reproduces identical weights for every batch shape. The
  // registered name includes the seed (cache_identity()), so two models
  // differing only in init weights never alias plans.
  auto module = module_;
  const unsigned seed = opts_.init_seed;
  std::string name = cache_identity();
  host.register_model(
      name,
      [module, seed] {
        Rng rng(seed);
        return module->build(rng);
      },
      std::move(opts));
  return name;
}

Model Engine::compile(std::shared_ptr<const Module> module) const {
  return compile(std::move(module), opts_);
}

Model Engine::compile(std::shared_ptr<const Module> module,
                      CompileOptions opts) const {
  TRIAD_CHECK(module != nullptr, "Engine::compile: null module");
  return Model(std::move(module), std::move(opts));
}

}  // namespace triad::api
