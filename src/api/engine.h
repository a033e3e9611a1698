/// \file
/// `Engine`: the one way from a Module to something that runs.
///
/// The Engine unifies the three construction paths that used to be wired by
/// hand — `compile_model(...)` + `Trainer(...)`, `PlanCache::get_or_compile`,
/// and `ServingHost::register_model(name, builder, opts)` — behind a single
/// `CompileOptions` struct and a shared `Model` artifact:
///
/// ```
///   api::Engine engine({.strategy = ours(), .shards = 4});
///   api::Model model = engine.compile(std::make_shared<api::Gat>(cfg));
///   Trainer t  = model.trainer(dataset);           // full-batch training
///   serve::ServingHost host;                       // batched inference
///   std::string name = model.register_with(host);  // submit(name, request)
/// ```
///
/// A `Model` is cheap to copy (it shares the Module); the expensive artifact
/// — the pass pipeline's output baked into an `ExecutionPlan` — is produced
/// by `Model::compiled(graph, training)` and shared (optionally through the
/// process-wide PlanCache) by every Trainer, runner, or serving batch.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>

#include "api/module.h"
#include "baselines/plan_cache.h"
#include "baselines/strategy.h"
#include "graph/datasets.h"
#include "models/trainer.h"
#include "serve/host.h"

namespace triad::api {

/// Everything that shapes a compile, in one place — strategy (pass
/// pipeline + baseline builder flags), sharding, plan caching, and the
/// parameter-init seed — instead of positional arguments spread over
/// compile_model / Trainer / ModelOptions.
struct CompileOptions {
  Strategy strategy = ours();
  /// K > 0 bakes a K-way per-shard schedule into every plan this model
  /// compiles; trainers and served batches built from it execute
  /// shard-parallel.
  int shards = 0;
  PartitionStrategy partition = PartitionStrategy::DegreeBalanced;
  /// Route compiles through the process-wide PlanCache (one compile per
  /// (module signature, strategy, graph shape), ever).
  bool use_plan_cache = false;
  /// Seed for drawing parameter initial values; the same seed reproduces the
  /// same weights on every build (serving cache misses included).
  unsigned init_seed = 1234;
};

/// A module bound to its compile options: the shared artifact every
/// execution surface is derived from.
class Model {
 public:
  /// Builds a fresh ModelGraph (paper-order forward IR + init params) with
  /// the configured init seed.
  ModelGraph build_graph() const;

  /// Compiles the model for a concrete graph: the full PassManager
  /// pipeline, baked into an immutable ExecutionPlan (sharded when
  /// options().shards > 0). Memoized per (graph shape, training) — repeated
  /// calls, and the trainers derived from them, share one artifact; with
  /// use_plan_cache the artifact additionally lives in the process-wide
  /// PlanCache, keyed by cache_identity().
  std::shared_ptr<const Compiled> compiled(const Graph& graph,
                                           bool training) const;

  /// PlanCache/serving identity of this model's *weights as well as its
  /// architecture*: the module signature plus the init seed. Two Models
  /// differing only in init_seed carry different initial weights, so their
  /// compiled artifacts (which embed the init tensors) must never alias.
  std::string cache_identity() const;

  /// A Trainer over the shared compile artifact.
  Trainer trainer(const Graph& graph, Tensor features, Tensor pseudo = {},
                  MemoryPool* pool = &global_pool_mem()) const;
  /// Convenience over a Dataset: clones the features into `pool` and, for
  /// modules with pseudo_dim() > 0, derives degree-based pseudo-coordinates.
  Trainer trainer(const Dataset& data,
                  MemoryPool* pool = &global_pool_mem()) const;

  /// Registers this model with a ServingHost under its cache_identity() and
  /// returns that name (the handle for submit()/stats()/reload()). Each
  /// distinct batch shape compiles once via the PlanCache, keyed by that
  /// name, which pins the init seed alongside the architecture. The model's
  /// strategy/sharding options override the corresponding fields of `opts`;
  /// batch/SLO/shedding knobs are the caller's. The registered builder
  /// rebuilds weights deterministically from the init seed, so reload(name)
  /// restores pristine init weights.
  std::string register_with(serve::ServingHost& host,
                            serve::ModelOptions opts = {}) const;

  const Module& module() const { return *module_; }
  const CompileOptions& options() const { return opts_; }

 private:
  friend class Engine;
  Model(std::shared_ptr<const Module> module, CompileOptions opts)
      : module_(std::move(module)), opts_(std::move(opts)) {}

  /// Per-Model memo of compile artifacts, keyed like the PlanCache:
  /// (|V|, |E|, training, topology fingerprint) — the module pins the
  /// feature width, and the fingerprint is 0 for unsharded plans (shape-only
  /// specialization). Shared by copies of this Model; thread-safe like the
  /// global cache.
  struct Memo {
    std::mutex mu;
    std::map<std::tuple<std::int64_t, std::int64_t, bool, std::uint64_t>,
             std::shared_ptr<const Compiled>>
        entries;
  };

  std::shared_ptr<const Module> module_;
  CompileOptions opts_;
  std::shared_ptr<Memo> memo_ = std::make_shared<Memo>();
};

class Engine {
 public:
  Engine() = default;
  explicit Engine(CompileOptions opts) : opts_(std::move(opts)) {}

  /// Binds a module to this engine's options. The heavy work (passes + plan)
  /// happens on the returned Model's first compiled()/trainer()/served batch,
  /// once per distinct graph shape.
  Model compile(std::shared_ptr<const Module> module) const;
  /// Same, with per-model option overrides.
  Model compile(std::shared_ptr<const Module> module,
                CompileOptions opts) const;

  const CompileOptions& options() const { return opts_; }

 private:
  CompileOptions opts_;
};

}  // namespace triad::api
