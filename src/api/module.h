/// \file
/// `Module`: reusable model components with named, hierarchical parameters.
///
/// A Module describes *how to build* a forward computation on a GraphBuilder
/// — it owns hyperparameters, not tensors or graph state, so one Module can
/// be built any number of times (each build re-registers parameters and
/// draws fresh initial values from the supplied Rng). Parameters registered
/// inside a module are scoped by the module's name: a `Gat` module named
/// "gat" whose layer 0 registers "aL" produces the parameter `gat.layer0.aL`,
/// addressable by that name in the compiled model.
///
/// Stock modules for the paper's four workloads live in api/models.h; custom
/// architectures subclass Module and compose the Value operators of
/// api/value.h (see examples/custom_operator_ir.cpp). `Engine::compile`
/// (api/engine.h) is how a Module meets a Strategy and a graph.
#pragma once

#include <cstdint>
#include <string>

#include "api/value.h"
#include "support/rng.h"

namespace triad::api {

class Module {
 public:
  /// `name` scopes everything the module registers; empty adds no prefix.
  explicit Module(std::string name = "") : name_(std::move(name)) {}
  virtual ~Module() = default;

  /// Stable identity of the architecture + hyperparameters (NOT the weights):
  /// the PlanCache key component and the prefix of the name a model serves
  /// under (api::Model::cache_identity()), e.g. "gcn/in16/h32/c4".
  virtual std::string signature() const = 0;

  /// Width of the vertex-feature input the module expects.
  virtual std::int64_t in_dim() const = 0;

  /// Width of the per-edge pseudo-coordinate input (0 = none). Models that
  /// return > 0 receive a defined `pseudo` Value in forward().
  virtual std::int64_t pseudo_dim() const { return 0; }

  /// Builds the forward computation from the declared inputs and returns the
  /// output Value. Parameters are registered through `g` (param_xavier, …)
  /// and are automatically scoped. `pseudo` is defined iff pseudo_dim() > 0.
  virtual Value forward(GraphBuilder& g, const Value& features,
                        const Value& pseudo) const = 0;

  /// Full standalone build: declares the feature (and pseudo) inputs, runs
  /// forward() under this module's name scope, and marks the output.
  /// Parameter initial values are drawn from `rng` in registration order, so
  /// the same seed reproduces the same weights.
  ModelGraph build(Rng& rng) const;

  /// Invokes the module as a submodule of an enclosing build: runs forward()
  /// under this module's name scope on the caller's GraphBuilder.
  Value operator()(GraphBuilder& g, const Value& features,
                   const Value& pseudo = Value()) const;

  const std::string& name() const { return name_; }

 private:
  std::string name_;
};

}  // namespace triad::api
