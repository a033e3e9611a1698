#include "baselines/strategy.h"

#include <algorithm>

#include "support/timer.h"

namespace triad {

Strategy dgl_like() {
  Strategy s;
  s.name = "DGL";
  s.prereorganized_gat = true;  // DGL's GATConv separates aL/aR by hand
  s.builtin_softmax = true;     // DGL ships a fused edge-softmax kernel
  s.optimize = false;           // baselines model systems without a graph compiler
  return s;
}

Strategy fusegnn_like() {
  Strategy s;
  s.name = "fuseGNN";
  s.builtin_softmax = true;
  s.fusion = FusionMode::EdgeOnly;
  s.optimize = false;
  return s;
}

Strategy ours() {
  Strategy s;
  s.name = "Ours";
  s.reorg = true;
  s.fusion = FusionMode::Unified;
  s.recompute = true;
  return s;
}

Strategy naive() {
  Strategy s;
  s.name = "Naive";
  s.optimize = false;  // "no optimization at all" includes the generic layer
  return s;
}

Strategy ours_no_reorg() {
  Strategy s = ours();
  s.name = "Ours(-reorg)";
  s.reorg = false;
  return s;
}

Strategy ours_no_fusion() {
  Strategy s = ours();
  s.name = "Ours(-fusion)";
  s.fusion = FusionMode::None;
  s.recompute = false;  // recomputation without fusion re-materializes O(|E|)
  return s;
}

Strategy ours_fusion_stash() {
  Strategy s = ours();
  s.name = "Ours(fusion+stash)";
  s.recompute = false;
  return s;
}

Strategy ours_no_optimize() {
  Strategy s = ours();
  s.name = "Ours(-opt)";
  s.optimize = false;
  return s;
}

Strategy ours_no_specialize() {
  Strategy s = ours();
  s.name = "Ours(-specialize)";
  s.specialize = false;
  return s;
}

Strategy ours_no_transport() {
  Strategy s = ours();
  s.name = "Ours(-transport)";
  s.transport = false;
  return s;
}

namespace {

int find_by_name(const IrGraph& g, const std::string& name) {
  int found = -1;
  for (const Node& n : g.nodes()) {
    if (n.name == name &&
        (n.kind == OpKind::Input || n.kind == OpKind::Param)) {
      TRIAD_CHECK(found < 0, "duplicate node name '" << name << "'");
      found = n.id;
    }
  }
  TRIAD_CHECK_GE(found, 0, "node '" << name << "' not found");
  return found;
}

/// Translates the strategy into the registered-pass pipeline. The autodiff
/// step participates as a pass so its cost shows up in the same per-pass
/// report as the rewrites.
PassManager build_pipeline(const Strategy& s, bool training,
                           std::vector<std::string> param_names) {
  PassManager pm;
  if (s.reorg) {
    pm.add("reorg", [](IrGraph g) { return reorg_pass(g); });
  }
  if (training) {
    pm.add("autodiff", [names = std::move(param_names)](IrGraph g) {
      // outputs: [logits, grad(param_0), grad(param_1), ...] in param order.
      BackwardResult bwd = build_backward(g, g.outputs[0]);
      std::unordered_map<int, int> grad_of_param(bwd.param_grads.begin(),
                                                 bwd.param_grads.end());
      for (const std::string& pname : names) {
        const int pid = find_by_name(g, pname);
        const auto it = grad_of_param.find(pid);
        TRIAD_CHECK(it != grad_of_param.end(),
                    "param '" << pname << "' received no gradient");
        g.mark_output(it->second);
      }
      return g;
    });
  }
  if (s.optimize) {
    // Generic hygiene (CSE + DCE + simplify) between autodiff and the memory
    // passes: duplicates merge before recompute decides what to clone, and
    // recompute's intentional re-materialization is never un-done.
    pm.add("optimize", [](IrGraph g, PassInfo& info) {
      return optimize_pass(std::move(g), &info.rules);
    });
  }
  if (training && s.recompute) {
    pm.add("recompute", [](IrGraph g) { return recompute_pass(g); });
  }
  if (s.fusion != FusionMode::None) {
    FusionOptions fo;
    fo.mode = s.fusion;
    fo.preferred = s.mapping;
    pm.add("fusion", [fo](IrGraph g) { return fusion_pass(g, fo); });
  }
  return pm;
}

}  // namespace

Compiled compile_model(ModelGraph model, const Strategy& s, bool training,
                       std::int64_t num_vertices, std::int64_t num_edges,
                       std::shared_ptr<const Partitioning> partition) {
  Compiled c;
  c.init = std::move(model.init);

  // Remember stable names for inputs/params (ids change across passes).
  std::vector<std::string> param_names;
  param_names.reserve(model.params.size());
  for (int p : model.params) param_names.push_back(model.ir.node(p).name);
  const std::string feat_name = model.ir.node(model.features).name;
  const std::string pseudo_name =
      model.pseudo >= 0 ? model.ir.node(model.pseudo).name : "";

  IrGraph ir = std::move(model.ir);
  ir.outputs.clear();
  ir.mark_output(model.output);

  PassManager pm = build_pipeline(s, training, param_names);
  ir = pm.run(std::move(ir));
  c.stats.passes = pm.report();
  c.stats.pass_seconds = pm.total_seconds();

  c.output = ir.outputs[0];
  if (training) {
    for (std::size_t i = 1; i < ir.outputs.size(); ++i) {
      c.param_grads.push_back(ir.outputs[i]);
    }
    c.seed = find_by_name(ir, "grad_seed");
  }
  for (const std::string& pname : param_names) {
    c.params.push_back(find_by_name(ir, pname));
  }
  c.features = find_by_name(ir, feat_name);
  if (!pseudo_name.empty()) c.pseudo = find_by_name(ir, pseudo_name);

  if (num_vertices >= 0 && num_edges >= 0) {
    // The plan keeps its own immutable copy of the graph; Compiled::ir stays
    // populated alongside it so introspection code works uniformly whether
    // or not a plan was baked.
    c.plan = ExecutionPlan::compile_shared(ir, num_vertices, num_edges,
                                           partition.get(), s.specialize,
                                           s.transport);
    c.stats.plan_seconds = c.plan->compile_seconds();
    c.partition = std::move(partition);
    // Surface the core-selection outcome in the compile report: one entry per
    // chosen core label (hits = programs bound), "interpreter" counting the
    // fallbacks. Recorded directly — selection time is already inside
    // plan_seconds, and this is not an IR pass (no ir_passes charge).
    if (!c.plan->cores().empty()) {
      PassInfo spec;
      spec.name = "specialize";
      spec.nodes_before = spec.nodes_after = ir.size();
      for (const CoreBinding& cb : c.plan->cores()) {
        const std::string label =
            cb.specialized() ? cb.label() : std::string("interpreter");
        auto it = std::find_if(spec.rules.begin(), spec.rules.end(),
                               [&](const RuleStat& r) { return r.rule == label; });
        if (it == spec.rules.end()) {
          spec.rules.push_back(RuleStat{label, 1});
        } else {
          ++it->hits;
        }
      }
      c.stats.passes.push_back(std::move(spec));
    }
  }
  c.ir = std::move(ir);
  return c;
}

Compiled compile_model(ModelGraph model, const Strategy& s, bool training,
                       const Graph& graph, int num_shards,
                       PartitionStrategy strategy) {
  std::shared_ptr<const Partitioning> part;
  double partition_seconds = 0.0;
  if (num_shards > 0) {
    Timer timer;
    part = std::make_shared<const Partitioning>(
        Partitioning::build(graph, num_shards, strategy));
    partition_seconds = timer.seconds();
  }
  Compiled c = compile_model(std::move(model), s, training, graph.num_vertices(),
                             graph.num_edges(), part);
  if (part != nullptr) {
    // Partitioning is compile-time work; surface it in the same per-pass
    // report (and the ir_passes counter) as the IR rewrites.
    PassManager recorder;
    recorder.note("partition(K=" + std::to_string(part->num_shards()) + ")",
                  partition_seconds, c.ir.size());
    c.stats.passes.push_back(recorder.report().front());
    c.stats.pass_seconds += partition_seconds;
  }
  return c;
}

}  // namespace triad
