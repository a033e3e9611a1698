#include "engine/plan.h"

#include "engine/kernels.h"
#include "engine/vm.h"
#include "support/counters.h"
#include "support/macros.h"
#include "support/timer.h"
#include "transport/exchange.h"

namespace triad {

namespace {

std::int64_t rows_of(const Node& n, std::int64_t num_vertices,
                     std::int64_t num_edges) {
  switch (n.space) {
    case Space::Vertex: return num_vertices;
    case Space::Edge: return num_edges;
    case Space::Param: return n.rows;
  }
  return 0;
}

MemTag tag_of(const Node& n, int last_consumer, int backward_start) {
  if (n.kind == OpKind::Param) return MemTag::kWeights;
  if (n.kind == OpKind::Input) return MemTag::kInput;
  if (backward_start >= 0) {
    if (n.id >= backward_start) return MemTag::kGradient;
    if (last_consumer >= backward_start) return MemTag::kStash;
  }
  return MemTag::kActivations;
}

}  // namespace

ExecutionPlan ExecutionPlan::compile(IrGraph ir, std::int64_t num_vertices,
                                     std::int64_t num_edges,
                                     const Partitioning* part, bool specialize,
                                     bool pipeline, bool transport) {
  Timer timer;
  ir.validate(num_vertices, num_edges);
  if (part != nullptr) {
    TRIAD_CHECK_EQ(part->num_vertices(), num_vertices,
                   "partitioning built for a different |V|");
    TRIAD_CHECK_EQ(part->num_edges(), num_edges,
                   "partitioning built for a different |E|");
  }

  ExecutionPlan p;
  const int n = ir.size();
  p.num_vertices_ = num_vertices;
  p.num_edges_ = num_edges;
  p.forward_end_ = ir.backward_start >= 0 ? ir.backward_start : n;
  p.steps_.resize(n);
  p.is_output_.assign(n, 0);
  for (int out : ir.outputs) p.is_output_[out] = 1;

  std::vector<int> last_consumer(n, -1);
  for (const Node& node : ir.nodes()) {
    for (int in : node.inputs) last_consumer[in] = node.id;
  }

  // Per-node byte footprint of the slot and (if any) the argmax aux — the
  // currency of both the free-list simulation and the peak estimate.
  std::vector<std::int64_t> slot_bytes(n, 0);
  std::vector<std::int64_t> aux_bytes(n, 0);
  for (int id = 0; id < n; ++id) {
    const Node& nd = ir.node(id);
    PlanStep& st = p.steps_[id];
    st.rows = rows_of(nd, num_vertices, num_edges);
    st.tag = tag_of(nd, last_consumer[id], ir.backward_start);
    st.needs_argmax = nd.kind == OpKind::Gather && nd.rfn == ReduceFn::Max;
    if (nd.kind != OpKind::Fused) {
      slot_bytes[id] = st.rows * nd.cols * static_cast<std::int64_t>(sizeof(float));
    }
    if (st.needs_argmax) {
      aux_bytes[id] = st.rows * nd.cols * static_cast<std::int64_t>(sizeof(std::int32_t));
    }
  }
  for (const Node& nd : ir.nodes()) {
    if (nd.kind != OpKind::Fused) continue;
    for (const VertexOutput& vo : ir.programs.at(nd.program).vertex_outputs) {
      if (vo.track_argmax) {
        aux_bytes[vo.node] = p.steps_[vo.node].rows * vo.width *
                             static_cast<std::int64_t>(sizeof(std::int32_t));
      }
    }
  }

  // Static free points: a slot dies right after its last consumer executes,
  // unless the node is externally bound (Input/Param), an output, or dead.
  for (int id = 0; id < n; ++id) {
    const Node& nd = ir.node(id);
    if (nd.kind == OpKind::Input || nd.kind == OpKind::Param) continue;
    if (p.is_output_[id] || last_consumer[id] < 0) continue;
    p.steps_[last_consumer[id]].free_after.push_back(id);
  }

  // Schedule/free-list consistency: with passes that compact node ids (the
  // rewriter's DCE renumbers the whole graph), a stale id here would become a
  // silent use-after-free at run time. Every freed slot must have a producer
  // that already ran, exactly one free point, and must not be an output or an
  // externally-bound leaf.
  {
    std::vector<char> freed(n, 0);
    for (int id = 0; id < n; ++id) {
      for (int f : p.steps_[id].free_after) {
        TRIAD_CHECK(f >= 0 && f < n, "free-list id " << f << " out of range");
        TRIAD_CHECK(f <= id, "slot " << ir.describe(f)
                                     << " freed before step " << ir.describe(id));
        TRIAD_CHECK(!freed[f], "slot " << ir.describe(f) << " freed twice");
        freed[f] = 1;
        TRIAD_CHECK(!p.is_output_[f], "output slot " << ir.describe(f) << " freed");
        const OpKind k = ir.node(f).kind;
        TRIAD_CHECK(k != OpKind::Input && k != OpKind::Param,
                    "bound slot " << ir.describe(f) << " freed");
        TRIAD_CHECK_EQ(last_consumer[f], id,
                       "slot " << ir.describe(f)
                               << " freed away from its last consumer");
      }
    }
  }

  // Allocation schedule: FusedOut tensors materialize when their Fused node
  // runs; Input/Param are bound externally and counted as persistent.
  for (int id = 0; id < n; ++id) {
    const Node& nd = ir.node(id);
    PlanStep& st = p.steps_[id];
    switch (nd.kind) {
      case OpKind::Input:
      case OpKind::Param:
        p.persistent_bytes_ += static_cast<std::size_t>(slot_bytes[id]);
        break;
      case OpKind::Fused: {
        const EdgeProgram& ep = ir.programs.at(nd.program);
        for (const VertexOutput& vo : ep.vertex_outputs) {
          st.alloc_bytes += slot_bytes[vo.node] + aux_bytes[vo.node];
        }
        for (const EdgeOutput& eo : ep.edge_outputs) {
          st.alloc_bytes += slot_bytes[eo.node];
        }
        break;
      }
      case OpKind::FusedOut:
        break;
      default:
        st.alloc_bytes = slot_bytes[id] + aux_bytes[id];
        break;
    }
  }

  // Kernel specialization: bind a hand-written core to every edge program the
  // matcher recognizes. Pure compile-time work — the runner just dispatches on
  // the stored binding, and kind == None means the interpreter. Bound before
  // the peak simulation, which must know which programs stash.
  p.cores_.resize(ir.programs.size());
  if (specialize) {
    for (std::size_t i = 0; i < ir.programs.size(); ++i) {
      p.cores_[i] = match_core(ir.programs[i]);
    }
  }

  // Simulate one run over the schedule for the peak estimate. The same
  // simulation replays per shard with footprints rescaled to the shard's
  // owned vertices / local edges (parameters replicated in full), yielding
  // the per-shard peaks capacity placement needs. A scale of 1/1 over the
  // full dimensions is exactly the single-shard estimate.
  const auto simulate = [&](std::int64_t n_v, std::int64_t m_e,
                            std::size_t* persistent_out) -> std::size_t {
    const auto scaled = [&](int id) -> std::size_t {
      const Node& nd = ir.node(id);
      std::int64_t rows = 0;
      switch (nd.space) {
        case Space::Vertex: rows = n_v; break;
        case Space::Edge: rows = m_e; break;
        case Space::Param: rows = nd.rows; break;
      }
      std::size_t bytes = 0;
      if (slot_bytes[id] > 0) {
        bytes += static_cast<std::size_t>(rows * nd.cols) * sizeof(float);
      }
      if (aux_bytes[id] > 0) {
        // aux width can differ from nd.cols for fused outputs; recover it
        // from the compiled per-row byte count.
        const std::int64_t full_rows = p.steps_[id].rows;
        bytes += full_rows > 0 ? static_cast<std::size_t>(
                                     aux_bytes[id] / full_rows * rows)
                               : 0;
      }
      return bytes;
    };
    std::size_t persistent = 0;
    for (int id = 0; id < n; ++id) {
      const Node& nd = ir.node(id);
      if (nd.kind == OpKind::Input || nd.kind == OpKind::Param) {
        persistent += scaled(id);
      }
    }
    if (persistent_out != nullptr) *persistent_out = persistent;
    std::size_t live = persistent;
    std::size_t peak = live;
    for (int id = 0; id < n; ++id) {
      const Node& nd = ir.node(id);
      // Bytes alive only while this step executes: the VM's boundary-combine
      // stash, one |E|-row workspace per cross-orientation reduction the
      // interpreter cannot elide. A bound core never stashes.
      std::size_t transient = 0;
      switch (nd.kind) {
        case OpKind::Input:
        case OpKind::Param:
        case OpKind::FusedOut:
          break;
        case OpKind::Fused: {
          const EdgeProgram& ep = ir.programs.at(nd.program);
          const bool interpreted = !p.cores_[nd.program].specialized();
          for (std::size_t i = 0; i < ep.vertex_outputs.size(); ++i) {
            const VertexOutput& vo = ep.vertex_outputs[i];
            live += scaled(vo.node);
            if (interpreted && interpreter_stashes(ep, i)) {
              transient += static_cast<std::size_t>(m_e * vo.width) * sizeof(float);
            }
          }
          for (const EdgeOutput& eo : ep.edge_outputs) live += scaled(eo.node);
          break;
        }
        default:
          live += scaled(id);
          break;
      }
      peak = std::max(peak, live + transient);
      for (int f : p.steps_[id].free_after) live -= scaled(f);
    }
    return peak;
  };
  p.estimated_peak_bytes_ = simulate(num_vertices, num_edges, nullptr);

  if (part != nullptr) {
    p.shards_.resize(part->num_shards());
    for (int s = 0; s < part->num_shards(); ++s) {
      const Shard& sh = part->shard(s);
      ShardSchedule& ss = p.shards_[s];
      ss.v_lo = sh.v_lo;
      ss.v_hi = sh.v_hi;
      ss.num_vertices = sh.num_vertices();
      ss.local_edges = sh.num_in_edges();
      ss.frontier_vertices = static_cast<std::int64_t>(sh.frontier.size());
      ss.frontier_edges = sh.frontier_in_edges;
      ss.interior_edges = sh.interior_in_edges();
      ss.estimated_peak_bytes =
          simulate(ss.num_vertices, ss.local_edges, &ss.persistent_bytes);
    }
  }

  p.ir_ = std::move(ir);
  p.pipeline_ = pipeline;
  p.transport_ = transport;
  p.compile_seconds_ = timer.seconds();
  ++global_counters().plan_compiles;
  return p;
}

std::shared_ptr<const ExecutionPlan> ExecutionPlan::compile_shared(
    IrGraph ir, std::int64_t num_vertices, std::int64_t num_edges,
    const Partitioning* part, bool specialize, bool pipeline, bool transport) {
  return std::make_shared<const ExecutionPlan>(
      compile(std::move(ir), num_vertices, num_edges, part, specialize,
              pipeline, transport));
}

std::size_t ExecutionPlan::max_shard_peak_bytes() const {
  if (shards_.empty()) return estimated_peak_bytes_;
  std::size_t mx = 0;
  for (const ShardSchedule& ss : shards_) {
    mx = std::max(mx, ss.estimated_peak_bytes);
  }
  return mx;
}

// --- PlanRunner -------------------------------------------------------------

PlanRunner::PlanRunner(const Graph& graph,
                       std::shared_ptr<const ExecutionPlan> plan,
                       MemoryPool* pool)
    : graph_(graph), plan_(std::move(plan)), pool_(pool) {
  TRIAD_CHECK(plan_ != nullptr, "PlanRunner requires a compiled plan");
  TRIAD_CHECK_EQ(graph_.num_vertices(), plan_->num_vertices(),
                 "plan was compiled for a different |V|");
  TRIAD_CHECK_EQ(graph_.num_edges(), plan_->num_edges(),
                 "plan was compiled for a different |E|");
  slots_.resize(plan_->size());
  aux_.resize(plan_->size());
}

PlanRunner::~PlanRunner() = default;

void PlanRunner::set_partitioning(const Partitioning* part) {
  if (part != nullptr) {
    TRIAD_CHECK_EQ(part->num_vertices(), graph_.num_vertices(),
                   "partitioning built for a different |V|");
    TRIAD_CHECK_EQ(part->num_edges(), graph_.num_edges(),
                   "partitioning built for a different |E|");
  }
  partition_ = part;
  // The combine-dependency schedule is a pure function of the installed
  // partitioning, so build it here once rather than per program execution.
  pipeline_sched_ = (part != nullptr && plan_->pipeline())
                        ? std::make_unique<PipelineSchedule>(*part)
                        : nullptr;
  // Likewise the shard fabric: its exchange plan depends only on the graph
  // and the partitioning. Transport signaling rides the pipelined publishes,
  // so without a pipeline schedule there is nothing for it to carry.
  shard_tx_ = (pipeline_sched_ != nullptr && plan_->transport())
                  ? std::make_unique<transport::ShardTransport>(graph_, *part)
                  : nullptr;
}

void PlanRunner::bind(int node, Tensor t) {
  const Node& n = ir().node(node);
  TRIAD_CHECK(n.kind == OpKind::Input || n.kind == OpKind::Param,
              "bind target " << ir().describe(node)
                             << " must be Input or Param");
  TRIAD_CHECK_EQ(t.rows(), plan_->step(node).rows,
                 "bind rows for " << ir().describe(node));
  TRIAD_CHECK_EQ(t.cols(), n.cols, "bind cols for " << ir().describe(node));
  slots_[node] = std::move(t);
}

Tensor& PlanRunner::alloc_slot(int id) {
  const PlanStep& st = plan_->step(id);
  slots_[id].reset();  // release a kept tensor from a previous run first
  slots_[id] = Tensor(st.rows, ir().node(id).cols, st.tag, pool_);
  return slots_[id];
}

const Tensor& PlanRunner::result(int node) const {
  TRIAD_CHECK(slots_[node].defined(),
              "node " << ir().describe(node) << " has no live tensor");
  return slots_[node];
}

Tensor& PlanRunner::result_mut(int node) {
  TRIAD_CHECK(slots_[node].defined(),
              "node " << ir().describe(node) << " has no live tensor");
  return slots_[node];
}

Tensor PlanRunner::take_result(int node) {
  TRIAD_CHECK(slots_[node].defined(),
              "node " << ir().describe(node) << " has no live tensor");
  Tensor t = std::move(slots_[node]);
  slots_[node].reset();
  return t;
}

const IntTensor& PlanRunner::aux_of(int node) const {
  TRIAD_CHECK(aux_[node].defined(),
              "node " << ir().describe(node) << " has no aux tensor");
  return aux_[node];
}

void PlanRunner::run_range(int lo, int hi) {
  for (int id = lo; id < hi; ++id) {
    exec_node(ir().node(id));
    for (int f : plan_->step(id).free_after) {
      slots_[f].reset();
      // aux outlives the tensor only if a later MaxBwd needs it; MaxBwd
      // consumers reference the node directly, so this point is safe.
      aux_[f].reset();
    }
  }
}

void PlanRunner::run() {
  run_range(0, plan_->size());
  cursor_ = plan_->size();
}

void PlanRunner::run_forward() {
  run_range(0, plan_->forward_end());
  cursor_ = plan_->forward_end();
}

void PlanRunner::run_backward() {
  TRIAD_CHECK_GE(ir().backward_start, 0, "plan has no backward pass");
  TRIAD_CHECK_EQ(cursor_, plan_->forward_end(), "run_forward() must come first");
  run_range(cursor_, plan_->size());
  cursor_ = plan_->size();
}

void PlanRunner::exec_node(const Node& n) {
  switch (n.kind) {
    case OpKind::Input:
    case OpKind::Param:
      TRIAD_CHECK(slots_[n.id].defined(),
                  "node %" << n.id << " (" << n.name << ") of kind "
                           << to_string(n.kind) << " not bound");
      return;
    case OpKind::Scatter: {
      Tensor& out = alloc_slot(n.id);
      const Tensor& a = result(n.inputs[0]);
      const Tensor* b = n.inputs.size() > 1 ? &result(n.inputs[1]) : nullptr;
      if (partition_ != nullptr) {
        kernels::scatter_sharded(graph_, *partition_, n.sfn, a, b, out, n.heads);
      } else {
        kernels::scatter(graph_, n.sfn, a, b, out, n.heads);
      }
      return;
    }
    case OpKind::Gather: {
      Tensor& out = alloc_slot(n.id);
      IntTensor* argmax = nullptr;
      if (plan_->step(n.id).needs_argmax) {
        const PlanStep& st = plan_->step(n.id);
        aux_[n.id] = IntTensor(st.rows, n.cols, st.tag, pool_);
        argmax = &aux_[n.id];
      }
      if (partition_ != nullptr) {
        kernels::gather_sharded(graph_, *partition_, n.rfn, n.reverse,
                                result(n.inputs[0]), out, argmax);
      } else {
        kernels::gather(graph_, n.rfn, n.reverse, result(n.inputs[0]), out,
                        argmax);
      }
      return;
    }
    case OpKind::Apply:
      exec_apply(n);
      return;
    case OpKind::Special:
      exec_special(n);
      return;
    case OpKind::Fused:
      exec_fused(n);
      return;
    case OpKind::FusedOut:
      TRIAD_CHECK(slots_[n.id].defined(),
                  "fused output %" << n.id << " not produced by its program");
      return;
  }
}

void PlanRunner::exec_apply(const Node& n) {
  Tensor& out = alloc_slot(n.id);
  switch (n.afn) {
    case ApplyFn::Linear:
      kernels::linear(result(n.inputs[0]), result(n.inputs[1]), out, n.wrow_lo,
                      n.wrow_hi);
      return;
    case ApplyFn::LinearWGrad:
      kernels::linear_wgrad(result(n.inputs[0]), result(n.inputs[1]), out,
                            n.wrow_lo, n.wrow_hi);
      return;
    case ApplyFn::LinearXGrad:
      kernels::linear_xgrad(result(n.inputs[0]), result(n.inputs[1]), out,
                            n.wrow_lo, n.wrow_hi);
      return;
    case ApplyFn::Bias:
      kernels::bias(result(n.inputs[0]), result(n.inputs[1]), out);
      return;
    case ApplyFn::BiasGrad:
      kernels::bias_grad(result(n.inputs[0]), out);
      return;
    case ApplyFn::SliceCols:
      kernels::slice_cols(result(n.inputs[0]), out, n.slice_lo, n.slice_hi);
      return;
    case ApplyFn::HeadSum:
      kernels::head_sum(result(n.inputs[0]), out, n.heads, n.alpha);
      return;
    case ApplyFn::HeadBroadcast:
      kernels::head_broadcast(result(n.inputs[0]), out, n.heads, n.alpha);
      return;
    case ApplyFn::LeakyReLU:
    case ApplyFn::ReLU:
    case ApplyFn::ELU:
    case ApplyFn::Exp:
    case ApplyFn::Neg:
    case ApplyFn::Scale:
    case ApplyFn::Identity:
      kernels::apply_unary(n.afn, result(n.inputs[0]), out, n.alpha);
      return;
    default:
      kernels::apply_binary(n.afn, result(n.inputs[0]), result(n.inputs[1]), out,
                            n.heads, n.alpha);
      return;
  }
}

void PlanRunner::exec_special(const Node& n) {
  switch (n.spfn) {
    case SpecialFn::EdgeSoftmax: {
      Tensor& out = alloc_slot(n.id);
      if (partition_ != nullptr) {
        kernels::edge_softmax_sharded(graph_, *partition_, result(n.inputs[0]),
                                      out);
      } else {
        kernels::edge_softmax(graph_, result(n.inputs[0]), out);
      }
      return;
    }
    case SpecialFn::EdgeSoftmaxGrad: {
      Tensor& out = alloc_slot(n.id);
      if (partition_ != nullptr) {
        kernels::edge_softmax_grad_sharded(graph_, *partition_,
                                           result(n.inputs[0]),
                                           result(n.inputs[1]), out);
      } else {
        kernels::edge_softmax_grad(graph_, result(n.inputs[0]),
                                   result(n.inputs[1]), out);
      }
      return;
    }
    case SpecialFn::GatherMaxBwd: {
      Tensor& out = alloc_slot(n.id);
      if (partition_ != nullptr) {
        kernels::gather_max_bwd_sharded(graph_, *partition_, result(n.inputs[0]),
                                        aux_of(n.inputs[1]), out, n.reverse);
      } else {
        kernels::gather_max_bwd(graph_, result(n.inputs[0]), aux_of(n.inputs[1]),
                                out, n.reverse);
      }
      return;
    }
    case SpecialFn::DegreeInv: {
      Tensor& out = alloc_slot(n.id);
      if (partition_ != nullptr) {
        kernels::degree_inv_sharded(graph_, *partition_, out, n.reverse);
      } else {
        kernels::degree_inv(graph_, out, n.reverse);
      }
      return;
    }
    case SpecialFn::Gaussian: {
      Tensor& out = alloc_slot(n.id);
      kernels::gaussian(result(n.inputs[0]), result(n.inputs[1]),
                        result(n.inputs[2]), out);
      return;
    }
    case SpecialFn::GaussianGradMu: {
      Tensor& out = alloc_slot(n.id);
      kernels::gaussian_grad_mu(result(n.inputs[0]), result(n.inputs[1]),
                                result(n.inputs[2]), result(n.inputs[3]),
                                result(n.inputs[4]), out);
      return;
    }
    case SpecialFn::GaussianGradSigma: {
      Tensor& out = alloc_slot(n.id);
      kernels::gaussian_grad_sigma(result(n.inputs[0]), result(n.inputs[1]),
                                   result(n.inputs[2]), result(n.inputs[3]),
                                   result(n.inputs[4]), out);
      return;
    }
  }
}

void PlanRunner::exec_fused(const Node& n) {
  const EdgeProgram& ep = ir().programs.at(n.program);
  for (const VertexOutput& vo : ep.vertex_outputs) {
    alloc_slot(vo.node);
    // Boundary (cross-orientation / edge-balanced) outputs need no
    // zero-fill: the combine sweep writes every target row.
    if (vo.track_argmax) {
      const PlanStep& st = plan_->step(vo.node);
      aux_[vo.node] = IntTensor(st.rows, vo.width, st.tag, pool_);
    }
  }
  for (const EdgeOutput& eo : ep.edge_outputs) alloc_slot(eo.node);

  VmBindings b;
  b.tensor = [this](int id) -> const Tensor& { return result(id); };
  b.aux = [this](int id) -> const IntTensor& { return aux_of(id); };
  b.out = [this](int id) -> Tensor& { return result_mut(id); };
  b.out_aux = [this](int id) -> IntTensor& { return aux_[id]; };
  b.pool = pool_;
  const CoreBinding* core = &plan_->core(n.program);
  const bool backward = n.id >= plan_->forward_end();
  if (partition_ != nullptr) {
    run_edge_program_sharded(graph_, *partition_, ep, b, core,
                             pipeline_sched_.get(), backward, shard_tx_.get());
  } else {
    run_edge_program(graph_, ep, b, core, backward);
  }
}

}  // namespace triad
