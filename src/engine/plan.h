/// \file
/// ExecutionPlan + PlanRunner: the compile-time / run-time split.
///
/// An ExecutionPlan is the immutable compile artifact of the engine: it owns
/// the final (post-pass) IrGraph and precomputes everything the hot loop used
/// to derive on the fly — the topological schedule and its forward/backward
/// boundary, per-node row counts resolved against the graph dimensions,
/// memory-tag classification, argmax-aux requirements, static slot free-lists
/// (which tensors die after which step), and an analytic peak-memory estimate.
/// Compiling a plan charges PerfCounters::plan_compiles once; executing it
/// charges nothing compile-shaped, so one plan can be benchmarked, cached, and
/// shared by N training epochs or M concurrent inference requests.
///
/// A PlanRunner is the thin per-request execution state (tensor slots, bound
/// inputs, a schedule cursor) over a shared `const ExecutionPlan&`. Multiple
/// runners may execute the same plan concurrently: the plan is never written
/// after compile() returns, and each runner owns its slots and memory pool.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/specialize.h"
#include "graph/csr.h"
#include "graph/partition.h"
#include "ir/graph.h"
#include "tensor/mempool.h"
#include "tensor/tensor.h"

namespace triad {

/// Precomputed per-node execution record. `free_after` lists the node ids
/// whose slot (and aux) die once this step has executed — the compile-time
/// form of the liveness countdown the old Executor ran every epoch.
struct PlanStep {
  MemTag tag = MemTag::kActivations;
  std::int64_t rows = 0;        ///< resolved against |V| / |E| / param rows
  std::int64_t alloc_bytes = 0; ///< slot+aux bytes this step allocates
  bool needs_argmax = false;    ///< Gather-Max: allocate the argmax aux
  std::vector<int> free_after;
};

/// One shard's slice of the compiled schedule. The step order, memory tags,
/// and free-lists are shared with the plan (every shard executes the same
/// program); what varies per shard is the data footprint: vertex-space
/// tensors scale with the owned range, edge-space tensors with the local
/// edge count, parameters are replicated. The peak estimate replays the
/// plan's liveness simulation at shard scale, which is what lets a plan be
/// placed shard-by-shard on capacity-limited DeviceProfiles.
struct ShardSchedule {
  std::int64_t v_lo = 0, v_hi = 0;     ///< owned vertex range
  std::int64_t num_vertices = 0;
  std::int64_t local_edges = 0;        ///< in-edges of owned vertices
  std::size_t persistent_bytes = 0;    ///< bound inputs (scaled) + params (full)
  std::size_t estimated_peak_bytes = 0;
};

class ExecutionPlan {
 public:
  /// Compiles `ir` against the graph dimensions: validates, classifies, and
  /// precomputes the schedule. When a Partitioning is supplied the plan also
  /// carries a per-shard schedule (scaled footprints + per-shard peak
  /// estimates). `specialize` runs the core matcher over every edge program
  /// (see engine/specialize.h); false pins everything to the interpreter (the
  /// ablation knob). `transport` routes training's parameter updates through
  /// a ParamServer (src/transport/param_server.h); false keeps the Trainer's
  /// in-place update (the --no-transport ablation). Output is bit-identical
  /// either way. The plan is immutable afterwards.
  static ExecutionPlan compile(IrGraph ir, std::int64_t num_vertices,
                               std::int64_t num_edges,
                               const Partitioning* part = nullptr,
                               bool specialize = true, bool transport = true);
  static std::shared_ptr<const ExecutionPlan> compile_shared(
      IrGraph ir, std::int64_t num_vertices, std::int64_t num_edges,
      const Partitioning* part = nullptr, bool specialize = true,
      bool transport = true);

  ExecutionPlan(ExecutionPlan&&) = default;
  ExecutionPlan& operator=(ExecutionPlan&&) = default;

  const IrGraph& ir() const { return ir_; }
  std::int64_t num_vertices() const { return num_vertices_; }
  std::int64_t num_edges() const { return num_edges_; }

  int size() const { return static_cast<int>(steps_.size()); }
  /// First backward node id, or size() for inference-only plans — the split
  /// point of run_forward()/run_backward().
  int forward_end() const { return forward_end_; }
  const PlanStep& step(int id) const { return steps_[id]; }
  bool is_output(int id) const { return is_output_[id] != 0; }

  /// Analytic memory model of one run: bytes pinned for the whole run
  /// (bound inputs + parameters) and the simulated allocation peak. The
  /// simulation charges a boundary stash only where the runtime allocates
  /// one (interpreter_stashes in engine/vm.h, for a program no core is bound
  /// to).
  std::size_t persistent_bytes() const { return persistent_bytes_; }
  std::size_t estimated_peak_bytes() const { return estimated_peak_bytes_; }

  /// Per-shard schedule (empty when compiled without a Partitioning).
  int num_shards() const { return static_cast<int>(shards_.size()); }
  const ShardSchedule& shard_schedule(int s) const { return shards_[s]; }
  /// Largest per-shard peak — the number to compare against a capacity-
  /// limited DeviceProfile when placing one shard per device. NOTE: this is
  /// the hypothetical one-shard-per-device placement model (each device
  /// holds its owned slice of every tensor). The current shared-memory
  /// runtime allocates full-graph tensors regardless of K, so its actual
  /// footprint is estimated_peak_bytes(), not this.
  std::size_t max_shard_peak_bytes() const;
  /// True when every shard's modeled placement peak fits `capacity_bytes`
  /// (see max_shard_peak_bytes for what that does and does not promise).
  bool shards_fit(std::size_t capacity_bytes) const {
    return max_shard_peak_bytes() <= capacity_bytes;
  }

  /// Wall time compile() spent building this plan.
  double compile_seconds() const { return compile_seconds_; }

  /// Whether training updates parameters through a ParamServer.
  bool transport() const { return transport_; }

  /// Core binding selected for edge program `program` (kind == None when the
  /// matcher declined it or the plan was compiled with specialize=false).
  const CoreBinding& core(int program) const { return cores_[program]; }
  /// One entry per IrGraph program, parallel to ir().programs.
  const std::vector<CoreBinding>& cores() const { return cores_; }

 private:
  ExecutionPlan() = default;

  IrGraph ir_;
  std::int64_t num_vertices_ = 0;
  std::int64_t num_edges_ = 0;
  int forward_end_ = 0;
  std::vector<PlanStep> steps_;
  std::vector<char> is_output_;
  std::size_t persistent_bytes_ = 0;
  std::size_t estimated_peak_bytes_ = 0;
  std::vector<ShardSchedule> shards_;
  std::vector<CoreBinding> cores_;  ///< per-program, parallel to ir().programs
  double compile_seconds_ = 0.0;
  bool transport_ = true;
};

/// Per-request execution state over a shared immutable plan. Replaces the
/// run-time half of the old Executor; all analysis lives in ExecutionPlan.
class PlanRunner {
 public:
  PlanRunner(const Graph& graph, std::shared_ptr<const ExecutionPlan> plan,
             MemoryPool* pool = &global_pool_mem());

  /// Binds an externally owned tensor to an Input or Param node. Bound
  /// tensors persist across run() calls (training epochs / requests).
  void bind(int node, Tensor t);

  /// Executes every node in schedule order. Can be called repeatedly.
  void run();

  /// Split execution for training: run_forward() stops at the plan's
  /// forward/backward boundary so the caller can seed the loss gradient;
  /// run_backward() completes the step.
  void run_forward();
  void run_backward();

  /// Installs (or clears, with nullptr) a partitioning: fused programs then
  /// execute shard-by-shard across the thread pool, each shard one unit of
  /// placement, with deterministic boundary combine — output stays
  /// bit-identical to unsharded execution. The Partitioning must outlive the
  /// runner and match the graph. Non-graph kernels are unaffected.
  void set_partitioning(const Partitioning* part);
  const Partitioning* partitioning() const { return partition_; }

  /// Tensor produced by (or bound to) `node`; valid for bound nodes and
  /// outputs after run(), or any node before its plan-scheduled free point.
  const Tensor& result(int node) const;
  Tensor& result_mut(int node);
  /// Moves `node`'s tensor out of the runner (the slot becomes undefined
  /// until the next run). Serving uses this to hand a batch output to
  /// de-collation without pinning every slot of the finished run.
  Tensor take_result(int node);
  bool has_result(int node) const { return slots_[node].defined(); }
  const IntTensor& aux_of(int node) const;

  const Graph& graph() const { return graph_; }
  const ExecutionPlan& plan() const { return *plan_; }
  const IrGraph& ir() const { return plan_->ir(); }
  MemoryPool& pool() { return *pool_; }

 private:
  void run_range(int lo, int hi);
  void exec_node(const Node& n);
  void exec_apply(const Node& n);
  void exec_special(const Node& n);
  void exec_fused(const Node& n);
  Tensor& alloc_slot(int id);

  const Graph& graph_;
  std::shared_ptr<const ExecutionPlan> plan_;
  MemoryPool* pool_;
  const Partitioning* partition_ = nullptr;  ///< non-owning; null = unsharded

  std::vector<Tensor> slots_;
  std::vector<IntTensor> aux_;
  int cursor_ = 0;  ///< next node to execute in a split run
};

}  // namespace triad
