/// \file
/// Performance accounting: the analytic cost model behind every number the
/// benchmark harness reports.
///
/// Each engine kernel *executes* the real math on the CPU and additionally
/// charges this ledger with the DRAM traffic / FLOPs / atomics that a GPU
/// kernel with the same thread mapping would incur (the paper's IO analysis in
/// Sections 4–5 uses exactly this naive global-memory model, e.g. the GAT
/// pre-fusion IO of |V|hf + 7|E|h + 3|E|hf).
#pragma once

#include <cstdint>
#include <string>

namespace triad {

/// Aggregate cost counters. Plain struct so snapshots/diffs are trivial.
struct PerfCounters {
  std::uint64_t dram_read_bytes = 0;   ///< modeled global-memory reads
  std::uint64_t dram_write_bytes = 0;  ///< modeled global-memory writes
  std::uint64_t flops = 0;             ///< floating point ops executed
  std::uint64_t atomic_ops = 0;        ///< cross-thread atomic reductions
  std::uint64_t kernel_launches = 0;   ///< number of device kernels issued
  std::uint64_t onchip_bytes = 0;      ///< traffic kept in registers/shared mem by fusion
  std::uint64_t combine_bytes = 0;     ///< boundary-combine traffic of sharded runs
  std::uint64_t ir_passes = 0;         ///< IR passes executed (compile-time work)
  std::uint64_t graph_rewrites = 0;    ///< optimizer rule hits (compile-time work)
  std::uint64_t plan_compiles = 0;     ///< ExecutionPlans built (compile-time work)
  // Specialized-vs-interpreted edge accounting, split by pass so training
  // benches can prove the backward cores engage (a training step charges the
  // forward programs to *_fwd_edges and the gradient programs to
  // *_bwd_edges; forward-only runs leave the bwd fields zero).
  std::uint64_t specialized_fwd_edges = 0;  ///< forward edges run by cores
  std::uint64_t specialized_bwd_edges = 0;  ///< backward edges run by cores
  std::uint64_t interpreted_fwd_edges = 0;  ///< forward edges interpreted
  std::uint64_t interpreted_bwd_edges = 0;  ///< backward edges interpreted
  std::uint64_t walk_ns = 0;            ///< sharded walks: per-shard task time, summed
  std::uint64_t combine_ns = 0;         ///< sharded combine: per-task time, summed
  /// Always 0: sharded combines run after every walk has joined, so none is
  /// hidden under a walk. Kept because benchmark reports still write it.
  std::uint64_t combine_overlap_ns = 0;
  std::uint64_t boundary_stash_bytes = 0;        ///< per-edge stash actually allocated
  std::uint64_t boundary_stash_saved_bytes = 0;  ///< stash elided via combine-time recompute
  // Transport accounting (src/transport/): the ParamServer fabric's messages.
  // A training step sends one gradient message per parameter, one pull
  // request and one weight reply per parameter, so transport_bytes equals
  // param_push_bytes + param_pull_bytes. Cross-shard boundary volume is
  // combine_bytes, not a message.
  std::uint64_t transport_msgs = 0;      ///< messages sent over any fabric
  std::uint64_t transport_bytes = 0;     ///< modeled wire bytes of those messages
  std::uint64_t param_push_bytes = 0;    ///< gradient bytes pushed to the param server
  std::uint64_t param_pull_bytes = 0;    ///< parameter bytes pulled back by workers

  std::uint64_t io_bytes() const { return dram_read_bytes + dram_write_bytes; }
  /// Totals over both passes — the pre-split counters every report keeps.
  std::uint64_t specialized_edges() const {
    return specialized_fwd_edges + specialized_bwd_edges;
  }
  std::uint64_t interpreted_edges() const {
    return interpreted_fwd_edges + interpreted_bwd_edges;
  }
  /// Total compile-phase events; zero across a window proves the window ran
  /// entirely from a prebuilt ExecutionPlan (no re-analysis in the hot loop).
  std::uint64_t compile_events() const { return ir_passes + plan_compiles; }

  PerfCounters operator-(const PerfCounters& o) const {
    PerfCounters r;
    r.dram_read_bytes = dram_read_bytes - o.dram_read_bytes;
    r.dram_write_bytes = dram_write_bytes - o.dram_write_bytes;
    r.flops = flops - o.flops;
    r.atomic_ops = atomic_ops - o.atomic_ops;
    r.kernel_launches = kernel_launches - o.kernel_launches;
    r.onchip_bytes = onchip_bytes - o.onchip_bytes;
    r.combine_bytes = combine_bytes - o.combine_bytes;
    r.ir_passes = ir_passes - o.ir_passes;
    r.graph_rewrites = graph_rewrites - o.graph_rewrites;
    r.plan_compiles = plan_compiles - o.plan_compiles;
    r.specialized_fwd_edges = specialized_fwd_edges - o.specialized_fwd_edges;
    r.specialized_bwd_edges = specialized_bwd_edges - o.specialized_bwd_edges;
    r.interpreted_fwd_edges = interpreted_fwd_edges - o.interpreted_fwd_edges;
    r.interpreted_bwd_edges = interpreted_bwd_edges - o.interpreted_bwd_edges;
    r.walk_ns = walk_ns - o.walk_ns;
    r.combine_ns = combine_ns - o.combine_ns;
    r.combine_overlap_ns = combine_overlap_ns - o.combine_overlap_ns;
    r.boundary_stash_bytes = boundary_stash_bytes - o.boundary_stash_bytes;
    r.boundary_stash_saved_bytes =
        boundary_stash_saved_bytes - o.boundary_stash_saved_bytes;
    r.transport_msgs = transport_msgs - o.transport_msgs;
    r.transport_bytes = transport_bytes - o.transport_bytes;
    r.param_push_bytes = param_push_bytes - o.param_push_bytes;
    r.param_pull_bytes = param_pull_bytes - o.param_pull_bytes;
    return r;
  }
  PerfCounters& operator+=(const PerfCounters& o) {
    dram_read_bytes += o.dram_read_bytes;
    dram_write_bytes += o.dram_write_bytes;
    flops += o.flops;
    atomic_ops += o.atomic_ops;
    kernel_launches += o.kernel_launches;
    onchip_bytes += o.onchip_bytes;
    combine_bytes += o.combine_bytes;
    ir_passes += o.ir_passes;
    graph_rewrites += o.graph_rewrites;
    plan_compiles += o.plan_compiles;
    specialized_fwd_edges += o.specialized_fwd_edges;
    specialized_bwd_edges += o.specialized_bwd_edges;
    interpreted_fwd_edges += o.interpreted_fwd_edges;
    interpreted_bwd_edges += o.interpreted_bwd_edges;
    walk_ns += o.walk_ns;
    combine_ns += o.combine_ns;
    combine_overlap_ns += o.combine_overlap_ns;
    boundary_stash_bytes += o.boundary_stash_bytes;
    boundary_stash_saved_bytes += o.boundary_stash_saved_bytes;
    transport_msgs += o.transport_msgs;
    transport_bytes += o.transport_bytes;
    param_push_bytes += o.param_push_bytes;
    param_pull_bytes += o.param_pull_bytes;
    return *this;
  }

  void reset() { *this = PerfCounters{}; }

  std::string to_string() const;
};

/// Per-thread counter ledger the engine charges into. Kernels charge on the
/// thread that launches them, so concurrent PlanRunners on different threads
/// account independently (and without data races).
PerfCounters& global_counters();

/// RAII scope that measures the counter delta across its lifetime.
class CounterScope {
 public:
  CounterScope() : start_(global_counters()) {}
  PerfCounters delta() const { return global_counters() - start_; }

 private:
  PerfCounters start_;
};

/// Pretty-print helpers for benchmark tables.
std::string human_bytes(std::uint64_t bytes);
std::string human_count(std::uint64_t n);

}  // namespace triad
