/// \file
/// The EdgeProgram interpreter — execution of fused graph kernels (Section 5).
///
/// One invocation = one device kernel. Under vertex-balanced mapping the VM
/// walks destination (or source) vertices, evaluating the per-edge register
/// program phase by phase; reductions matching the kernel orientation use
/// sequential per-vertex accumulators (zero atomics), cross-orientation Sum
/// reductions stash their per-edge contribution and are finalized by a
/// deterministic boundary-combine sweep over the reverse adjacency (fixed
/// edge order per target vertex — no atomics, bit-identical for any thread or
/// shard count). Edge intermediates live in a register file (no DRAM
/// traffic), which is where the fusion IO savings come from; the cost model
/// charges accordingly.
///
/// Sharded execution (run_edge_program_sharded) walks each shard's owned
/// vertex range as one unit of work on the thread pool; because shards are
/// contiguous and the combine order is fixed by the graph, sharded output is
/// bit-identical to the single-shard path. Analytic costs are charged per
/// shard (one modeled kernel launch each), and the boundary-combine traffic
/// of cross-shard reductions is charged to PerfCounters::combine_bytes.
///
/// With a PipelineSchedule (engine/pipeline.h) the sharded interpreter runs
/// dependency-driven instead of barriered: shards walk their frontier
/// vertices first and publish through atomic ready counters, and each owner
/// shard's combine fires as soon as the shards contributing to its cut have
/// published — overlapping combine with remaining interior compute. Output
/// stays bit-identical; PerfCounters::{interior,frontier}_edges and
/// combine_overlap_ns report what the pipeline did.
#pragma once

#include <functional>

#include "engine/specialize.h"
#include "graph/csr.h"
#include "graph/partition.h"
#include "ir/edge_program.h"
#include "tensor/tensor.h"

namespace triad {

namespace transport {
class ShardTransport;
}  // namespace transport

/// Tensor environment the VM reads from / writes to, keyed by IR node id.
struct VmBindings {
  std::function<const Tensor&(int)> tensor;  ///< inputs (vertex/edge/param)
  std::function<const IntTensor&(int)> aux;  ///< argmax auxes (MaxBwdMask)
  std::function<Tensor&(int)> out;           ///< program outputs
  std::function<IntTensor&(int)> out_aux;    ///< argmax aux outputs
  /// Pool the boundary-combine stash (an O(|E| x width) workspace per
  /// cross-orientation reduction) is accounted against; null = global pool.
  MemoryPool* pool = nullptr;
};

/// Executes the program over `g` as a single shard (fine-grained chunked
/// parallelism). Charges PerfCounters analytically.
///
/// `core`: optional specialized-core binding produced by match_core at plan
/// compile time. When it names a core, the walk runs that core instead of the
/// interpreter — bit-identical output (see engine/specialize.h) — and, for
/// bindings with a boundary output, run_core_combine_span finalizes it after
/// the walk. Specialized runs charge PerfCounters::specialized_{fwd,bwd}_edges
/// and null/unmatched runs charge interpreted_{fwd,bwd}_edges, split by
/// `backward` (true = the program belongs to the training backward pass). The
/// analytic device-cost model is charged identically either way (it models
/// the program, not the CPU realization).
void run_edge_program(const Graph& g, const EdgeProgram& ep, const VmBindings& b,
                      const CoreBinding* core = nullptr, bool backward = false);

/// True when the interpreter realizes vertex output `out` of `ep` through
/// an O(|E| x width) boundary stash. A cross-orientation (or edge-balanced)
/// reduction whose per-edge contribution is cheap to replay has its stash
/// elided: the combine recomputes the contribution instead. Sequential
/// reductions never stash, and neither do bound cores (their combine always
/// recomputes). The plan's peak-memory simulation asks the same question, so
/// the rule lives only here.
bool interpreter_stashes(const EdgeProgram& ep, std::size_t out);

class PipelineSchedule;

/// Executes the program shard-by-shard: each shard's owned range is one unit
/// of pool work (shard = unit of placement; no intra-shard work stealing).
/// Output is bit-identical to run_edge_program for every K.
///
/// `pipeline`: optional combine-dependency schedule (must match `part`).
/// Non-null runs vertex-balanced programs — interpreted AND specialized —
/// through the pipelined frontier-first path instead of the barrier, so
/// specialized backward cores (whose boundary output is finalized by the
/// combine core) overlap their combine with other shards' walks exactly like
/// the interpreter does. Edge-balanced programs keep the barrier. Output is
/// bit-identical either way. `backward` selects the fwd/bwd counter split as
/// in run_edge_program.
///
/// `transport`: optional shard fabric (must match `part`). Non-null routes
/// the pipelined path's publish/combine signaling through transport messages
/// (transport::BoundaryExchange) instead of bare counters — same firing
/// threads, same fold order, bit-identical output — and charges the fabric's
/// message/byte delta to PerfCounters::transport_{msgs,bytes}. Ignored on
/// the barrier and edge-balanced paths (those stay direct shared-memory: the
/// --no-transport ablation baseline).
void run_edge_program_sharded(const Graph& g, const Partitioning& part,
                              const EdgeProgram& ep, const VmBindings& b,
                              const CoreBinding* core = nullptr,
                              const PipelineSchedule* pipeline = nullptr,
                              bool backward = false,
                              transport::ShardTransport* transport = nullptr);

}  // namespace triad
