/// \file
/// Graph partitioning: the placement artifact of the sharded runtime.
///
/// A Partitioning splits a Graph into K shards of contiguous owned-vertex
/// ranges. Contiguity is load-bearing: it keeps each shard's local edge lists
/// a contiguous slice of the global CSR/CSC (zero copy), makes vertex
/// ownership a binary search, and — because shard s covers exactly the
/// vertices a serial sweep visits between shard s-1 and s+1 — guarantees that
/// per-vertex sequential reductions are bit-identical for every K. Cross-shard
/// edges are tracked per shard as a halo vertex set; reductions that target
/// halo vertices go through the VM's deterministic boundary-combine step
/// rather than global atomics (see engine/vm.h), and their traffic is charged
/// to PerfCounters::combine_bytes so device projections stay honest for K > 1.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/csr.h"

namespace triad {

/// How owned-vertex range boundaries are chosen.
enum class PartitionStrategy : std::uint8_t {
  VertexRange,     ///< equal |V|/K vertex counts per shard
  DegreeBalanced,  ///< boundaries balance per-shard edge (degree) totals
};

const char* to_string(PartitionStrategy s);

/// Contiguous flat-edge range [lo, hi).
struct EdgeRange {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
};

/// The s-th of K even contiguous splits of the flat edge list [0, m) — the
/// shard work unit of edge-balanced kernels, shared by the VM and the
/// kernel drivers so execution and per-shard cost charging always agree.
inline EdgeRange edge_shard_range(std::int64_t m, int num_shards, int s) {
  return {m * s / num_shards, m * (s + 1) / num_shards};
}

/// One shard: an owned contiguous vertex range plus its local edge ranges in
/// both orientations and the halo (non-owned endpoints of local edges).
struct Shard {
  int id = 0;
  std::int64_t v_lo = 0;  ///< owned vertices are [v_lo, v_hi)
  std::int64_t v_hi = 0;

  // Local edge lists as contiguous slices of the global views:
  //   incoming edges of owned vertices = CSR rows [v_lo, v_hi)
  //     -> (in_src, in_eid)[e_in_lo, e_in_hi)
  //   outgoing edges of owned vertices = CSC rows [v_lo, v_hi)
  //     -> (out_dst, out_eid)[e_out_lo, e_out_hi)
  std::int64_t e_in_lo = 0, e_in_hi = 0;
  std::int64_t e_out_lo = 0, e_out_hi = 0;

  /// Non-owned vertices referenced by local edges (sorted, unique).
  std::vector<std::int32_t> halo;
  /// Local edges whose other endpoint is not owned by this shard.
  std::int64_t cut_in_edges = 0;   ///< incoming with foreign src
  std::int64_t cut_out_edges = 0;  ///< outgoing with foreign dst

  std::int64_t num_vertices() const { return v_hi - v_lo; }
  std::int64_t num_in_edges() const { return e_in_hi - e_in_lo; }
  std::int64_t num_out_edges() const { return e_out_hi - e_out_lo; }
  bool owns(std::int64_t v) const { return v >= v_lo && v < v_hi; }
};

/// Immutable K-way split of a graph into contiguous owned-vertex ranges.
class Partitioning {
 public:
  /// Builds a K-way partitioning. K may exceed |V|; trailing shards are then
  /// empty (zero vertices, zero edges) and simply idle at run time.
  static Partitioning build(const Graph& g, int num_shards,
                            PartitionStrategy strategy);

  int num_shards() const { return static_cast<int>(shards_.size()); }
  const Shard& shard(int s) const { return shards_[s]; }
  const std::vector<Shard>& shards() const { return shards_; }
  PartitionStrategy strategy() const { return strategy_; }

  std::int64_t num_vertices() const { return num_vertices_; }
  std::int64_t num_edges() const { return num_edges_; }

  /// Shard owning vertex v (binary search over range starts).
  int owner_of(std::int64_t v) const;

  /// Edges whose endpoints live in different shards — the traffic unit of
  /// the boundary-combine step: a sharded run charges each boundary output
  /// cut_edges() x its row width x 8 bytes to PerfCounters::combine_bytes.
  std::int64_t cut_edges() const { return cut_edges_; }
  /// Sum of per-shard halo set sizes (a vertex replicated by r shards
  /// contributes r).
  std::int64_t total_halo_vertices() const { return total_halo_; }

  /// Largest per-shard in-edge count over the ideal m/K — the load imbalance
  /// a degree-balanced split minimizes (1.0 = perfect).
  double edge_imbalance() const;

  std::string stats() const;

 private:
  Partitioning() = default;

  PartitionStrategy strategy_ = PartitionStrategy::VertexRange;
  std::int64_t num_vertices_ = 0;
  std::int64_t num_edges_ = 0;
  std::int64_t cut_edges_ = 0;
  std::int64_t total_halo_ = 0;
  std::vector<Shard> shards_;
  std::vector<std::int64_t> range_starts_;  ///< shards_[s].v_lo, for owner_of
};

}  // namespace triad
