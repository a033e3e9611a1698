/// \file
/// Graph topology: COO edge list and the CSR/CSC indexes the engine iterates.
///
/// Edge identity matters: edge-space feature tensors are indexed by the edge id
/// assigned at construction, and both the destination-major (CSR, incoming
/// edges of v) and source-major (CSC, outgoing edges of u) views carry the
/// original edge id so forward vertex-balanced kernels and backward
/// reverse-orientation reductions address the same rows.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/macros.h"

namespace triad {

/// One directed edge u --e--> v.
struct Edge {
  std::int32_t src;
  std::int32_t dst;
};

/// Immutable directed graph with CSR (by destination) and CSC (by source)
/// adjacency, both mapping back to a stable edge id in [0, num_edges).
class Graph {
 public:
  /// Builds from an edge list; deduplication is the caller's business.
  /// Vertex and edge ids are int32: throws triad::Error when |V| or |E|
  /// exceeds INT32_MAX, before allocating anything.
  Graph(std::int64_t num_vertices, std::vector<Edge> edges);

  std::int64_t num_vertices() const { return n_; }
  std::int64_t num_edges() const { return m_; }

  // Destination-major view: incoming edges of v are
  //   [in_ptr[v], in_ptr[v+1]) over (in_src, in_eid).
  const std::vector<std::int64_t>& in_ptr() const { return in_ptr_; }
  const std::vector<std::int32_t>& in_src() const { return in_src_; }
  const std::vector<std::int32_t>& in_eid() const { return in_eid_; }

  // Source-major view: outgoing edges of u are
  //   [out_ptr[u], out_ptr[u+1]) over (out_dst, out_eid).
  const std::vector<std::int64_t>& out_ptr() const { return out_ptr_; }
  const std::vector<std::int32_t>& out_dst() const { return out_dst_; }
  const std::vector<std::int32_t>& out_eid() const { return out_eid_; }

  // Flat edge list indexed by edge id (used by edge-balanced kernels).
  const std::vector<std::int32_t>& edge_src() const { return edge_src_; }
  const std::vector<std::int32_t>& edge_dst() const { return edge_dst_; }

  std::int64_t in_degree(std::int64_t v) const {
    return in_ptr_[v + 1] - in_ptr_[v];
  }
  std::int64_t out_degree(std::int64_t u) const {
    return out_ptr_[u + 1] - out_ptr_[u];
  }
  std::int64_t max_in_degree() const { return max_in_degree_; }

  /// Human-readable |V|/|E|/degree summary.
  std::string stats() const;

  /// 64-bit FNV-1a hash of the adjacency (edge list in id order). Two graphs
  /// with equal |V|/|E| but different topology get different fingerprints
  /// (up to hash collision) — the cache-key ingredient for artifacts that
  /// bake topology-dependent state, e.g. a sharded plan's Partitioning.
  /// Computed on demand, O(|E|) per call, and only by topology-pinned cache
  /// keys (sharded compiles) — hot paths that churn Graphs, like the serving
  /// collator building one per batch, never pay for it.
  std::uint64_t topology_fingerprint() const;

 private:
  std::int64_t n_ = 0;
  std::int64_t m_ = 0;
  std::vector<std::int64_t> in_ptr_;
  std::vector<std::int32_t> in_src_, in_eid_;
  std::vector<std::int64_t> out_ptr_;
  std::vector<std::int32_t> out_dst_, out_eid_;
  std::vector<std::int32_t> edge_src_, edge_dst_;
  std::int64_t max_in_degree_ = 0;
};

}  // namespace triad
