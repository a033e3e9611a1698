#include "graph/csr.h"

#include <algorithm>
#include <limits>
#include <sstream>

namespace triad {

Graph::Graph(std::int64_t num_vertices, std::vector<Edge> edges)
    : n_(num_vertices), m_(static_cast<std::int64_t>(edges.size())) {
  // Vertex and edge ids are stored as int32 (adjacency, edge-id arrays), so
  // reject sizes they cannot address before allocating anything.
  constexpr std::int64_t kMaxId = std::numeric_limits<std::int32_t>::max();
  TRIAD_CHECK(n_ <= kMaxId,
              "|V| = " << n_ << " exceeds the int32 vertex-id limit " << kMaxId);
  TRIAD_CHECK(m_ <= kMaxId,
              "|E| = " << m_ << " exceeds the int32 edge-id limit " << kMaxId);
  TRIAD_CHECK_GT(n_, 0, "empty vertex set");
  edge_src_.resize(m_);
  edge_dst_.resize(m_);
  for (std::int64_t e = 0; e < m_; ++e) {
    const Edge& ed = edges[e];
    TRIAD_CHECK(ed.src >= 0 && ed.src < n_ && ed.dst >= 0 && ed.dst < n_,
                "edge " << e << " (" << ed.src << "->" << ed.dst
                        << ") out of range n=" << n_);
    edge_src_[e] = ed.src;
    edge_dst_[e] = ed.dst;
  }

  // CSR by destination (incoming view), counting sort keeps edge ids stable.
  in_ptr_.assign(n_ + 1, 0);
  for (std::int64_t e = 0; e < m_; ++e) ++in_ptr_[edge_dst_[e] + 1];
  for (std::int64_t v = 0; v < n_; ++v) in_ptr_[v + 1] += in_ptr_[v];
  in_src_.resize(m_);
  in_eid_.resize(m_);
  {
    std::vector<std::int64_t> cursor(in_ptr_.begin(), in_ptr_.end() - 1);
    for (std::int64_t e = 0; e < m_; ++e) {
      const std::int64_t slot = cursor[edge_dst_[e]]++;
      in_src_[slot] = edge_src_[e];
      in_eid_[slot] = static_cast<std::int32_t>(e);
    }
  }

  // CSC by source (outgoing view).
  out_ptr_.assign(n_ + 1, 0);
  for (std::int64_t e = 0; e < m_; ++e) ++out_ptr_[edge_src_[e] + 1];
  for (std::int64_t v = 0; v < n_; ++v) out_ptr_[v + 1] += out_ptr_[v];
  out_dst_.resize(m_);
  out_eid_.resize(m_);
  {
    std::vector<std::int64_t> cursor(out_ptr_.begin(), out_ptr_.end() - 1);
    for (std::int64_t e = 0; e < m_; ++e) {
      const std::int64_t slot = cursor[edge_src_[e]]++;
      out_dst_[slot] = edge_dst_[e];
      out_eid_[slot] = static_cast<std::int32_t>(e);
    }
  }

  for (std::int64_t v = 0; v < n_; ++v) {
    max_in_degree_ = std::max(max_in_degree_, in_degree(v));
  }
}

std::uint64_t Graph::topology_fingerprint() const {
  // FNV-1a over (|V|, edge list in id order): edge identity is part of the
  // topology (edge-space tensors are indexed by edge id).
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t x) {
    for (int b = 0; b < 8; ++b) {
      h ^= (x >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  mix(static_cast<std::uint64_t>(n_));
  for (std::int64_t e = 0; e < m_; ++e) {
    mix((static_cast<std::uint64_t>(static_cast<std::uint32_t>(edge_src_[e]))
         << 32) |
        static_cast<std::uint32_t>(edge_dst_[e]));
  }
  return h;
}

std::string Graph::stats() const {
  std::ostringstream os;
  const double avg = n_ > 0 ? static_cast<double>(m_) / static_cast<double>(n_) : 0.0;
  os << "|V|=" << n_ << " |E|=" << m_ << " avg_in_deg=" << avg
     << " max_in_deg=" << max_in_degree_;
  return os.str();
}

}  // namespace triad
