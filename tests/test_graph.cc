// Unit tests for the graph substrate: CSR/CSC construction and generators.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <string>

#include "graph/csr.h"
#include "graph/generators.h"
#include "support/rng.h"

namespace triad {
namespace {

Graph diamond() {
  // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3, 3 -> 0
  return Graph(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 0}});
}

TEST(Graph, BasicCounts) {
  Graph g = diamond();
  EXPECT_EQ(g.num_vertices(), 4);
  EXPECT_EQ(g.num_edges(), 5);
  EXPECT_EQ(g.in_degree(3), 2);
  EXPECT_EQ(g.in_degree(0), 1);
  EXPECT_EQ(g.out_degree(0), 2);
  EXPECT_EQ(g.max_in_degree(), 2);
}

TEST(Graph, InEdgesCarryOriginalIds) {
  Graph g = diamond();
  // incoming edges of 3 are global edges 2 (1->3) and 3 (2->3).
  std::set<int> eids, srcs;
  for (std::int64_t i = g.in_ptr()[3]; i < g.in_ptr()[4]; ++i) {
    eids.insert(g.in_eid()[i]);
    srcs.insert(g.in_src()[i]);
  }
  EXPECT_EQ(eids, (std::set<int>{2, 3}));
  EXPECT_EQ(srcs, (std::set<int>{1, 2}));
}

TEST(Graph, OutEdgesCarryOriginalIds) {
  Graph g = diamond();
  std::set<int> eids, dsts;
  for (std::int64_t i = g.out_ptr()[0]; i < g.out_ptr()[1]; ++i) {
    eids.insert(g.out_eid()[i]);
    dsts.insert(g.out_dst()[i]);
  }
  EXPECT_EQ(eids, (std::set<int>{0, 1}));
  EXPECT_EQ(dsts, (std::set<int>{1, 2}));
}

TEST(Graph, CsrCscConsistent) {
  Rng rng(5);
  Graph g = gen::erdos_renyi(50, 400, rng);
  // Every edge id appears exactly once in each view and endpoints agree.
  std::vector<int> seen_in(g.num_edges(), 0), seen_out(g.num_edges(), 0);
  for (std::int64_t v = 0; v < g.num_vertices(); ++v) {
    for (std::int64_t i = g.in_ptr()[v]; i < g.in_ptr()[v + 1]; ++i) {
      const int e = g.in_eid()[i];
      ++seen_in[e];
      EXPECT_EQ(g.edge_dst()[e], v);
      EXPECT_EQ(g.edge_src()[e], g.in_src()[i]);
    }
    for (std::int64_t i = g.out_ptr()[v]; i < g.out_ptr()[v + 1]; ++i) {
      const int e = g.out_eid()[i];
      ++seen_out[e];
      EXPECT_EQ(g.edge_src()[e], v);
      EXPECT_EQ(g.edge_dst()[e], g.out_dst()[i]);
    }
  }
  for (std::int64_t e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(seen_in[e], 1);
    EXPECT_EQ(seen_out[e], 1);
  }
}

TEST(Graph, EdgeOutOfRangeThrows) {
  EXPECT_THROW(Graph(2, {{0, 2}}), Error);
  EXPECT_THROW(Graph(2, {{-1, 0}}), Error);
}

TEST(Graph, EdgelessGraph) {
  // Vertices with no edges at all — the degenerate shape partitioners and
  // per-vertex kernels must iterate without touching edge arrays.
  Graph g(5, {});
  EXPECT_EQ(g.num_vertices(), 5);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_EQ(g.max_in_degree(), 0);
  for (std::int64_t v = 0; v < 5; ++v) {
    EXPECT_EQ(g.in_degree(v), 0);
    EXPECT_EQ(g.out_degree(v), 0);
  }
  EXPECT_EQ(g.in_ptr().size(), 6u);
  EXPECT_EQ(g.in_ptr()[5], 0);
  EXPECT_TRUE(g.in_src().empty());
  EXPECT_TRUE(g.edge_src().empty());
}

TEST(Graph, IsolatedVerticesKeepEmptyRows) {
  // Vertices 2 and 4 have no incident edges; their CSR/CSC rows must be
  // empty while surrounding rows stay correct.
  Graph g(5, {{0, 1}, {1, 3}, {3, 0}});
  for (std::int64_t v : {2, 4}) {
    EXPECT_EQ(g.in_degree(v), 0) << v;
    EXPECT_EQ(g.out_degree(v), 0) << v;
    EXPECT_EQ(g.in_ptr()[v], g.in_ptr()[v + 1]);
    EXPECT_EQ(g.out_ptr()[v], g.out_ptr()[v + 1]);
  }
  EXPECT_EQ(g.in_degree(0), 1);
  EXPECT_EQ(g.out_degree(3), 1);
}

TEST(Graph, SelfLoopsAndParallelEdges) {
  // Dedup is the caller's business: parallel edges keep distinct ids, and a
  // self-loop appears in both views of its vertex.
  Graph g(2, {{0, 1}, {0, 1}, {1, 1}});
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_EQ(g.in_degree(1), 3);
  EXPECT_EQ(g.out_degree(0), 2);
  EXPECT_EQ(g.out_degree(1), 1);
  std::set<int> eids;
  for (std::int64_t i = g.in_ptr()[1]; i < g.in_ptr()[2]; ++i) {
    eids.insert(g.in_eid()[i]);
  }
  EXPECT_EQ(eids, (std::set<int>{0, 1, 2}));
}

TEST(Graph, SingleVertexGraph) {
  Graph loop(1, {{0, 0}});
  EXPECT_EQ(loop.num_vertices(), 1);
  EXPECT_EQ(loop.in_degree(0), 1);
  EXPECT_EQ(loop.out_degree(0), 1);
  Graph bare(1, {});
  EXPECT_EQ(bare.max_in_degree(), 0);
}

TEST(Graph, ZeroVerticesRejected) { EXPECT_THROW(Graph(0, {}), Error); }

TEST(Graph, VertexCountBeyondInt32Rejected) {
  // Vertex ids are int32; the check fires before the O(|V|) CSR allocation.
  // (The matching |E| check would need 2^31 edges to exercise.)
  const std::int64_t n =
      std::int64_t{std::numeric_limits<std::int32_t>::max()} + 1;
  try {
    Graph g(n, {});
    FAIL() << "Graph accepted |V| = " << n;
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("2147483647"), std::string::npos)
        << e.what();
  }
}

TEST(Generators, ErdosRenyiShape) {
  Rng rng(1);
  Graph g = gen::erdos_renyi(100, 1000, rng);
  EXPECT_EQ(g.num_vertices(), 100);
  EXPECT_EQ(g.num_edges(), 1000);
}

TEST(Generators, KInRegularDegrees) {
  Rng rng(2);
  Graph g = gen::k_in_regular(64, 5, rng);
  EXPECT_EQ(g.num_edges(), 64 * 5);
  for (std::int64_t v = 0; v < 64; ++v) EXPECT_EQ(g.in_degree(v), 5);
}

TEST(Generators, RmatIsSkewed) {
  Rng rng(3);
  Graph g = gen::rmat(10, 20000, rng);
  EXPECT_EQ(g.num_vertices(), 1024);
  EXPECT_EQ(g.num_edges(), 20000);
  // Power-law shape: max degree far above average.
  const double avg = 20000.0 / 1024.0;
  EXPECT_GT(static_cast<double>(g.max_in_degree()), 4 * avg);
}

TEST(Generators, BatchedBlockDiagonal) {
  std::vector<std::vector<Edge>> per = {
      {{0, 1}, {1, 2}},
      {{2, 0}},
  };
  Graph g = gen::batched(3, 2, per);
  EXPECT_EQ(g.num_vertices(), 6);
  EXPECT_EQ(g.num_edges(), 3);
  // Second graph's edge offset by 3.
  EXPECT_EQ(g.edge_src()[2], 5);
  EXPECT_EQ(g.edge_dst()[2], 3);
}

TEST(Generators, DeterministicForSeed) {
  Rng a(9), b(9);
  Graph ga = gen::erdos_renyi(30, 100, a);
  Graph gb = gen::erdos_renyi(30, 100, b);
  EXPECT_EQ(ga.edge_src(), gb.edge_src());
  EXPECT_EQ(ga.edge_dst(), gb.edge_dst());
}

TEST(Graph, StatsString) {
  Graph g = diamond();
  const std::string s = g.stats();
  EXPECT_NE(s.find("|V|=4"), std::string::npos);
  EXPECT_NE(s.find("|E|=5"), std::string::npos);
}

}  // namespace
}  // namespace triad
