// SSSP tests: Dijkstra exactness on hand graphs, cross-engine agreement
// on random weighted graphs (property-style TEST_P), parent validity.
#include <gtest/gtest.h>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "kernels/sssp.hpp"

namespace ga::kernels {
namespace {

graph::CSRGraph weighted_graph(std::vector<graph::Edge> edges, vid_t n) {
  graph::BuildOptions opts;
  opts.directed = false;
  opts.keep_weights = true;
  return graph::build_csr(std::move(edges), n, opts);
}

TEST(Dijkstra, HandComputedDistances) {
  //    0 --1.0-- 1 --1.0-- 2
  //     \-------3.5-------/
  const auto g = weighted_graph({{0, 1, 1.0f}, {1, 2, 1.0f}, {0, 2, 3.5f}}, 3);
  const auto r = dijkstra(g, 0);
  EXPECT_FLOAT_EQ(r.dist[0], 0.0f);
  EXPECT_FLOAT_EQ(r.dist[1], 1.0f);
  EXPECT_FLOAT_EQ(r.dist[2], 2.0f);  // via 1, not the direct 3.5 edge
  EXPECT_EQ(r.parent[2], 1u);
}

TEST(Dijkstra, UnweightedGraphCountsHops) {
  const auto g = graph::make_path(5);
  const auto r = dijkstra(g, 0);
  for (vid_t v = 0; v < 5; ++v) EXPECT_FLOAT_EQ(r.dist[v], v);
}

TEST(Dijkstra, UnreachableIsInfinite) {
  const auto g = graph::build_undirected({{0, 1}, {2, 3}}, 4);
  const auto r = dijkstra(g, 0);
  EXPECT_EQ(r.dist[2], kInfWeight);
  EXPECT_EQ(r.parent[3], kInvalidVid);
}

TEST(Sssp, SourceOutOfRangeThrows) {
  const auto g = graph::make_path(3);
  EXPECT_THROW(dijkstra(g, 9), ga::Error);
  EXPECT_THROW(delta_stepping(g, 9), ga::Error);
  EXPECT_THROW(bellman_ford(g, 9), ga::Error);
}

struct SsspCase {
  const char* name;
  std::uint64_t seed;
  float wlo, whi;
};
// gtest prints the parameter into the test name; the case name keeps it
// the same on every build (the default is a byte dump with addresses).
void PrintTo(const SsspCase& c, std::ostream* os) { *os << c.name; }

class SsspEnginesAgree : public ::testing::TestWithParam<SsspCase> {};

TEST_P(SsspEnginesAgree, DijkstraDeltaBellmanMatch) {
  const auto& c = GetParam();
  auto edges = graph::erdos_renyi_edges(300, 1500, c.seed);
  graph::randomize_weights(edges, c.wlo, c.whi, c.seed + 100);
  const auto g = weighted_graph(std::move(edges), 300);
  const auto dj = dijkstra(g, 0);
  const auto ds = delta_stepping(g, 0);
  const auto bf = bellman_ford(g, 0);
  for (vid_t v = 0; v < 300; ++v) {
    EXPECT_NEAR(dj.dist[v], ds.dist[v], 1e-4) << "vertex " << v;
    EXPECT_NEAR(dj.dist[v], bf.dist[v], 1e-4) << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomWeighted, SsspEnginesAgree,
    ::testing::Values(SsspCase{"narrow", 1, 0.9f, 1.1f},
                      SsspCase{"wide", 2, 0.01f, 10.0f},
                      SsspCase{"uniform", 3, 1.0f, 1.00001f},
                      SsspCase{"heavy_tail", 4, 0.1f, 100.0f}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(DeltaStepping, ExplicitDeltaAlsoCorrect) {
  auto edges = graph::erdos_renyi_edges(200, 800, 7);
  graph::randomize_weights(edges, 0.5f, 5.0f, 8);
  const auto g = weighted_graph(std::move(edges), 200);
  const auto dj = dijkstra(g, 5);
  for (float delta : {0.1f, 1.0f, 10.0f}) {
    const auto ds = delta_stepping(g, 5, delta);
    for (vid_t v = 0; v < 200; ++v) {
      ASSERT_NEAR(dj.dist[v], ds.dist[v], 1e-4) << "delta " << delta;
    }
  }
}

TEST(Sssp, ParentChainReconstructsDistance) {
  auto edges = graph::erdos_renyi_edges(150, 600, 11);
  graph::randomize_weights(edges, 0.1f, 3.0f, 12);
  const auto g = weighted_graph(std::move(edges), 150);
  const auto r = dijkstra(g, 0);
  for (vid_t v = 0; v < 150; ++v) {
    if (r.dist[v] == kInfWeight || v == 0) continue;
    // Walking parents accumulates exactly dist[v].
    float acc = 0.0f;
    vid_t cur = v;
    int guard = 0;
    while (cur != 0) {
      const vid_t p = r.parent[cur];
      acc += g.edge_weight(p, cur);
      cur = p;
      ASSERT_LT(++guard, 200);
    }
    EXPECT_NEAR(acc, r.dist[v], 1e-3);
  }
}

TEST(Sssp, DirectedGraphRespectsArcDirection) {
  graph::BuildOptions opts;
  opts.directed = true;
  opts.keep_weights = true;
  const auto g = graph::build_csr({{0, 1, 1.0f}, {2, 1, 1.0f}}, 3, opts);
  const auto r = dijkstra(g, 0);
  EXPECT_FLOAT_EQ(r.dist[1], 1.0f);
  EXPECT_EQ(r.dist[2], kInfWeight);  // arc points 2->1, not reachable
}

}  // namespace
}  // namespace ga::kernels
