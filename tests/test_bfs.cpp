// BFS tests: exact distances on structured graphs, cross-engine agreement
// (TEST_P over modes x graph families), parent-tree validity, k-hop
// extraction, and diameter approximation.
#include <gtest/gtest.h>

#include <tuple>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "kernels/bfs.hpp"

namespace ga::kernels {
namespace {

using graph::make_erdos_renyi;
using graph::make_grid;
using graph::make_path;
using graph::make_rmat;
using graph::make_star;

TEST(Bfs, PathGraphDistances) {
  const auto g = make_path(6);
  const auto r = bfs(g, 0, BfsMode::kTopDown);
  for (vid_t v = 0; v < 6; ++v) EXPECT_EQ(r.dist[v], v);
  EXPECT_EQ(r.reached, 6u);
}

TEST(Bfs, StarDistances) {
  const auto g = make_star(10);
  const auto r = bfs(g, 3, BfsMode::kTopDown);
  EXPECT_EQ(r.dist[3], 0u);
  EXPECT_EQ(r.dist[0], 1u);
  for (vid_t v = 1; v < 10; ++v) {
    if (v != 3) {
      EXPECT_EQ(r.dist[v], 2u);
    }
  }
}

TEST(Bfs, GridManhattanDistanceFromCorner) {
  const auto g = make_grid(5, 7);
  const auto r = bfs(g, 0, BfsMode::kTopDown);
  for (vid_t row = 0; row < 5; ++row) {
    for (vid_t col = 0; col < 7; ++col) {
      EXPECT_EQ(r.dist[row * 7 + col], row + col);
    }
  }
}

TEST(Bfs, UnreachableVerticesStayInfinite) {
  // Two disconnected edges.
  const auto g = graph::build_undirected({{0, 1}, {2, 3}}, 4);
  const auto r = bfs(g, 0);
  EXPECT_EQ(r.dist[2], kInfDist);
  EXPECT_EQ(r.parent[2], kInvalidVid);
  EXPECT_EQ(r.reached, 2u);
}

TEST(Bfs, SourceOutOfRangeThrows) {
  const auto g = make_path(3);
  EXPECT_THROW(bfs(g, 3), ga::Error);
}

TEST(Bfs, ParentTreeIsConsistent) {
  const auto g = make_rmat({.scale = 9, .edge_factor = 8, .seed = 5});
  const auto r = bfs(g, 0, BfsMode::kDirectionOptimizing);
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    if (r.dist[v] == kInfDist || v == 0) continue;
    const vid_t p = r.parent[v];
    ASSERT_NE(p, kInvalidVid);
    EXPECT_EQ(r.dist[v], r.dist[p] + 1);
    EXPECT_TRUE(g.has_edge(p, v));
  }
}

struct BfsCase {
  const char* name;
  graph::CSRGraph (*make)();
};
// gtest prints the parameter into the test name; the case name keeps it
// the same on every build (the default is a byte dump with addresses).
void PrintTo(const BfsCase& c, std::ostream* os) { *os << c.name; }

class BfsModesAgree
    : public ::testing::TestWithParam<std::tuple<BfsCase, vid_t>> {};

TEST_P(BfsModesAgree, AllEnginesSameDistances) {
  const auto& [c, source] = GetParam();
  const auto g = c.make();
  if (source >= g.num_vertices()) GTEST_SKIP();
  const auto td = bfs(g, source, BfsMode::kTopDown);
  const auto bu = bfs(g, source, BfsMode::kBottomUp);
  const auto dopt = bfs(g, source, BfsMode::kDirectionOptimizing);
  const auto par = bfs_parallel(g, source);
  EXPECT_EQ(td.dist, bu.dist);
  EXPECT_EQ(td.dist, dopt.dist);
  EXPECT_EQ(td.dist, par.dist);
  EXPECT_EQ(td.reached, par.reached);
}

INSTANTIATE_TEST_SUITE_P(
    GraphsAndSources, BfsModesAgree,
    ::testing::Combine(
        ::testing::Values(
            BfsCase{"rmat", [] {
                      return make_rmat({.scale = 9, .edge_factor = 8, .seed = 1});
                    }},
            BfsCase{"er", [] { return make_erdos_renyi(512, 2048, 2); }},
            BfsCase{"grid", [] { return make_grid(16, 16); }},
            BfsCase{"star", [] { return make_star(100); }}),
        ::testing::Values<vid_t>(0, 17, 99)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).name) + "_src" +
             std::to_string(std::get<1>(info.param));
    });

TEST(ApproxDiameter, BoundsOnKnownShapes) {
  EXPECT_EQ(approx_diameter(make_path(10)), 9u);
  const auto g = make_grid(4, 4);
  // True diameter 6; double sweep finds it on grids.
  EXPECT_EQ(approx_diameter(g), 6u);
  EXPECT_EQ(approx_diameter(make_star(8)), 2u);
}

TEST(KhopNeighborhood, DepthLimits) {
  const auto g = make_path(10);
  const auto h0 = khop_neighborhood(g, {5}, 0);
  EXPECT_EQ(h0, (std::vector<vid_t>{5}));
  const auto h2 = khop_neighborhood(g, {5}, 2);
  EXPECT_EQ(h2, (std::vector<vid_t>{3, 4, 5, 6, 7}));
}

TEST(KhopNeighborhood, MultiSeedUnion) {
  const auto g = make_path(10);
  const auto h = khop_neighborhood(g, {0, 9}, 1);
  EXPECT_EQ(h, (std::vector<vid_t>{0, 1, 8, 9}));
}

TEST(KhopNeighborhood, SeedOutOfRangeThrows) {
  const auto g = make_path(3);
  EXPECT_THROW(khop_neighborhood(g, {7}, 1), ga::Error);
}

TEST(Bfs, ValidatorAcceptsAllEngines) {
  const auto g = make_rmat({.scale = 9, .edge_factor = 8, .seed = 8});
  for (auto mode : {BfsMode::kTopDown, BfsMode::kBottomUp,
                    BfsMode::kDirectionOptimizing}) {
    const auto r = bfs(g, 3, mode);
    EXPECT_TRUE(validate_bfs_tree(g, 3, r));
  }
  EXPECT_TRUE(validate_bfs_tree(g, 3, bfs_parallel(g, 3)));
}

TEST(Bfs, ValidatorRejectsCorruptedResults) {
  const auto g = make_grid(6, 6);
  auto r = bfs(g, 0);
  ASSERT_TRUE(validate_bfs_tree(g, 0, r));
  auto bad_dist = r;
  bad_dist.dist[10] += 1;  // level no longer parent+1
  EXPECT_FALSE(validate_bfs_tree(g, 0, bad_dist));
  auto bad_parent = r;
  bad_parent.parent[35] = 0;  // 0 is not adjacent to the far corner
  EXPECT_FALSE(validate_bfs_tree(g, 0, bad_parent));
  auto bad_count = r;
  bad_count.reached -= 1;
  EXPECT_FALSE(validate_bfs_tree(g, 0, bad_count));
}

TEST(Bfs, TraversedEdgesPositive) {
  const auto g = make_erdos_renyi(256, 1024, 3);
  const auto r = bfs(g, 0, BfsMode::kTopDown);
  EXPECT_GT(r.edges_traversed, 0u);
}

}  // namespace
}  // namespace ga::kernels
