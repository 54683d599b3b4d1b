// Weakly-connected-components tests: three engines agree byte-for-byte
// after canonicalization; union-find unit behavior.
#include <gtest/gtest.h>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "kernels/connected_components.hpp"

namespace ga::kernels {
namespace {

TEST(Wcc, CountsComponentsOnDisjointCliques) {
  std::vector<graph::Edge> edges;
  // Three cliques of sizes 3, 4, 2 over vertices 0..8.
  for (const auto& grp : {std::vector<vid_t>{0, 1, 2},
                          std::vector<vid_t>{3, 4, 5, 6},
                          std::vector<vid_t>{7, 8}}) {
    for (std::size_t i = 0; i < grp.size(); ++i) {
      for (std::size_t j = i + 1; j < grp.size(); ++j) {
        edges.push_back({grp[i], grp[j]});
      }
    }
  }
  const auto g = graph::build_undirected(edges, 9);
  const auto r = wcc_union_find(g);
  EXPECT_EQ(r.num_components, 3u);
  EXPECT_EQ(r.largest_size, 4u);
  EXPECT_EQ(r.label[0], r.label[2]);
  EXPECT_NE(r.label[0], r.label[3]);
}

TEST(Wcc, IsolatedVerticesAreOwnComponents) {
  const auto g = graph::build_undirected({{0, 1}}, 5);
  const auto r = wcc_bfs(g);
  EXPECT_EQ(r.num_components, 4u);
  EXPECT_EQ(r.largest_size, 2u);
}

struct WccCase {
  const char* name;
  graph::CSRGraph (*make)();
};
// gtest prints the parameter into the test name; the case name keeps it
// the same on every build (the default is a byte dump with addresses).
void PrintTo(const WccCase& c, std::ostream* os) { *os << c.name; }

class WccEnginesAgree : public ::testing::TestWithParam<WccCase> {};

TEST_P(WccEnginesAgree, IdenticalCanonicalLabels) {
  const auto g = GetParam().make();
  const auto a = wcc_label_propagation(g);
  const auto b = wcc_bfs(g);
  const auto c = wcc_union_find(g);
  EXPECT_EQ(a.label, b.label);
  EXPECT_EQ(a.label, c.label);
  EXPECT_EQ(a.num_components, c.num_components);
  EXPECT_EQ(a.largest_size, b.largest_size);
}

INSTANTIATE_TEST_SUITE_P(
    Graphs, WccEnginesAgree,
    ::testing::Values(
        WccCase{"rmat", [] {
                  return graph::make_rmat({.scale = 9, .edge_factor = 4, .seed = 1});
                }},
        WccCase{"sparse_er", [] { return graph::make_erdos_renyi(800, 500, 2); }},
        WccCase{"dense_er", [] { return graph::make_erdos_renyi(200, 2000, 3); }},
        WccCase{"grid", [] { return graph::make_grid(20, 20); }}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(Wcc, LabelsAreMinimumVertexIds) {
  const auto g = graph::build_undirected({{5, 3}, {3, 8}}, 9);
  const auto r = wcc_union_find(g);
  EXPECT_EQ(r.label[5], 3u);
  EXPECT_EQ(r.label[8], 3u);
  EXPECT_EQ(r.label[0], 0u);
}

TEST(UnionFind, BasicOperations) {
  UnionFind uf(5);
  EXPECT_EQ(uf.num_sets(), 5u);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_FALSE(uf.unite(1, 0));  // already joined
  EXPECT_TRUE(uf.connected(0, 1));
  EXPECT_FALSE(uf.connected(0, 2));
  EXPECT_EQ(uf.num_sets(), 4u);
  EXPECT_EQ(uf.size_of(0), 2u);
  uf.reset(3);
  EXPECT_EQ(uf.num_sets(), 3u);
  EXPECT_FALSE(uf.connected(0, 1));
}

TEST(UnionFind, UnionBySizeKeepsFindCheap) {
  UnionFind uf(1000);
  for (vid_t i = 1; i < 1000; ++i) uf.unite(0, i);
  EXPECT_EQ(uf.num_sets(), 1u);
  EXPECT_EQ(uf.size_of(999), 1000u);
}

}  // namespace
}  // namespace ga::kernels
