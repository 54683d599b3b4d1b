// Tests for CSRGraph and the edge-list builder.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "graph/builder.hpp"
#include "graph/degree_stats.hpp"
#include "graph/generators.hpp"

namespace ga::graph {
namespace {

// Reference builder: symmetrize by appending reversed copies, stable-sort
// all arcs by (source, target), then drop all but the first of each run of
// equal arcs. build_csr must produce the same bytes.
CSRGraph build_csr_stable_sort(std::vector<Edge> edges, vid_t num_vertices,
                               const BuildOptions& opts) {
  vid_t n = num_vertices;
  if (n == 0) {
    for (const Edge& e : edges) n = std::max({n, e.u + 1, e.v + 1});
  }
  if (opts.remove_self_loops) {
    std::erase_if(edges, [](const Edge& e) { return e.u == e.v; });
  }
  if (!opts.directed) {
    const std::size_t m = edges.size();
    edges.reserve(m * 2);
    for (std::size_t i = 0; i < m; ++i) {
      Edge r = edges[i];
      std::swap(r.u, r.v);
      edges.push_back(r);
    }
  }
  std::stable_sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  });
  if (opts.dedup_parallel_edges) {
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  }
  std::vector<eid_t> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (const Edge& e : edges) ++offsets[e.u + 1];
  for (vid_t i = 0; i < n; ++i) offsets[i + 1] += offsets[i];
  std::vector<vid_t> targets(edges.size());
  std::vector<float> weights;
  if (opts.keep_weights) weights.resize(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    targets[i] = edges[i].v;
    if (opts.keep_weights) weights[i] = edges[i].w;
  }
  return CSRGraph(std::move(offsets), std::move(targets), std::move(weights),
                  opts.directed);
}

template <typename T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

TEST(Builder, SymmetrizesUndirectedGraphs) {
  const auto g = build_undirected({{0, 1}, {1, 2}}, 3);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.num_arcs(), 4u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(Builder, DirectedKeepsArcDirection) {
  const auto g = build_directed({{0, 1}}, 2);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 0));
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(Builder, RemovesSelfLoopsAndDuplicates) {
  const auto g = build_undirected({{0, 0}, {0, 1}, {0, 1}, {1, 0}}, 2);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.out_degree(0), 1u);
}

TEST(Builder, InfersVertexCountFromEdges) {
  const auto g = build_undirected({{0, 7}});
  EXPECT_EQ(g.num_vertices(), 8u);
}

TEST(Builder, RejectsOutOfRangeEndpoints) {
  EXPECT_THROW(build_undirected({{0, 5}}, 3), ga::Error);
}

TEST(Builder, KeepsWeightsWhenAsked) {
  BuildOptions opts;
  opts.directed = true;
  opts.keep_weights = true;
  const auto g = build_csr({{0, 1, 2.5f, 0}}, 2, opts);
  EXPECT_TRUE(g.weighted());
  EXPECT_FLOAT_EQ(g.edge_weight(0, 1), 2.5f);
}

TEST(Builder, FirstWeightWinsOnDuplicateArcs) {
  BuildOptions opts;
  opts.directed = true;
  opts.keep_weights = true;
  const auto g = build_csr({{0, 1, 2.0f, 0}, {0, 1, 9.0f, 1}}, 2, opts);
  EXPECT_FLOAT_EQ(g.edge_weight(0, 1), 2.0f);
}

TEST(Builder, MatchesStableSortReference) {
  struct Input {
    std::string name;
    std::vector<Edge> edges;
  };
  std::vector<Input> inputs;
  for (unsigned scale = 1; scale <= 14; ++scale) {
    auto edges = rmat_edges({.scale = scale, .edge_factor = 4, .seed = scale});
    randomize_weights(edges, 0.5f, 2.0f, scale);
    // Re-add a slice of the edges, forwards and reversed, with new weights:
    // duplicates whose first-seen weight differs in both directions.
    const std::size_t extra = edges.size() / 8 + 1;
    for (std::size_t i = 0; i < extra; ++i) {
      Edge e = edges[i * 7 % edges.size()];
      e.w += 10.0f;
      edges.push_back(e);
      std::swap(e.u, e.v);
      e.w += 10.0f;
      edges.push_back(e);
    }
    inputs.push_back({"rmat" + std::to_string(scale), std::move(edges)});
  }
  inputs.push_back({"erdos_renyi", erdos_renyi_edges(300, 1500, 4)});
  inputs.push_back({"barabasi_albert", barabasi_albert_edges(300, 3, 4)});
  inputs.push_back({"watts_strogatz", watts_strogatz_edges(300, 6, 0.2, 4)});
  inputs.push_back({"grid", grid_edges(13, 11)});
  inputs.push_back({"star", star_edges(40)});
  for (std::size_t i = inputs.size() - 5; i < inputs.size(); ++i) {
    randomize_weights(inputs[i].edges, 0.5f, 2.0f, i);
  }
  inputs.push_back({"empty", {}});
  inputs.push_back({"self_loop", {{3, 3, 2.5f, 0}}});

  for (const Input& in : inputs) {
    vid_t max_id = 0;
    for (const Edge& e : in.edges) max_id = std::max({max_id, e.u, e.v});
    const vid_t exact = in.edges.empty() ? 1 : max_id + 1;
    // The same arcs as bare (u, v) pairs, the unweighted input.
    std::vector<std::pair<vid_t, vid_t>> pairs;
    for (const Edge& e : in.edges) pairs.emplace_back(e.u, e.v);
    for (const vid_t n : {exact, vid_t{0}, exact + 5}) {
      for (unsigned bits = 0; bits < 16; ++bits) {
        BuildOptions opts;
        opts.directed = (bits & 1) != 0;
        opts.remove_self_loops = (bits & 2) != 0;
        opts.dedup_parallel_edges = (bits & 4) != 0;
        opts.keep_weights = (bits & 8) != 0;
        const auto got = build_csr(in.edges, n, opts);
        const auto want = build_csr_stable_sort(in.edges, n, opts);
        SCOPED_TRACE(in.name + " n=" + std::to_string(n) +
                     " options=" + std::to_string(bits));
        EXPECT_EQ(got.directed(), want.directed());
        EXPECT_TRUE(same_bytes(got.offsets(), want.offsets()));
        EXPECT_TRUE(same_bytes(got.targets(), want.targets()));
        EXPECT_TRUE(same_bytes(got.weights(), want.weights()));
        // Arcs and order do not depend on weights; every pair weighs 1.
        const auto from_pairs = build_csr(pairs, n, opts);
        EXPECT_EQ(from_pairs.directed(), want.directed());
        EXPECT_TRUE(same_bytes(from_pairs.offsets(), want.offsets()));
        EXPECT_TRUE(same_bytes(from_pairs.targets(), want.targets()));
        EXPECT_EQ(from_pairs.weights().size(), want.weights().size());
        EXPECT_TRUE(std::all_of(from_pairs.weights().begin(),
                                from_pairs.weights().end(),
                                [](float w) { return w == 1.0f; }));
      }
    }
  }
}

TEST(Csr, AdjacencyIsSorted) {
  const auto g = build_undirected({{3, 0}, {3, 2}, {3, 1}}, 4);
  const auto nbrs = g.out_neighbors(3);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
}

TEST(Csr, TransposeOfDirectedGraph) {
  auto g = build_directed({{0, 1}, {0, 2}, {2, 1}}, 3);
  const auto gt = g.transposed();
  EXPECT_TRUE(gt.has_edge(1, 0));
  EXPECT_TRUE(gt.has_edge(2, 0));
  EXPECT_TRUE(gt.has_edge(1, 2));
  EXPECT_EQ(gt.num_arcs(), g.num_arcs());
}

TEST(Csr, InNeighborsAfterEnsureTranspose) {
  auto g = build_directed({{0, 2}, {1, 2}}, 3);
  g.ensure_transpose();
  EXPECT_EQ(g.in_degree(2), 2u);
  EXPECT_EQ(g.in_degree(0), 0u);
  const auto in = g.in_neighbors(2);
  EXPECT_EQ(std::vector<vid_t>(in.begin(), in.end()),
            (std::vector<vid_t>{0, 1}));
}

TEST(Csr, InNeighborsMatchReferenceTranspose) {
  // Self-loops and parallel arcs kept, so in-lists repeat sources too.
  BuildOptions opts;
  opts.directed = true;
  opts.remove_self_loops = false;
  opts.dedup_parallel_edges = false;
  const auto g =
      build_csr(rmat_edges({.scale = 10, .edge_factor = 8, .seed = 5}), 0, opts);
  g.ensure_transpose();
  // Reference: every arc reversed, sorted by (target, source).
  std::vector<std::pair<vid_t, vid_t>> reversed;
  for (vid_t u = 0; u < g.num_vertices(); ++u) {
    for (const vid_t v : g.out_neighbors(u)) reversed.emplace_back(v, u);
  }
  std::sort(reversed.begin(), reversed.end());
  std::size_t next = 0;
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    std::vector<vid_t> want;
    for (; next < reversed.size() && reversed[next].first == v; ++next) {
      want.push_back(reversed[next].second);
    }
    const auto in = g.in_neighbors(v);
    ASSERT_EQ(std::vector<vid_t>(in.begin(), in.end()), want) << "vertex " << v;
    ASSERT_EQ(g.in_degree(v), want.size());
  }
}

TEST(Csr, UndirectedInNeighborsAliasOut) {
  auto g = build_undirected({{0, 1}}, 2);
  EXPECT_EQ(g.in_degree(0), g.out_degree(0));
}

TEST(Csr, EdgeWeightThrowsForMissingArc) {
  const auto g = build_undirected({{0, 1}}, 3);
  EXPECT_THROW(g.edge_weight(0, 2), ga::Error);
}

TEST(DegreeStats, ComputesBasics) {
  const auto g = make_star(5);  // hub 0 with 4 spokes
  const auto s = compute_degree_stats(g);
  EXPECT_EQ(s.max_degree, 4u);
  EXPECT_EQ(s.argmax, 0u);
  EXPECT_EQ(s.isolated_vertices, 0u);
  EXPECT_DOUBLE_EQ(s.mean_degree, 8.0 / 5.0);
}

TEST(DegreeStats, DegreePropertyMatchesGraph) {
  const auto g = make_path(4);
  const auto deg = degree_property(g);
  EXPECT_DOUBLE_EQ(deg[0], 1.0);
  EXPECT_DOUBLE_EQ(deg[1], 2.0);
}

TEST(DegreeStats, GiniSeparatesSkewFromUniform) {
  const auto skewed = make_rmat({.scale = 10, .edge_factor = 8, .seed = 3});
  const auto uniform = make_erdos_renyi(1024, 8 * 1024, 3);
  EXPECT_GT(degree_gini(skewed), degree_gini(uniform) + 0.1);
}

TEST(DegreeStats, GiniZeroForRegularGraph) {
  const auto g = make_complete(6);
  EXPECT_NEAR(degree_gini(g), 0.0, 1e-9);
}

}  // namespace
}  // namespace ga::graph
