// Traversal-engine tests: Frontier representation switching, engine
// BFS/CC/SSSP against simple sequential references across graph families
// (Erdős–Rényi, RMAT, star, chain; directed and weighted variants),
// per-step telemetry sanity, direction heuristics, and the bridge from
// measured StepStats into the analytic resource-bound model.
#include <gtest/gtest.h>

#include <numeric>
#include <queue>

#include "archmodel/configs.hpp"
#include "engine/archbridge.hpp"
#include "engine/traversal.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "kernels/bfs.hpp"
#include "kernels/connected_components.hpp"
#include "kernels/sssp.hpp"

namespace ga::engine {
namespace {

using graph::BuildOptions;
using graph::build_csr;
using graph::build_directed;
using graph::build_undirected;
using graph::CSRGraph;

// ---------------------------------------------------------------------------
// Sequential references, independent of the engine and the kernels.

std::vector<std::uint32_t> ref_bfs(const CSRGraph& g, vid_t s) {
  std::vector<std::uint32_t> dist(g.num_vertices(), kInfDist);
  std::queue<vid_t> q;
  dist[s] = 0;
  q.push(s);
  while (!q.empty()) {
    const vid_t u = q.front();
    q.pop();
    for (vid_t v : g.out_neighbors(u)) {
      if (dist[v] == kInfDist) {
        dist[v] = dist[u] + 1;
        q.push(v);
      }
    }
  }
  return dist;
}

std::vector<float> ref_sssp(const CSRGraph& g, vid_t s) {
  const vid_t n = g.num_vertices();
  std::vector<float> dist(n, kernels::kInfWeight);
  dist[s] = 0.0f;
  bool changed = true;
  for (vid_t round = 0; round < n && changed; ++round) {
    changed = false;
    for (vid_t u = 0; u < n; ++u) {
      if (dist[u] == kernels::kInfWeight) continue;
      const auto nbrs = g.out_neighbors(u);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const float w = g.weighted() ? g.out_weights(u)[i] : 1.0f;
        if (dist[u] + w < dist[nbrs[i]]) {
          dist[nbrs[i]] = dist[u] + w;
          changed = true;
        }
      }
    }
  }
  return dist;
}

/// Weak-connectivity labels over every stored arc (valid for directed
/// inputs, unlike wcc_union_find which assumes symmetric storage).
std::vector<vid_t> ref_wcc(const CSRGraph& g) {
  const vid_t n = g.num_vertices();
  std::vector<vid_t> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&](vid_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (vid_t u = 0; u < n; ++u) {
    for (vid_t v : g.out_neighbors(u)) {
      const vid_t ru = find(u), rv = find(v);
      if (ru != rv) parent[std::max(ru, rv)] = std::min(ru, rv);
    }
  }
  std::vector<vid_t> label(n);
  for (vid_t v = 0; v < n; ++v) label[v] = find(v);
  // Canonical form: min vertex id of the component (find() with min-root
  // union already yields that).
  return label;
}

CSRGraph weighted_er(vid_t n, eid_t m, bool directed, std::uint64_t seed) {
  auto edges = graph::erdos_renyi_edges(n, m, seed);
  graph::randomize_weights(edges, 0.5f, 4.0f, seed + 1);
  BuildOptions o;
  o.directed = directed;
  o.keep_weights = true;
  return build_csr(std::move(edges), n, o);
}

std::vector<CSRGraph> test_family() {
  std::vector<CSRGraph> out;
  out.push_back(graph::make_erdos_renyi(300, 600, 7));
  out.push_back(graph::make_rmat({.scale = 8, .edge_factor = 8, .seed = 3}));
  out.push_back(graph::make_star(64));
  out.push_back(graph::make_path(97));
  // Directed Erdős–Rényi.
  out.push_back(build_csr(graph::erdos_renyi_edges(200, 500, 11), 200,
                          BuildOptions{.directed = true}));
  return out;
}

// ---------------------------------------------------------------------------
// Frontier representation.

TEST(EngineFrontier, AddDedupsAndCounts) {
  Frontier f(100);
  EXPECT_TRUE(f.empty());
  EXPECT_TRUE(f.add(5));
  EXPECT_FALSE(f.add(5));
  EXPECT_TRUE(f.add(17));
  EXPECT_EQ(f.size(), 2u);
  EXPECT_TRUE(f.contains(5));
  EXPECT_FALSE(f.contains(6));
  EXPECT_FALSE(f.dense());
}

TEST(EngineFrontier, AutoSwitchDensifiesPastThreshold) {
  const vid_t n = 100;  // threshold = n/20 = 5
  Frontier f(n);
  for (vid_t v = 0; v < 5; ++v) f.add(v * 7);
  f.auto_switch();
  EXPECT_FALSE(f.dense());  // 5 == n/20, not strictly above
  f.add(90);
  f.auto_switch();
  EXPECT_TRUE(f.dense());
  EXPECT_EQ(f.size(), 6u);
  EXPECT_TRUE(f.contains(90));
}

TEST(EngineFrontier, EnsureSparseRecoversAscendingItems) {
  Frontier f(64);
  for (vid_t v : {9u, 3u, 31u, 14u}) f.add(v);
  f.make_dense();
  f.ensure_sparse();
  EXPECT_EQ(f.items(), (std::vector<vid_t>{3, 9, 14, 31}));
}

TEST(EngineFrontier, AllIsCompleteAndMergeDedups) {
  Frontier all = Frontier::all(40);
  EXPECT_TRUE(all.complete());
  EXPECT_EQ(all.size(), 40u);

  Frontier a(50), b(50);
  a.add(1);
  a.add(2);
  b.add(2);
  b.add(3);
  a.merge(b);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_TRUE(a.contains(3));
}

TEST(EngineVertexOps, FilterAndMap) {
  Frontier evens = vertex_filter(30, [](vid_t v) { return v % 2 == 0; });
  EXPECT_EQ(evens.size(), 15u);
  std::uint64_t sum = 0;
  vertex_map(evens, [&](vid_t v) { sum += v; });
  EXPECT_EQ(sum, 2u * (0 + 1 + 2 + 3 + 4 + 5 + 6 + 7 + 8 + 9 + 10 + 11 + 12 + 13 + 14));
}

// ---------------------------------------------------------------------------
// Engine kernels vs references across the family.

TEST(EngineBfs, MatchesReferenceAllFamiliesAllModes) {
  for (const auto& g : test_family()) {
    const auto ref = ref_bfs(g, 0);
    for (auto mode : {kernels::BfsMode::kTopDown, kernels::BfsMode::kBottomUp,
                      kernels::BfsMode::kDirectionOptimizing}) {
      const auto r = kernels::bfs(g, 0, mode);
      EXPECT_EQ(r.dist, ref) << "mode " << static_cast<int>(mode);
      EXPECT_TRUE(kernels::validate_bfs_tree(g, 0, r));
      EXPECT_FALSE(r.steps.empty());
    }
    const auto rp = kernels::bfs_parallel(g, 0);
    EXPECT_EQ(rp.dist, ref);
  }
}

TEST(EngineSssp, BellmanFordMatchesReferenceWeightedBothOrientations) {
  for (bool directed : {false, true}) {
    const auto g = weighted_er(250, 700, directed, 17);
    const auto ref = ref_sssp(g, 0);
    const auto r = kernels::bellman_ford(g, 0);
    ASSERT_EQ(r.dist.size(), ref.size());
    for (vid_t v = 0; v < g.num_vertices(); ++v) {
      EXPECT_FLOAT_EQ(r.dist[v], ref[v]) << "v=" << v;
    }
    EXPECT_FALSE(r.steps.empty());
    // Cross-check against Dijkstra too.
    const auto dj = kernels::dijkstra(g, 0);
    for (vid_t v = 0; v < g.num_vertices(); ++v) {
      EXPECT_FLOAT_EQ(r.dist[v], dj.dist[v]);
    }
  }
}

TEST(EngineSssp, UnweightedMatchesBfsHops) {
  const auto g = graph::make_rmat({.scale = 7, .edge_factor = 6, .seed = 9});
  const auto hops = ref_bfs(g, 1);
  const auto r = kernels::bellman_ford(g, 1);
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    if (hops[v] == kInfDist) {
      EXPECT_EQ(r.dist[v], kernels::kInfWeight);
    } else {
      EXPECT_FLOAT_EQ(r.dist[v], static_cast<float>(hops[v]));
    }
  }
}

TEST(EngineWcc, LabelPropagationMatchesReferenceAllFamilies) {
  for (const auto& g : test_family()) {
    const auto ref = ref_wcc(g);
    const auto r = kernels::wcc_label_propagation(g);
    EXPECT_EQ(r.label, ref) << (g.directed() ? "directed" : "undirected");
    EXPECT_FALSE(r.steps.empty());
  }
}

TEST(EngineWcc, DirectedChainIsOneWeakComponent) {
  // Arcs only point forward; weak connectivity must still join the chain,
  // which exercises hooking every arc of a directed graph.
  const auto g = build_directed({{0, 1}, {1, 2}, {2, 3}, {3, 4}}, 5);
  const auto r = kernels::wcc_label_propagation(g);
  EXPECT_EQ(r.num_components, 1u);
  for (vid_t v = 0; v < 5; ++v) EXPECT_EQ(r.label[v], 0u);
}

// ---------------------------------------------------------------------------
// Telemetry and direction choice.

TEST(EngineTelemetry, BfsStepCountersAreConsistent) {
  const auto g = graph::make_path(12);
  const auto r = kernels::bfs(g, 0, kernels::BfsMode::kTopDown);
  // One super-step per discovery level plus the final empty expansion.
  ASSERT_EQ(r.steps.size(), 12u);
  std::uint64_t edges = 0;
  for (std::size_t i = 0; i < r.steps.size(); ++i) {
    const auto& s = r.steps[i];
    EXPECT_EQ(s.step, i);
    EXPECT_EQ(s.direction, Direction::kPush);
    EXPECT_EQ(s.frontier_size, 1u);
    EXPECT_GT(s.bytes_moved, 0u);
    edges += s.edges_traversed;
  }
  EXPECT_EQ(edges, r.edges_traversed);
  // Every vertex joins the frontier exactly once and expands all its arcs.
  EXPECT_EQ(r.edges_traversed, g.num_arcs());
}

TEST(EngineDirection, AutoPicksPullOnSaturatedCompleteGraph) {
  // K40 from vertex 0: the second frontier holds the other 39 vertices,
  // whose out-arc volume trips the Beamer alpha test, so the engine must
  // choose pull for step 2.
  const auto g = graph::make_complete(40);
  const auto r = kernels::bfs(g, 0, kernels::BfsMode::kDirectionOptimizing);
  ASSERT_EQ(r.steps.size(), 2u);
  EXPECT_EQ(r.steps[0].direction, Direction::kPush);
  EXPECT_EQ(r.steps[1].direction, Direction::kPull);
  EXPECT_EQ(r.reached, 40u);
}

TEST(EngineDirection, WeightedDirectedNeverAutoPulls) {
  // A directed transpose has no weight array, so the heuristic must not
  // select pull even with a saturated frontier.
  auto edges = graph::complete_edges(30);
  graph::randomize_weights(edges, 1.0f, 2.0f, 5);
  BuildOptions o;
  o.directed = true;
  o.keep_weights = true;
  const auto g = build_csr(std::move(edges), 30, o);
  const auto r = kernels::bellman_ford(g, 0);
  for (const auto& s : r.steps) EXPECT_EQ(s.direction, Direction::kPush);
}

TEST(EngineTelemetry, FormatProducesTable) {
  const auto g = graph::make_star(32);
  const auto r = kernels::bfs(g, 1, kernels::BfsMode::kDirectionOptimizing);
  Telemetry t;
  for (const auto& s : r.steps) t.record(s);
  const std::string table = format_telemetry(t);
  EXPECT_NE(table.find("dir"), std::string::npos);
  EXPECT_NE(table.find("push"), std::string::npos);
  EXPECT_GT(t.total_edges(), 0u);
  EXPECT_EQ(t.push_steps() + t.pull_steps(), t.num_steps());
}

// ---------------------------------------------------------------------------
// Archbridge: measured steps into the analytic model.

TEST(EngineArchbridge, DemandsScaleWithCounters) {
  StepStats s;
  s.direction = Direction::kPush;
  s.vertices_touched = 1000;
  s.edges_traversed = 10000;
  s.bytes_moved = 5'000'000;
  const DemandModel dm;
  const auto d = to_step_demand(s, "x", dm);
  EXPECT_DOUBLE_EQ(d.ops_gop,
                   (dm.ops_per_edge * 10000 + dm.ops_per_vertex * 1000) / 1e9);
  EXPECT_DOUBLE_EQ(d.mem_gb, 5e-3);
  EXPECT_DOUBLE_EQ(d.mem_irregularity, dm.push_irregularity);
  EXPECT_EQ(d.disk_gb, 0.0);
  EXPECT_EQ(d.net_gb, 0.0);

  s.direction = Direction::kPull;
  EXPECT_DOUBLE_EQ(to_step_demand(s, "y", dm).mem_irregularity,
                   dm.pull_irregularity);
}

TEST(EngineArchbridge, MeasuredBfsEvaluatesOnBaseline) {
  const auto g = graph::make_rmat({.scale = 10, .edge_factor = 16, .seed = 2});
  const auto r = kernels::bfs(g, 0, kernels::BfsMode::kDirectionOptimizing);
  Telemetry t;
  for (const auto& s : r.steps) t.record(s);
  const auto model =
      evaluate_measured(archmodel::baseline_2012(), t, "bfs");
  ASSERT_EQ(model.steps.size(), r.steps.size());
  EXPECT_GT(model.total_seconds, 0.0);
  for (std::size_t i = 0; i < model.steps.size(); ++i) {
    EXPECT_EQ(model.steps[i].name, "bfs." + std::to_string(i));
    // Each step's bounding time is the max of its per-resource times.
    double mx = 0.0;
    for (double rs : model.steps[i].resource_seconds) mx = std::max(mx, rs);
    EXPECT_DOUBLE_EQ(model.steps[i].seconds, mx);
  }
}

}  // namespace
}  // namespace ga::engine
