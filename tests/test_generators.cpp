// Generator tests, including TEST_P sweeps over families for shared
// invariants (bounds, determinism, cleanliness after building).
#include <gtest/gtest.h>

#include <functional>

#include "core/hash.hpp"
#include "core/prng.hpp"
#include "graph/builder.hpp"
#include "graph/degree_stats.hpp"
#include "graph/generators.hpp"

namespace ga::graph {
namespace {

struct Family {
  const char* name;
  std::function<std::vector<Edge>(std::uint64_t seed)> make;
};
// gtest prints the parameter into the test name; the case name keeps it
// the same on every build (the default is a byte dump with addresses).
void PrintTo(const Family& c, std::ostream* os) { *os << c.name; }

class GeneratorFamily : public ::testing::TestWithParam<Family> {};

TEST_P(GeneratorFamily, EndpointsInRangeAndDeterministic) {
  const auto& fam = GetParam();
  const auto a = fam.make(7);
  const auto b = fam.make(7);
  const auto c = fam.make(8);
  ASSERT_EQ(a.size(), b.size());
  bool all_same_as_c = a.size() == c.size();
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].u, b[i].u);
    EXPECT_EQ(a[i].v, b[i].v);
    if (all_same_as_c && (a[i].u != c[i].u || a[i].v != c[i].v)) {
      all_same_as_c = false;
    }
  }
  // Randomized families must differ across seeds (regular ones may not).
  if (std::string(fam.name) != "grid") EXPECT_FALSE(all_same_as_c);
}

TEST_P(GeneratorFamily, BuildsCleanCsr) {
  const auto edges = GetParam().make(3);
  const auto g = build_undirected(edges);
  for (vid_t u = 0; u < g.num_vertices(); ++u) {
    const auto nbrs = g.out_neighbors(u);
    EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
    for (vid_t v : nbrs) {
      EXPECT_NE(v, u);  // no self loops survive the builder
      EXPECT_TRUE(g.has_edge(v, u));  // symmetric
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, GeneratorFamily,
    ::testing::Values(
        Family{"rmat", [](std::uint64_t s) {
                 return rmat_edges({.scale = 8, .edge_factor = 8, .seed = s});
               }},
        Family{"erdos_renyi", [](std::uint64_t s) {
                 return erdos_renyi_edges(256, 1024, s);
               }},
        Family{"barabasi_albert", [](std::uint64_t s) {
                 return barabasi_albert_edges(256, 3, s);
               }},
        Family{"watts_strogatz", [](std::uint64_t s) {
                 return watts_strogatz_edges(256, 6, 0.1, s);
               }},
        Family{"grid", [](std::uint64_t) { return grid_edges(12, 11); }}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(Rmat, ProducesRequestedEdgeCount) {
  const auto edges = rmat_edges({.scale = 6, .edge_factor = 4, .seed = 1});
  EXPECT_EQ(edges.size(), 4u * 64u);
  for (const Edge& e : edges) {
    EXPECT_LT(e.u, 64u);
    EXPECT_LT(e.v, 64u);
  }
}

template <typename T>
std::uint64_t digest(const std::vector<T>& xs) {
  std::uint64_t h = core::hash_combine(0, xs.size());
  for (const T& x : xs) h = core::hash_combine(h, static_cast<std::uint64_t>(x));
  return h;
}

std::uint64_t digest(const std::vector<Edge>& edges) {
  std::uint64_t h = core::hash_combine(0, edges.size());
  for (const Edge& e : edges) {
    h = core::hash_combine(h, e.u);
    h = core::hash_combine(h, e.v);
    h = core::hash_combine(h, static_cast<std::uint64_t>(e.ts));
  }
  return h;
}

// The RMAT draw stream and the graphs built from it are pinned: every
// test graph, golden file and benchmark input depends on them.
TEST(Rmat, StreamIsPinned) {
  struct Pinned {
    unsigned scale;
    std::uint64_t edges, offsets, targets;
  };
  for (const Pinned& p : {Pinned{10, 0x08e3243d84a7e619ULL,
                                 0x05083e7bde296dbcULL, 0xa153627a5df39d7fULL},
                          Pinned{16, 0x47889f51307f5625ULL,
                                 0x8fde96f6948d7fe6ULL, 0xe128a0c5b417f02cULL}}) {
    const RmatParams params{.scale = p.scale, .edge_factor = 16, .seed = 1};
    EXPECT_EQ(digest(rmat_edges(params)), p.edges) << "scale " << p.scale;
    const auto g = make_rmat(params);
    EXPECT_EQ(digest(g.offsets()), p.offsets) << "scale " << p.scale;
    EXPECT_EQ(digest(g.targets()), p.targets) << "scale " << p.scale;
  }
}

// rmat_edges compares raw 64-bit draws against integer thresholds. This
// is the double-compare loop it replaced; the two must draw the same
// edges for any probabilities, not just the defaults.
std::vector<Edge> rmat_edges_double_compare(const RmatParams& p) {
  const vid_t n = vid_t{1} << p.scale;
  const eid_t m = static_cast<eid_t>(p.edge_factor) * n;
  core::Xoshiro256 rng(p.seed);
  std::vector<Edge> edges;
  const double ab = p.a + p.b;
  const double abc = p.a + p.b + p.c;
  for (eid_t i = 0; i < m; ++i) {
    vid_t u = 0, v = 0;
    for (unsigned bit = 0; bit < p.scale; ++bit) {
      const double r = rng.next_double();
      const bool ubit = r >= ab;
      const bool vbit = (r >= p.a && r < ab) || r >= abc;
      u = (u << 1) | static_cast<vid_t>(ubit);
      v = (v << 1) | static_cast<vid_t>(vbit);
    }
    edges.push_back(Edge{u, v, 1.0f, static_cast<std::int64_t>(i)});
  }
  return edges;
}

TEST(Rmat, IntegerThresholdsMatchDoubleCompare) {
  struct Probs {
    double a, b, c;
  };
  for (const Probs& q : {Probs{0.57, 0.19, 0.19},         // Graph500
                         Probs{0.25, 0.25, 0.25},         // dyadic: exact ties
                         Probs{1.0 / 3, 1.0 / 7, 0.1},    // non-dyadic
                         Probs{0.6, 0.0, 0.3},            // b = 0
                         Probs{0.0, 0.45, 0.45},          // a = 0
                         Probs{0.999, 1e-17, 0.0009}}) {  // near 1, tiny b
    const RmatParams p{.scale = 10, .edge_factor = 8,
                       .a = q.a, .b = q.b, .c = q.c, .seed = 9};
    SCOPED_TRACE(testing::Message() << "a=" << q.a << " b=" << q.b
                                    << " c=" << q.c);
    const auto got = rmat_edges(p);
    const auto want = rmat_edges_double_compare(p);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].u, want[i].u) << "edge " << i;
      ASSERT_EQ(got[i].v, want[i].v) << "edge " << i;
      ASSERT_EQ(got[i].ts, want[i].ts) << "edge " << i;
      ASSERT_EQ(got[i].w, 1.0f) << "edge " << i;
    }
    // make_rmat draws into (u, v) pairs; the graph is the Edge path's.
    const auto g = make_rmat(p);
    const auto ref = build_csr(rmat_edges(p), vid_t{1} << p.scale);
    EXPECT_EQ(g.directed(), ref.directed());
    EXPECT_EQ(g.offsets(), ref.offsets());
    EXPECT_EQ(g.targets(), ref.targets());
    EXPECT_EQ(g.weights(), ref.weights());
  }
  // Integer thresholds need non-negative probabilities.
  for (const Probs& q : {Probs{-0.1, 0.5, 0.5}, Probs{0.5, -1e-300, 0.2},
                         Probs{0.2, 0.2, -0.3}}) {
    const RmatParams p{.scale = 4, .a = q.a, .b = q.b, .c = q.c};
    EXPECT_THROW(rmat_edges(p), ga::Error);
    EXPECT_THROW(make_rmat(p), ga::Error);
  }
}

TEST(Rmat, IsSkewed) {
  const auto g = make_rmat({.scale = 10, .edge_factor = 8, .seed = 2});
  const auto s = compute_degree_stats(g);
  // Power-law-ish: the max degree should far exceed the mean.
  EXPECT_GT(static_cast<double>(s.max_degree), 8.0 * s.mean_degree);
}

TEST(ErdosRenyi, ExactEdgeCountNoDuplicates) {
  const auto g = make_erdos_renyi(100, 500, 1);
  EXPECT_EQ(g.num_edges(), 500u);
}

TEST(ErdosRenyi, RejectsImpossibleEdgeCount) {
  EXPECT_THROW(erdos_renyi_edges(4, 100, 1), ga::Error);
}

TEST(BarabasiAlbert, MinimumDegreeIsAttachCount) {
  const auto g = make_barabasi_albert(200, 3, 1);
  // Every non-seed vertex attaches to exactly 3 targets; degrees >= 3.
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    EXPECT_GE(g.out_degree(v), 3u);
  }
}

TEST(WattsStrogatz, ZeroBetaIsRingLattice) {
  const auto g = make_watts_strogatz(50, 4, 0.0, 1);
  for (vid_t v = 0; v < 50; ++v) EXPECT_EQ(g.out_degree(v), 4u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_TRUE(g.has_edge(0, 49));
}

TEST(Grid, CornerEdgeAndInteriorDegrees) {
  const auto g = make_grid(3, 4);
  EXPECT_EQ(g.num_vertices(), 12u);
  EXPECT_EQ(g.out_degree(0), 2u);   // corner
  EXPECT_EQ(g.out_degree(1), 3u);   // edge
  EXPECT_EQ(g.out_degree(5), 4u);   // interior
  EXPECT_EQ(g.num_edges(), 3u * 3 + 4u * 2);  // rows*(cols-1)+cols*(rows-1)
}

TEST(SimpleTopologies, PathStarComplete) {
  EXPECT_EQ(make_path(5).num_edges(), 4u);
  EXPECT_EQ(make_star(5).out_degree(0), 4u);
  EXPECT_EQ(make_complete(5).num_edges(), 10u);
}

TEST(RandomizeWeights, InRangeAndDeterministic) {
  auto e1 = path_edges(100);
  auto e2 = path_edges(100);
  randomize_weights(e1, 0.5f, 2.0f, 9);
  randomize_weights(e2, 0.5f, 2.0f, 9);
  for (std::size_t i = 0; i < e1.size(); ++i) {
    EXPECT_GE(e1[i].w, 0.5f);
    EXPECT_LT(e1[i].w, 2.0f);
    EXPECT_FLOAT_EQ(e1[i].w, e2[i].w);
  }
}

}  // namespace
}  // namespace ga::graph
