#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <utility>

#include "core/hash.hpp"
#include "core/prng.hpp"
#include "graph/builder.hpp"

namespace ga::graph {

using core::Xoshiro256;

namespace {

// Xoshiro256::next_double() is r = (x >> 11) * 2^-53 for the raw draw x.
// For 0 <= t < 1, r >= t holds exactly when x >= ceil(t * 2^53) << 11:
// x >> 11 is an integer, and scaling by a power of two is exact. The
// shifted value fits, since t < 1 puts ceil(t * 2^53) below 2^53.
std::uint64_t draw_threshold(double t) {
  return static_cast<std::uint64_t>(std::ceil(t * 0x1.0p53)) << 11;
}

// The RMAT draw loop of rmat_edges and make_rmat: the m edges in stream
// order, edge i stored as make(u, v, i) in an exact-size vector.
template <typename Record, typename Make>
std::vector<Record> rmat_draw(const RmatParams& p, Make make) {
  GA_CHECK(p.scale > 0 && p.scale < 31, "rmat scale out of range");
  // draw_threshold needs every threshold in [0, 1).
  GA_CHECK(p.a >= 0 && p.b >= 0 && p.c >= 0,
           "rmat probabilities must be non-negative");
  GA_CHECK(p.a + p.b + p.c < 1.0, "rmat probabilities must sum below 1");
  const vid_t n = vid_t{1} << p.scale;
  const eid_t m = static_cast<eid_t>(p.edge_factor) * n;
  Xoshiro256 rng(p.seed);
  std::vector<Record> edges;
  edges.reserve(m);
  const std::uint64_t a = draw_threshold(p.a);
  const std::uint64_t ab = draw_threshold(p.a + p.b);
  const std::uint64_t abc = draw_threshold(p.a + p.b + p.c);
  for (eid_t i = 0; i < m; ++i) {
    vid_t u = 0, v = 0;
    for (unsigned bit = 0; bit < p.scale; ++bit) {
      const std::uint64_t x = rng.next();
      // Quadrant choice per recursion level. `&` and `|` on bools make
      // every comparison evaluate, so the choice costs no data-dependent
      // branch (the draws are random, so such a branch mispredicts).
      const bool ubit = x >= ab;
      const bool vbit = ((x >= a) & (x < ab)) | (x >= abc);
      u = (u << 1) | static_cast<vid_t>(ubit);
      v = (v << 1) | static_cast<vid_t>(vbit);
    }
    edges.push_back(make(u, v, i));
  }
  return edges;
}

}  // namespace

std::vector<Edge> rmat_edges(const RmatParams& p) {
  return rmat_draw<Edge>(p, [](vid_t u, vid_t v, eid_t i) {
    return Edge{u, v, 1.0f, static_cast<std::int64_t>(i)};
  });
}

std::vector<Edge> erdos_renyi_edges(vid_t n, eid_t m, std::uint64_t seed) {
  GA_CHECK(n >= 2, "erdos_renyi needs >= 2 vertices");
  const eid_t max_edges = static_cast<eid_t>(n) * (n - 1) / 2;
  GA_CHECK(m <= max_edges, "erdos_renyi: too many edges requested");
  Xoshiro256 rng(seed);
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(m * 2);
  std::vector<Edge> edges;
  edges.reserve(m);
  while (edges.size() < m) {
    const vid_t u = rng.next_vid(n);
    const vid_t v = rng.next_vid(n);
    if (u == v) continue;
    if (!seen.insert(core::edge_key(u, v)).second) continue;
    edges.push_back(Edge{u, v, 1.0f, static_cast<std::int64_t>(edges.size())});
  }
  return edges;
}

std::vector<Edge> barabasi_albert_edges(vid_t n, unsigned attach,
                                        std::uint64_t seed) {
  GA_CHECK(attach >= 1, "barabasi_albert: attach >= 1");
  GA_CHECK(n > attach, "barabasi_albert: n must exceed attach count");
  Xoshiro256 rng(seed);
  std::vector<Edge> edges;
  // Endpoint pool: sampling uniformly from it is sampling ∝ degree.
  std::vector<vid_t> pool;
  // Seed clique over the first attach+1 vertices.
  for (vid_t u = 0; u <= attach; ++u) {
    for (vid_t v = u + 1; v <= attach; ++v) {
      edges.push_back(Edge{u, v});
      pool.push_back(u);
      pool.push_back(v);
    }
  }
  std::vector<vid_t> picks;
  for (vid_t u = attach + 1; u < n; ++u) {
    picks.clear();
    // Rejection-sample `attach` distinct targets.
    while (picks.size() < attach) {
      const vid_t v = pool[rng.next_below(pool.size())];
      if (std::find(picks.begin(), picks.end(), v) == picks.end()) {
        picks.push_back(v);
      }
    }
    for (vid_t v : picks) {
      edges.push_back(Edge{u, v});
      pool.push_back(u);
      pool.push_back(v);
    }
  }
  for (std::size_t i = 0; i < edges.size(); ++i) {
    edges[i].ts = static_cast<std::int64_t>(i);
  }
  return edges;
}

std::vector<Edge> watts_strogatz_edges(vid_t n, unsigned k, double beta,
                                       std::uint64_t seed) {
  GA_CHECK(k >= 2 && k % 2 == 0, "watts_strogatz: k must be even >= 2");
  GA_CHECK(n > k, "watts_strogatz: n must exceed k");
  Xoshiro256 rng(seed);
  std::unordered_set<std::uint64_t> seen;
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n) * (k / 2));
  for (vid_t u = 0; u < n; ++u) {
    for (unsigned j = 1; j <= k / 2; ++j) {
      vid_t v = static_cast<vid_t>((u + j) % n);
      if (rng.next_bool(beta)) {
        // Rewire to a uniform non-self, non-duplicate target.
        for (int tries = 0; tries < 32; ++tries) {
          const vid_t cand = rng.next_vid(n);
          if (cand != u && !seen.count(core::edge_key(u, cand))) {
            v = cand;
            break;
          }
        }
      }
      if (u == v || !seen.insert(core::edge_key(u, v)).second) continue;
      edges.push_back(Edge{u, v});
    }
  }
  return edges;
}

std::vector<Edge> grid_edges(vid_t rows, vid_t cols) {
  GA_CHECK(rows >= 1 && cols >= 1, "grid: empty");
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(rows) * cols * 2);
  const auto id = [cols](vid_t r, vid_t c) { return r * cols + c; };
  for (vid_t r = 0; r < rows; ++r) {
    for (vid_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) edges.push_back(Edge{id(r, c), id(r, c + 1)});
      if (r + 1 < rows) edges.push_back(Edge{id(r, c), id(r + 1, c)});
    }
  }
  return edges;
}

std::vector<Edge> path_edges(vid_t n) {
  std::vector<Edge> edges;
  for (vid_t u = 0; u + 1 < n; ++u) edges.push_back(Edge{u, u + 1});
  return edges;
}

std::vector<Edge> star_edges(vid_t n) {
  std::vector<Edge> edges;
  for (vid_t u = 1; u < n; ++u) edges.push_back(Edge{0, u});
  return edges;
}

std::vector<Edge> complete_edges(vid_t n) {
  std::vector<Edge> edges;
  for (vid_t u = 0; u < n; ++u) {
    for (vid_t v = u + 1; v < n; ++v) edges.push_back(Edge{u, v});
  }
  return edges;
}

void randomize_weights(std::vector<Edge>& edges, float lo, float hi,
                       std::uint64_t seed) {
  GA_CHECK(lo < hi, "randomize_weights: empty range");
  Xoshiro256 rng(seed);
  for (Edge& e : edges) {
    e.w = lo + static_cast<float>(rng.next_double()) * (hi - lo);
  }
}

namespace {
template <typename Record>
CSRGraph clean_undirected(std::vector<Record> edges, vid_t n) {
  BuildOptions opts;
  opts.directed = false;
  return build_csr(std::move(edges), n, opts);
}
}  // namespace

// Builds from 8-byte (u, v) arcs, not 24-byte Edges: the draw is the
// largest allocation of the build, and an unweighted graph needs no more.
CSRGraph make_rmat(const RmatParams& p) {
  return clean_undirected(
      rmat_draw<std::pair<vid_t, vid_t>>(
          p, [](vid_t u, vid_t v, eid_t) { return std::pair{u, v}; }),
      vid_t{1} << p.scale);
}
CSRGraph make_erdos_renyi(vid_t n, eid_t m, std::uint64_t seed) {
  return clean_undirected(erdos_renyi_edges(n, m, seed), n);
}
CSRGraph make_barabasi_albert(vid_t n, unsigned attach, std::uint64_t seed) {
  return clean_undirected(barabasi_albert_edges(n, attach, seed), n);
}
CSRGraph make_watts_strogatz(vid_t n, unsigned k, double beta,
                             std::uint64_t seed) {
  return clean_undirected(watts_strogatz_edges(n, k, beta, seed), n);
}
CSRGraph make_grid(vid_t rows, vid_t cols) {
  return clean_undirected(grid_edges(rows, cols), rows * cols);
}
CSRGraph make_path(vid_t n) { return clean_undirected(path_edges(n), n); }
CSRGraph make_star(vid_t n) { return clean_undirected(star_edges(n), n); }
CSRGraph make_complete(vid_t n) { return clean_undirected(complete_edges(n), n); }

}  // namespace ga::graph
