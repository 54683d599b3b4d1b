// Synthetic graph generators covering the inputs used by the benchmark
// suites the paper surveys: Graph500-style Kronecker/RMAT (power-law,
// low-locality), Erdős–Rényi (uniform sparse), Barabási–Albert
// (preferential attachment), Watts–Strogatz (small world), and regular
// topologies (grid, path, star, complete) for ground-truth tests.
// All generators are deterministic in (params, seed).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/edge.hpp"

namespace ga::graph {

struct RmatParams {
  unsigned scale = 10;        // n = 2^scale vertices
  unsigned edge_factor = 16;  // m = edge_factor * n edges
  double a = 0.57, b = 0.19, c = 0.19;  // d = 1-a-b-c (Graph500 defaults)
  std::uint64_t seed = 1;
};

/// RMAT/Kronecker edge list (may contain duplicates/self-loops exactly as
/// Graph500 specifies; pass through build_csr to clean). Throws unless
/// a, b and c are non-negative and sum below 1.
std::vector<Edge> rmat_edges(const RmatParams& p);

/// G(n, m): m distinct undirected edges sampled uniformly.
std::vector<Edge> erdos_renyi_edges(vid_t n, eid_t m, std::uint64_t seed);

/// Barabási–Albert preferential attachment: each new vertex attaches to
/// `attach` existing vertices chosen ∝ degree.
std::vector<Edge> barabasi_albert_edges(vid_t n, unsigned attach,
                                        std::uint64_t seed);

/// Watts–Strogatz: ring of n vertices, each joined to k nearest neighbors,
/// each edge rewired with probability beta.
std::vector<Edge> watts_strogatz_edges(vid_t n, unsigned k, double beta,
                                       std::uint64_t seed);

/// rows x cols 4-neighbor grid.
std::vector<Edge> grid_edges(vid_t rows, vid_t cols);

std::vector<Edge> path_edges(vid_t n);
std::vector<Edge> star_edges(vid_t n);       // vertex 0 is the hub
std::vector<Edge> complete_edges(vid_t n);

/// Convenience: cleaned undirected CSR graphs.
CSRGraph make_rmat(const RmatParams& p);
CSRGraph make_erdos_renyi(vid_t n, eid_t m, std::uint64_t seed);
CSRGraph make_barabasi_albert(vid_t n, unsigned attach, std::uint64_t seed);
CSRGraph make_watts_strogatz(vid_t n, unsigned k, double beta, std::uint64_t seed);
CSRGraph make_grid(vid_t rows, vid_t cols);
CSRGraph make_path(vid_t n);
CSRGraph make_star(vid_t n);
CSRGraph make_complete(vid_t n);

/// Assign uniform random weights in [lo, hi) to an edge list (for SSSP).
void randomize_weights(std::vector<Edge>& edges, float lo, float hi,
                       std::uint64_t seed);

}  // namespace ga::graph
