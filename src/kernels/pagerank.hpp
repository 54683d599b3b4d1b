// PageRank (Fig. 1 row "PR"), the canonical "compute a vertex property"
// centrality kernel. One pull-style power loop (deterministic, no atomics)
// with dangling-mass redistribution and an L1 convergence test serves
// batch, warm-started and personalized PageRank over every GraphView.
//
// The loop is a plain parallel pull over degree-balanced vertex ranges:
// each vertex sums its in-neighbours' rank/out-degree contributions in
// ascending neighbour order, while the dangling, contribution and delta
// passes run serially in vertex order. Every floating-point sum therefore
// has one fixed order, so ranks and iteration counts are bitwise the same
// at any thread count and on every view kind of the same graph.
//
// Where the arcs come from is decided here and nowhere else. Undirected
// tiered views (chained or not) stream their merged adjacency through one
// TieredGraph::Reader per worker, inside the tier budget — on an
// undirected graph the out-adjacency is the in-adjacency. Every other
// view pulls from its flat form: the base itself when flat, the version's
// cached fold otherwise (a directed view needs that fold's transpose, and
// on a delta chain one fold beats re-merging the chain on every sweep).
#pragma once

#include <utility>
#include <vector>

#include "engine/telemetry.hpp"
#include "graph/csr_graph.hpp"
#include "store/graph_view.hpp"

namespace ga::kernels {

using graph::CSRGraph;

struct PageRankOptions {
  double damping = 0.85;
  double tolerance = 1e-8;   // L1 delta between iterations
  unsigned max_iters = 100;
  /// Non-empty = personalized PageRank with restart mass on these seeds
  /// (only honored by the uniform run() entry point below).
  std::vector<vid_t> seeds;
};

struct PageRankResult {
  std::vector<double> rank;  // sums to ~1
  unsigned iterations = 0;
  double final_delta = 0.0;
  bool converged = false;
  /// Per-iteration telemetry (one pull pass each).
  std::vector<engine::StepStats> steps;
};

PageRankResult pagerank(const store::GraphView& view,
                        const PageRankOptions& opts = {});
/// The CSR form forwards through GraphView::borrowed.
PageRankResult pagerank(const CSRGraph& g, const PageRankOptions& opts = {});

/// Warm-started power iteration: seeds the solve from `rank` (a prior
/// epoch's result, renormalized here) instead of uniform 1/n, then refines
/// to opts.tolerance. After a small edge delta the spectrum barely moves,
/// so this typically converges in a handful of iterations — the core of
/// the delta-driven incremental PageRank path (kernels/incremental.hpp).
/// `rank.size()` must equal view.num_vertices().
PageRankResult pagerank_warm(const store::GraphView& view,
                             std::vector<double> rank,
                             const PageRankOptions& opts = {});

/// Top-k vertices by rank (descending) — the "search for largest" pattern.
std::vector<std::pair<double, vid_t>> pagerank_topk(const PageRankResult& r,
                                                    std::size_t k);

/// Personalized PageRank: the restart mass returns to `seeds` (uniformly)
/// instead of to all vertices — the "explore the region around some number
/// of vertices" pattern behind recommendation and link-prediction uses the
/// paper's introduction motivates.
PageRankResult personalized_pagerank(const store::GraphView& view,
                                     const std::vector<vid_t>& seeds,
                                     const PageRankOptions& opts = {});
PageRankResult personalized_pagerank(const CSRGraph& g,
                                     const std::vector<vid_t>& seeds,
                                     const PageRankOptions& opts = {});

/// Uniform kernel entry point (see kernels/registry.hpp).
inline PageRankResult run(const store::GraphView& v,
                          const PageRankOptions& opts) {
  return opts.seeds.empty() ? pagerank(v, opts)
                            : personalized_pagerank(v, opts.seeds, opts);
}

}  // namespace ga::kernels
