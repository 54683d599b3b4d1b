// Edge-list → CSR construction with the clean-up steps every real pipeline
// needs: self-loop removal, duplicate-arc removal (keeping the first
// weight), optional symmetrization for undirected graphs, and adjacency
// lists in ascending target order.
#pragma once

#include <utility>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/edge.hpp"

namespace ga::graph {

struct BuildOptions {
  bool directed = false;        // false: symmetrize (store both arcs)
  bool remove_self_loops = true;
  bool dedup_parallel_edges = true;
  bool keep_weights = false;    // materialize the weight array
};

/// Builds a CSR graph over vertices [0, num_vertices). Edges referencing
/// vertices >= num_vertices throw. num_vertices==0 infers 1+max id.
CSRGraph build_csr(std::vector<Edge> edges, vid_t num_vertices,
                   const BuildOptions& opts = {});

/// The same build over bare (u, v) arcs, each of weight 1: 8 bytes an arc
/// where an Edge takes 24. Gives the bytes the Edge overload gives for the
/// same arcs.
CSRGraph build_csr(std::vector<std::pair<vid_t, vid_t>> arcs,
                   vid_t num_vertices, const BuildOptions& opts = {});

/// Convenience for tests: undirected unweighted graph from initializer data.
CSRGraph build_undirected(std::vector<Edge> edges, vid_t num_vertices = 0);

/// Convenience: directed unweighted graph.
CSRGraph build_directed(std::vector<Edge> edges, vid_t num_vertices = 0);

}  // namespace ga::graph
