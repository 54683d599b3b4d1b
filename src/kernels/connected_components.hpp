// Weakly Connected Components (Fig. 1 row "CCW"). One parallel kernel —
// Shiloach–Vishkin min-id hooking plus pointer-jumping compress over any
// GraphView — and two serial references: a BFS sweep (simple oracle) and
// a union-find API that the streaming layer reuses for incremental
// connectivity.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "engine/telemetry.hpp"
#include "graph/csr_graph.hpp"
#include "store/graph_view.hpp"

namespace ga::kernels {

using graph::CSRGraph;

struct ComponentsResult {
  std::vector<vid_t> label;       // component id per vertex (min vertex id)
  vid_t num_components = 0;
  vid_t largest_size = 0;
  /// Per-pass telemetry (wcc_label_propagation only): one hook step, one
  /// compress step.
  std::vector<engine::StepStats> steps;
};

/// Shiloach–Vishkin min-id hooking + pointer-jumping compress, parallel
/// over vertex ranges through GraphView::for_each_out, the same way for
/// flat, chained, tiered and directed views. Every arc hooks the higher of
/// its endpoints' roots under the lower one (undirected views hook each
/// edge once, from its higher endpoint; directed views hook every arc,
/// since a union needs no transpose), so each root is its component's
/// minimum vertex id and the labels come out canonical by construction.
ComponentsResult wcc_label_propagation(const store::GraphView& g);
/// The CSR form forwards through GraphView::borrowed.
ComponentsResult wcc_label_propagation(const CSRGraph& g);

/// Hooks `arcs` into `label` — a previous result's canonical labels, or
/// any min-id forest — with the same hook and compress as above. An
/// insert-only delta only fuses whole components, so this is update_wcc's
/// warm path: O(n + |arcs|) instead of a pass over every arc.
ComponentsResult wcc_hook_arcs(
    std::vector<vid_t> label,
    std::span<const std::pair<vid_t, vid_t>> arcs);

/// BFS from every unvisited vertex (test oracle).
ComponentsResult wcc_bfs(const CSRGraph& g);

/// Union-find with path halving + union by size; reused by streaming.
class UnionFind {
 public:
  explicit UnionFind(vid_t n);
  vid_t find(vid_t x);
  /// Returns true if the union merged two distinct sets.
  bool unite(vid_t a, vid_t b);
  bool connected(vid_t a, vid_t b) { return find(a) == find(b); }
  vid_t num_sets() const { return sets_; }
  vid_t size_of(vid_t x) { return size_[find(x)]; }
  void reset(vid_t n);

 private:
  std::vector<vid_t> parent_;
  std::vector<vid_t> size_;
  vid_t sets_ = 0;
};

ComponentsResult wcc_union_find(const CSRGraph& g);

/// Canonicalize labels (vertex ids) to the minimum vertex id of each
/// component so every engine produces byte-identical results.
void canonicalize_labels(std::vector<vid_t>& label);

/// Uniform kernel entry point (see kernels/registry.hpp).
struct ComponentsOptions {};

inline ComponentsResult run(const store::GraphView& g,
                            const ComponentsOptions&) {
  return wcc_label_propagation(g);
}

}  // namespace ga::kernels
