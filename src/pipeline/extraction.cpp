#include "pipeline/extraction.hpp"

#include <algorithm>

#include "graph/builder.hpp"
#include "kernels/bfs.hpp"

namespace ga::pipeline {

ExtractedSubgraph::ExtractedSubgraph(graph::CSRGraph g,
                                     std::vector<vid_t> members,
                                     graph::PropertyTable props)
    : g_(std::move(g)), members_(std::move(members)), props_(std::move(props)) {
  GA_CHECK(g_.num_vertices() == members_.size(),
           "ExtractedSubgraph: member map mismatch");
}

vid_t ExtractedSubgraph::local_id(vid_t global) const {
  const auto it = std::lower_bound(members_.begin(), members_.end(), global);
  if (it == members_.end() || *it != global) return kInvalidVid;
  return static_cast<vid_t>(it - members_.begin());
}

void ExtractedSubgraph::write_back(GraphStore& store) const {
  store.properties().write_back(props_, members_);
}

ExtractedSubgraph extract(const GraphStore& store,
                          const std::vector<vid_t>& seeds,
                          const ExtractionOptions& opts) {
  GA_CHECK(!seeds.empty(), "extract: no seeds");
  // Read through the versioned store: an O(Δ) sync instead of an O(|E|)
  // snapshot per extraction. The k-hop walk and the edge collection both
  // run on the merged delta-chain view directly.
  const store::GraphView view = store.view();
  const std::vector<vid_t> members =
      kernels::khop_neighborhood(view, seeds, opts.depth);

  // Dense global → local map: one load per arc decides membership.
  std::vector<vid_t> local_of(view.num_vertices(), kInvalidVid);
  for (vid_t l = 0; l < members.size(); ++l) local_of[members[l]] = l;

  std::vector<graph::Edge> edges;
  for (vid_t lu = 0; lu < members.size(); ++lu) {
    view.for_each_out(members[lu], [&](vid_t v, float w) {
      const vid_t lv = local_of[v];
      if (lv == kInvalidVid || lv <= lu) return;
      edges.push_back(graph::Edge{lu, lv, w, 0});
    });
  }
  graph::BuildOptions bopts;
  bopts.directed = false;
  bopts.keep_weights = true;
  auto sub = graph::build_csr(std::move(edges),
                              static_cast<vid_t>(members.size()), bopts);

  // Project the requested property columns (always include "class" so
  // downstream analytics can tell people from addresses).
  std::vector<std::string> keep = opts.projected_properties;
  if (std::find(keep.begin(), keep.end(), "class") == keep.end() &&
      store.properties().has_column("class")) {
    keep.push_back("class");
  }
  graph::PropertyTable projected = store.properties().project(members, keep);
  return ExtractedSubgraph(std::move(sub), members, std::move(projected));
}

}  // namespace ga::pipeline
