#include "graph/builder.hpp"

#include <algorithm>
#include <utility>

namespace ga::graph {

namespace {

// counts[v + 1] holds v's count on entry; on return counts[v] is the first
// slot of v's bucket and counts[n] the total.
void prefix_sum(std::vector<eid_t>& counts) {
  for (std::size_t i = 1; i < counts.size(); ++i) counts[i] += counts[i - 1];
}

// The fields the builder reads from its two input records. A bare (u, v)
// pair weighs 1, the default weight of an Edge.
vid_t tail(const Edge& e) { return e.u; }
vid_t head(const Edge& e) { return e.v; }
float weight(const Edge& e) { return e.w; }
vid_t tail(const std::pair<vid_t, vid_t>& e) { return e.first; }
vid_t head(const std::pair<vid_t, vid_t>& e) { return e.second; }
float weight(const std::pair<vid_t, vid_t>&) { return 1.0f; }

// Two counting passes and no comparisons between arcs. An arc's rank is
// its position in the symmetrized list: the kept edges by input index,
// then (undirected) their reverses by input index. Pass 1 buckets arcs by
// target in rank order; pass 2 walks targets in ascending order and
// appends each to its source's list, so every list comes out in ascending
// target order, with the copies of a duplicate arc adjacent and in rank
// order. Keeping the first copy keeps the first-seen weight.
template <typename Record>
CSRGraph build(std::vector<Record> edges, vid_t num_vertices,
               const BuildOptions& opts) {
  vid_t n = num_vertices;
  if (n == 0) {
    for (const Record& e : edges) n = std::max({n, tail(e) + 1, head(e) + 1});
  } else {
    for (const Record& e : edges) {
      GA_CHECK(tail(e) < n && head(e) < n, "edge endpoint out of range");
    }
  }
  const bool symmetrize = !opts.directed;
  const bool keep_w = opts.keep_weights;
  const auto kept = [&](const Record& e) {
    return !opts.remove_self_loops || tail(e) != head(e);
  };

  // Bucket bounds by target (pass 1) and by source (pass 2). A
  // symmetrized arc set has equal in- and out-degrees, so one array
  // serves both.
  std::vector<eid_t> by_target(static_cast<std::size_t>(n) + 1, 0);
  std::vector<eid_t> by_source;
  if (!symmetrize) by_source.assign(by_target.size(), 0);
  for (const Record& e : edges) {
    if (!kept(e)) continue;
    ++by_target[head(e) + 1];
    ++(symmetrize ? by_target : by_source)[tail(e) + 1];
  }
  prefix_sum(by_target);
  if (!symmetrize) prefix_sum(by_source);
  const std::vector<eid_t>& source_start = symmetrize ? by_target : by_source;
  const eid_t arcs = by_target[n];

  // Pass 1: sources (and weights) bucketed by target, in rank order.
  // by_target[t] is t's write cursor, which leaves it at the start of
  // t + 1; one shift restores the starts.
  std::vector<vid_t> src(arcs);
  std::vector<float> src_w(keep_w ? arcs : 0);
  const auto put = [&](vid_t s, vid_t t, float w) {
    const eid_t slot = by_target[t]++;
    src[slot] = s;
    if (keep_w) src_w[slot] = w;
  };
  for (const Record& e : edges) {
    if (kept(e)) put(tail(e), head(e), weight(e));
  }
  if (symmetrize) {
    for (const Record& e : edges) {
      if (kept(e)) put(head(e), tail(e), weight(e));
    }
  }
  // Free the input before pass 2 allocates: a caller's resident set is
  // set by this function's heap high-water mark (DESIGN.md §17).
  std::vector<Record>().swap(edges);
  std::copy_backward(by_target.begin(), by_target.end() - 1, by_target.end());
  by_target[0] = 0;

  // Pass 2: targets (and weights) by source. A duplicate is a target
  // equal to the one its source's list received last.
  const bool dedup = opts.dedup_parallel_edges;
  std::vector<eid_t> list_end(source_start.begin(), source_start.end() - 1);
  std::vector<vid_t> tgt(arcs);
  std::vector<float> tgt_w(keep_w ? arcs : 0);
  for (vid_t t = 0; t < n; ++t) {
    for (eid_t i = by_target[t]; i < by_target[t + 1]; ++i) {
      const vid_t s = src[i];
      eid_t& slot = list_end[s];
      if (dedup && slot != source_start[s] && tgt[slot - 1] == t) continue;
      tgt[slot] = t;
      if (keep_w) tgt_w[slot] = src_w[i];
      ++slot;
    }
  }
  std::vector<vid_t>().swap(src);
  std::vector<float>().swap(src_w);

  // Close the gaps the dropped duplicates left, into exact-size arrays.
  std::vector<eid_t> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (vid_t s = 0; s < n; ++s) {
    offsets[s + 1] = offsets[s] + (list_end[s] - source_start[s]);
  }
  std::vector<vid_t> targets(offsets[n]);
  std::vector<float> weights(keep_w ? offsets[n] : 0);
  for (vid_t s = 0; s < n; ++s) {
    const auto from = static_cast<std::ptrdiff_t>(source_start[s]);
    const auto to = static_cast<std::ptrdiff_t>(list_end[s]);
    const auto at = static_cast<std::ptrdiff_t>(offsets[s]);
    std::copy(tgt.begin() + from, tgt.begin() + to, targets.begin() + at);
    if (keep_w) {
      std::copy(tgt_w.begin() + from, tgt_w.begin() + to, weights.begin() + at);
    }
  }
  return CSRGraph(std::move(offsets), std::move(targets), std::move(weights),
                  opts.directed);
}

}  // namespace

CSRGraph build_csr(std::vector<Edge> edges, vid_t num_vertices,
                   const BuildOptions& opts) {
  return build(std::move(edges), num_vertices, opts);
}

CSRGraph build_csr(std::vector<std::pair<vid_t, vid_t>> arcs,
                   vid_t num_vertices, const BuildOptions& opts) {
  return build(std::move(arcs), num_vertices, opts);
}

CSRGraph build_undirected(std::vector<Edge> edges, vid_t num_vertices) {
  BuildOptions opts;
  opts.directed = false;
  return build_csr(std::move(edges), num_vertices, opts);
}

CSRGraph build_directed(std::vector<Edge> edges, vid_t num_vertices) {
  BuildOptions opts;
  opts.directed = true;
  return build_csr(std::move(edges), num_vertices, opts);
}

}  // namespace ga::graph
