#include "kernels/incremental.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace ga::kernels {

const char* incremental_fallback_name(IncrementalFallback f) {
  switch (f) {
    case IncrementalFallback::kNone: return "none";
    case IncrementalFallback::kShapeMismatch: return "shape_mismatch";
    case IncrementalFallback::kChurn: return "churn";
    case IncrementalFallback::kDeletes: return "deletes";
    case IncrementalFallback::kNotConverged: return "not_converged";
    case IncrementalFallback::kFault: return "fault";
  }
  return "unknown";
}

namespace {

void report(IncrementalOutcome* out, const IncrementalOutcome& o) {
  if (out) *out = o;
}

bool churn_exceeded(const store::DeltaSummary& delta, vid_t n,
                    const IncrementalOptions& inc) {
  return static_cast<double>(delta.changed_vertices.size()) >
         inc.max_changed_fraction * static_cast<double>(std::max<vid_t>(n, 1));
}

}  // namespace

PageRankResult update_pagerank(const PageRankResult& prev,
                               const store::DeltaSummary& delta,
                               const store::GraphView& view,
                               const PageRankOptions& opts,
                               const IncrementalOptions& inc,
                               IncrementalOutcome* out) {
  const vid_t n = view.num_vertices();
  IncrementalOutcome o;
  const auto batch = [&](IncrementalFallback why) {
    o.incremental = false;
    o.fallback = why;
    PageRankResult r = pagerank(view, opts);
    o.iterations = r.iterations;
    report(out, o);
    return r;
  };

  if (n == 0 || prev.rank.size() != n || !prev.converged) {
    return batch(IncrementalFallback::kShapeMismatch);
  }
  if (!delta.structural() && delta.vertex_growth == 0) {
    // Property-only / heartbeat epoch: the stationary distribution is
    // untouched; carry the previous ranks verbatim.
    o.incremental = true;
    report(out, o);
    return prev;
  }
  if (churn_exceeded(delta, n, inc)) return batch(IncrementalFallback::kChurn);

  PageRankOptions warm_opts = opts;
  warm_opts.max_iters = std::min(opts.max_iters, inc.max_warm_iters);
  PageRankResult r;
  try {
    if (inc.fault_hook) inc.fault_hook("pagerank_warm");
    r = pagerank_warm(view, prev.rank, warm_opts);
  } catch (...) {
    return batch(IncrementalFallback::kFault);
  }
  if (!r.converged) return batch(IncrementalFallback::kNotConverged);
  o.incremental = true;
  o.iterations = r.iterations;
  report(out, o);
  return r;
}

ComponentsResult update_wcc(const ComponentsResult& prev,
                            const store::DeltaSummary& delta,
                            const store::GraphView& view,
                            const IncrementalOptions& inc,
                            IncrementalOutcome* out) {
  const vid_t n = view.num_vertices();
  IncrementalOutcome o;
  const auto batch = [&](IncrementalFallback why) {
    o.incremental = false;
    o.fallback = why;
    ComponentsResult r = wcc_label_propagation(view);
    report(out, o);
    return r;
  };

  // Vertex growth shows up as a label-vector size mismatch; new isolated
  // vertices could in principle be appended as singletons, but growth
  // epochs are rare enough that the batch path keeps the rule simple.
  if (n == 0 || prev.label.size() != n) {
    return batch(IncrementalFallback::kShapeMismatch);
  }
  if (!delta.deleted_arcs.empty()) {
    // Recompute-on-delete: a removed arc can split a component and
    // union-find cannot un-merge.
    return batch(IncrementalFallback::kDeletes);
  }

  ComponentsResult r;
  try {
    if (inc.fault_hook) inc.fault_hook("wcc_unite");
    // The previous labels are a compressed min-id forest, so the batch
    // kernel's hook applies to them directly: an insert-only delta can
    // only fuse whole components.
    r = wcc_hook_arcs(prev.label, delta.inserted_arcs);
  } catch (...) {
    return batch(IncrementalFallback::kFault);
  }
  o.incremental = true;
  report(out, o);
  return r;
}

JaccardResult update_jaccard_query(const JaccardResult& prev, vid_t seed,
                                   double threshold,
                                   std::span<const vid_t> footprint,
                                   const store::DeltaSummary& delta,
                                   const store::GraphView& view,
                                   const IncrementalOptions& inc,
                                   IncrementalOutcome* out) {
  IncrementalOutcome o;
  const auto recompute = [&](IncrementalFallback why) {
    o.incremental = false;
    o.fallback = why;
    JaccardResult r{jaccard_query(view, seed, threshold)};
    report(out, o);
    return r;
  };

  try {
    if (inc.fault_hook) inc.fault_hook("jaccard_probe");
  } catch (...) {
    return recompute(IncrementalFallback::kFault);
  }
  // Vertex growth alone cannot create a 2-hop candidate (new vertices are
  // isolated until an arc — which would be in the changed set — arrives).
  if (!delta.structural()) {
    o.incremental = true;
    report(out, o);
    return prev;
  }
  if (footprint.empty() || delta.intersects(footprint)) {
    // The delta may touch the query's dependency set; the query is local
    // (one 2-hop sweep), so "fallback" here is just that sweep.
    return recompute(IncrementalFallback::kNone);
  }
  o.incremental = true;
  report(out, o);
  return prev;
}

// ---------------------------------------------------------------------------
// Type-erased runners for the registry interface.

namespace {

std::string fmt_double(const char* prefix, double x) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s%.6f", prefix, x);
  return std::string(buf);
}

class IncPageRank final : public IncrementalKernel {
 public:
  explicit IncPageRank(PageRankOptions opts) : pr_opts_(opts) {}

  std::string init(const store::GraphView& view) override {
    res_ = pagerank(view, pr_opts_);
    return digest();
  }
  IncrementalOutcome update(const store::DeltaSummary& delta,
                            const store::GraphView& view) override {
    IncrementalOutcome o;
    res_ = update_pagerank(res_, delta, view, pr_opts_, opts_, &o);
    return o;
  }
  std::string digest() const override { return digest_of(res_); }
  std::string batch_digest(const store::GraphView& view) const override {
    return digest_of(pagerank(view, pr_opts_));
  }

 private:
  static std::string digest_of(const PageRankResult& r) {
    const auto top = pagerank_topk(r, 1);
    return "top vertex=" +
           std::to_string(top.empty() ? 0 : top[0].second) + " " +
           fmt_double("rank=", top.empty() ? 0.0 : top[0].first);
  }

  PageRankOptions pr_opts_;
  PageRankResult res_;
};

class IncWcc final : public IncrementalKernel {
 public:
  std::string init(const store::GraphView& view) override {
    res_ = wcc_label_propagation(view);
    return digest();
  }
  IncrementalOutcome update(const store::DeltaSummary& delta,
                            const store::GraphView& view) override {
    IncrementalOutcome o;
    res_ = update_wcc(res_, delta, view, opts_, &o);
    return o;
  }
  std::string digest() const override { return digest_of(res_); }
  std::string batch_digest(const store::GraphView& view) const override {
    return digest_of(wcc_label_propagation(view));
  }

 private:
  static std::string digest_of(const ComponentsResult& r) {
    return "components=" + std::to_string(r.num_components) +
           " largest=" + std::to_string(r.largest_size);
  }

  ComponentsResult res_;
};

class IncJaccard final : public IncrementalKernel {
 public:
  IncJaccard(vid_t seed, double threshold)
      : seed_(seed), threshold_(threshold) {}

  std::string init(const store::GraphView& view) override {
    res_ = JaccardResult{jaccard_query(view, seed_, threshold_)};
    return digest();
  }
  IncrementalOutcome update(const store::DeltaSummary& delta,
                            const store::GraphView& view) override {
    IncrementalOutcome o;
    const auto fp = jaccard_footprint(view, seed_, kFootprintCap);
    res_ = update_jaccard_query(res_, seed_, threshold_, fp, delta, view,
                                opts_, &o);
    return o;
  }
  std::string digest() const override { return digest_of(res_); }
  std::string batch_digest(const store::GraphView& view) const override {
    return digest_of(JaccardResult{jaccard_query(view, seed_, threshold_)});
  }

 private:
  static constexpr std::size_t kFootprintCap = 4096;

  static std::string digest_of(const JaccardResult& r) {
    if (r.pairs.empty()) return "matches=0";
    return "matches=" + std::to_string(r.pairs.size()) + " top=" +
           std::to_string(r.pairs[0].v) + " " +
           fmt_double("J=", r.pairs[0].coefficient);
  }

  vid_t seed_;
  double threshold_;
  JaccardResult res_;
};

}  // namespace

std::unique_ptr<IncrementalKernel> make_incremental_pagerank(
    PageRankOptions opts) {
  return std::make_unique<IncPageRank>(opts);
}
std::unique_ptr<IncrementalKernel> make_incremental_wcc() {
  return std::make_unique<IncWcc>();
}
std::unique_ptr<IncrementalKernel> make_incremental_jaccard(vid_t seed,
                                                            double threshold) {
  return std::make_unique<IncJaccard>(seed, threshold);
}

// ---------------------------------------------------------------------------
// StreamingComponents (DynamicGraph face of the WCC policy).

StreamingComponents::StreamingComponents(const graph::DynamicGraph& g)
    : g_(g), uf_(g.num_vertices()) {
  // Absorb any pre-existing edges.
  for (vid_t u = 0; u < g.num_vertices(); ++u) {
    g.for_each_neighbor(u, [&](vid_t v, float, std::int64_t) {
      if (u < v || g.directed()) uf_.unite(u, v);
    });
  }
}

bool StreamingComponents::on_insert(vid_t u, vid_t v) {
  if (dirty_) {
    // A rebuild is pending anyway; the snapshot will include this edge.
    return false;
  }
  return uf_.unite(u, v);
}

void StreamingComponents::on_delete(vid_t /*u*/, vid_t /*v*/) {
  dirty_ = true;
}

void StreamingComponents::on_add_vertices(vid_t /*new_total*/) {
  dirty_ = true;
}

void StreamingComponents::rebuild_if_dirty() {
  if (!dirty_) return;
  uf_.reset(g_.num_vertices());
  for (vid_t u = 0; u < g_.num_vertices(); ++u) {
    g_.for_each_neighbor(u, [&](vid_t v, float, std::int64_t) {
      if (u < v || g_.directed()) uf_.unite(u, v);
    });
  }
  dirty_ = false;
  ++rebuilds_;
}

vid_t StreamingComponents::num_components() {
  rebuild_if_dirty();
  return uf_.num_sets();
}

bool StreamingComponents::connected(vid_t u, vid_t v) {
  rebuild_if_dirty();
  return uf_.connected(u, v);
}

vid_t StreamingComponents::component_size(vid_t v) {
  rebuild_if_dirty();
  return uf_.size_of(v);
}

}  // namespace ga::kernels
