// GraphView: the engine's single read path over the versioned store.
//
// A view's base is either an immutable flat CSR or a segmented two-tier
// store (store/tiered.hpp — hot decoded slabs + compressed cold blocks
// faulted in under a byte budget), and on top of either base may ride a
// chain of immutable DeltaLayer overlays, newest last. A *flat* view is
// the CSR-base no-chain case — the zero-cost path every batch kernel
// sees after compaction. Reads merge the chain newest-first per vertex:
// an add in a newer layer wins (upsert), a delete suppresses anything
// older, otherwise the base adjacency shows through. Merged iteration is
// ordered by target id, exactly like the CSR itself, so merge-based
// kernels (triangles, Jaccard) keep their sorted-adjacency contract.
// Tiered and flat bases are digest-identical by construction: the tier
// layer changes where adjacency bytes live, never what they say.
//
// Views are cheap value types (a few shared_ptrs); copying one never
// copies graph data. All referenced storage is immutable, so concurrent
// readers share views freely. flatten()/csr() lazily folds the chain into
// a flat CSR once per version and caches it (shared across copies of the
// same version, mutex-published) — kernels without a delta-native path pay
// that fold once, which is the read-amplification half of the compaction
// policy bargain.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "graph/csr_graph.hpp"
#include "store/delta.hpp"
#include "store/tiered.hpp"

namespace ga::store {

struct DeltaSummary;

class GraphView {
 public:
  GraphView() = default;

  /// Flat view over an owned base (epoch defaults to 0 = unversioned).
  static GraphView of(std::shared_ptr<const graph::CSRGraph> base,
                      std::uint64_t epoch = 0);
  static GraphView of(graph::CSRGraph base, std::uint64_t epoch = 0);
  /// Flat view that aliases a caller-owned CSR without taking ownership.
  /// Lifetime contract: `base` must outlive the view and every copy of it
  /// (benches/CLI with a stack-owned graph; never used for published
  /// snapshots, which require owning views).
  static GraphView borrowed(const graph::CSRGraph& base,
                            std::uint64_t epoch = 0);

  /// View over a two-tier segmented base (epoch defaults to 0).
  static GraphView over_tiers(std::shared_ptr<const TieredGraph> tiers,
                              std::uint64_t epoch = 0);

  /// Delta-backed view; `num_arcs` is the exact merged arc count (the
  /// store tracks it via DeltaLayer::net_arcs). `props` may be null.
  GraphView(std::shared_ptr<const graph::CSRGraph> base,
            std::vector<std::shared_ptr<const DeltaLayer>> chain,
            std::shared_ptr<const std::vector<std::pair<vid_t, float>>> props,
            std::uint64_t epoch, eid_t num_arcs);

  /// Delta chain over a tiered base.
  GraphView(std::shared_ptr<const TieredGraph> tiers,
            std::vector<std::shared_ptr<const DeltaLayer>> chain,
            std::shared_ptr<const std::vector<std::pair<vid_t, float>>> props,
            std::uint64_t epoch, eid_t num_arcs);

  /// Copy of this view with one more chain layer (newest), whatever the
  /// base kind — how the store publishes an epoch without caring whether
  /// its flatten target is a flat CSR or a tiered store. Drops the
  /// predecessor's delta summary (the new epoch attaches its own).
  GraphView with_layer(std::shared_ptr<const DeltaLayer> layer,
                       std::uint64_t epoch, eid_t num_arcs) const;

  bool valid() const { return base_ != nullptr || tiers_ != nullptr; }
  bool flat() const { return chain_.empty() && !tiers_; }
  bool tiered() const { return tiers_ != nullptr; }
  std::uint64_t epoch() const { return epoch_; }
  std::size_t chain_depth() const { return chain_.size(); }

  vid_t num_vertices() const { return n_; }
  /// Exact merged arc count (undirected graphs store both arcs).
  eid_t num_arcs() const { return arcs_; }
  eid_t num_edges() const { return directed() ? arcs_ : arcs_ / 2; }
  bool directed() const {
    return tiers_ ? tiers_->directed() : base_->directed();
  }
  bool weighted() const {
    return tiers_ ? tiers_->weighted() : base_->weighted();
  }

  const graph::CSRGraph& base() const {
    GA_CHECK(base_ != nullptr, "GraphView::base: tiered view has no flat base");
    return *base_;
  }
  std::shared_ptr<const graph::CSRGraph> base_ptr() const { return base_; }
  const std::shared_ptr<const TieredGraph>& tiers() const { return tiers_; }
  const std::vector<std::shared_ptr<const DeltaLayer>>& chain() const {
    return chain_;
  }

  /// Flat read path: the base itself when flat, else the cached fold of
  /// the chain. First call on a delta-backed version pays O(|V|+|E|+Δ)
  /// once; every later call (from any copy of this version) is a load.
  const graph::CSRGraph& csr() const { return *flatten(); }
  std::shared_ptr<const graph::CSRGraph> flatten() const;

  /// Merged out-adjacency of `u`, ascending by target id; fn(vid_t v,
  /// float w) with w == 1.0f on unweighted graphs. A sweep keeps one
  /// Reader per thread, so a tiered base re-pins only on segment cross.
  template <typename Fn>
  void for_each_out(vid_t u, TieredGraph::Reader& rd, Fn&& fn) const;
  template <typename Fn>
  void for_each_out(vid_t u, Fn&& fn) const {
    TieredGraph::Reader rd;
    for_each_out(u, rd, static_cast<Fn&&>(fn));
  }

  eid_t out_degree(vid_t u) const;
  bool has_edge(vid_t u, vid_t v) const;
  /// Merged adjacency as a sorted vector (tests, subgraph extraction).
  std::vector<std::pair<vid_t, float>> out_edges_copy(vid_t u) const;

  /// Vertex property under newest-wins patch semantics; `fallback` when no
  /// layer (or the folded property table) carries the vertex.
  float vertex_property_or(vid_t v, float fallback) const;
  std::shared_ptr<const std::vector<std::pair<vid_t, float>>> folded_props()
      const {
    return props_;
  }
  /// The property counterpart of flatten(): the inherited table plus every
  /// chain layer's patches folded into one sorted last-write-wins vector.
  /// Returns the inherited table unchanged (possibly null) when no layer
  /// carries patches. The epoch-log checkpoint persists this — reading
  /// folded_props() alone would drop patches still riding in the chain.
  std::shared_ptr<const std::vector<std::pair<vid_t, float>>> flatten_props()
      const;

  /// --- storage accounting (memory-amplification / compaction policy) ---
  std::size_t base_bytes() const;
  std::size_t delta_bytes() const;
  /// Modeled merged-read cost over flat-read cost: entries a full
  /// traversal scans (base arcs + gross delta ops) per merged arc.
  /// Exactly 1.0 for a flat view.
  double read_amplification() const;
  /// Identity of the shared base allocation (snapshot managers dedup
  /// bytes held across epochs by these pointers).
  const void* base_id() const {
    return tiers_ ? static_cast<const void*>(tiers_.get())
                  : static_cast<const void*>(base_.get());
  }

  /// Change manifest of this epoch vs. its immediate predecessor (store
  /// epoch - 1); attached by VersionedGraphStore::apply and preserved
  /// across compaction. Null on flat/initial views and views of unknown
  /// provenance — consumers must then fall back to whole-graph treatment.
  std::shared_ptr<const DeltaSummary> delta_summary() const {
    return summary_;
  }
  /// Copy of this view carrying `s` as its change manifest. The graph
  /// content is identical; only the provenance annotation changes.
  GraphView with_summary(std::shared_ptr<const DeltaSummary> s) const;

 private:
  struct FlattenCache {
    std::mutex mu;
    std::shared_ptr<const graph::CSRGraph> flat;
  };
  std::shared_ptr<const graph::CSRGraph> build_flat() const;

  std::shared_ptr<const graph::CSRGraph> base_;
  std::shared_ptr<const TieredGraph> tiers_;  // exactly one of base_/tiers_
  std::vector<std::shared_ptr<const DeltaLayer>> chain_;  // oldest..newest
  std::shared_ptr<const std::vector<std::pair<vid_t, float>>> props_;
  std::shared_ptr<FlattenCache> cache_;  // non-null iff delta- or tier-backed
  std::shared_ptr<const DeltaSummary> summary_;
  std::uint64_t epoch_ = 0;
  vid_t n_ = 0;
  eid_t arcs_ = 0;
};

// ---------------------------------------------------------------------------
// Merged iteration. Chain depth is bounded by the compaction policy (~8);
// cursors live on the stack unless a pathological chain exceeds the inline
// capacity.

template <typename Fn>
void GraphView::for_each_out(vid_t u, TieredGraph::Reader& rd,
                             Fn&& fn) const {
  GA_ASSERT(valid() && u < n_);
  // Resolve the base adjacency spans — a flat CSR slice or a tier slab
  // (the reader's pin keeps the slab alive across the merge even if the
  // eviction clock sweeps it mid-iteration).
  const vid_t base_n = tiers_ ? tiers_->num_vertices() : base_->num_vertices();
  std::span<const vid_t> bt;
  std::span<const float> bw;
  if (u < base_n) {
    const bool w = weighted();
    if (tiers_) {
      const SegmentCSR& slab = tiers_->slab_of(u, rd);
      bt = slab.neighbors(u);
      if (w) bw = slab.weights_of(u);
    } else {
      bt = base_->out_neighbors(u);
      if (w) bw = base_->out_weights(u);
    }
  }
  const auto scan_base = [&] {
    if (!bw.empty()) {
      for (std::size_t i = 0; i < bt.size(); ++i) fn(bt[i], bw[i]);
    } else {
      for (const vid_t v : bt) fn(v, 1.0f);
    }
  };
  if (chain_.empty()) {
    scan_base();
    return;
  }

  struct Cursor {
    DeltaLayer::VertexOps ops;
    std::size_t a = 0, d = 0;
  };
  constexpr std::size_t kInline = 32;
  Cursor inline_cur[kInline];
  std::vector<Cursor> heap_cur;
  Cursor* cur = inline_cur;
  const std::size_t depth = chain_.size();
  if (depth > kInline) {
    heap_cur.resize(depth);
    cur = heap_cur.data();
  }
  bool any_ops = false;
  for (std::size_t k = 0; k < depth; ++k) {
    cur[k].ops = chain_[k]->ops(u);
    any_ops |= !cur[k].ops.add_tgt.empty() || !cur[k].ops.del_tgt.empty();
  }

  if (!any_ops) {  // untouched vertex: plain base scan
    scan_base();
    return;
  }
  std::size_t bi = 0;
  for (;;) {
    // Next candidate target: min over the base cursor and every layer's
    // pending adds (deletes never introduce targets, only suppress).
    vid_t t = kInvalidVid;
    if (bi < bt.size()) t = bt[bi];
    for (std::size_t k = 0; k < depth; ++k) {
      const auto& add = cur[k].ops.add_tgt;
      if (cur[k].a < add.size() && add[cur[k].a] < t) t = add[cur[k].a];
    }
    if (t == kInvalidVid) break;

    // Newest layer touching t decides; older ops and the base are shadowed.
    int decision = 0;  // 0 = base shows through, 1 = add wins, 2 = deleted
    float w = 1.0f;
    for (std::size_t k = depth; k-- > 0;) {
      Cursor& c = cur[k];
      const auto& add = c.ops.add_tgt;
      const auto& del = c.ops.del_tgt;
      while (c.d < del.size() && del[c.d] < t) ++c.d;  // no-op deletes
      const bool has_add = c.a < add.size() && add[c.a] == t;
      const bool has_del = c.d < del.size() && del[c.d] == t;
      if (decision == 0) {
        if (has_add) {
          decision = 1;
          w = c.ops.add_w[c.a];
        } else if (has_del) {
          decision = 2;
        }
      }
      if (has_add) ++c.a;
      if (has_del) ++c.d;
    }
    const bool base_has = bi < bt.size() && bt[bi] == t;
    if (decision == 1) {
      fn(t, w);
    } else if (decision == 0 && base_has) {
      fn(t, bw.empty() ? 1.0f : bw[bi]);
    }
    if (base_has) ++bi;
  }
}

}  // namespace ga::store
