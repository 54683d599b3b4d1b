// Delta-driven incremental kernel updates: fold one epoch's DeltaSummary
// into a previous result instead of recomputing over the whole graph.
//
// Each kernel with an incremental path exposes a typed
//   update(prev_result, delta, view) -> result
// entry that either refines the previous answer from the delta (the warm
// path) or detects that the delta defeats its update rule and falls back
// to a batch recompute — the IncrementalOutcome reports which happened and
// why. Per-kernel policies:
//
//  * PageRank — delta-seeded power refinement: the previous ranks seed a
//    warm power iteration (pagerank_warm) with a bounded iteration budget;
//    falls back to batch on vertex growth, oversized churn, or a warm run
//    that exhausts the budget without reaching tolerance.
//  * WCC — the batch kernel's min-id hook applied to the inserted arcs
//    on top of the previous labels, O(n + Δ); any *effective* delete
//    falls back to a batch recompute (the classic streaming-connectivity
//    recompute-on-delete policy, shared with StreamingComponents below).
//  * Jaccard point query — the answer depends only on the query's 2-hop
//    footprint; an epoch disjoint from it carries the previous answer
//    unchanged, otherwise the (already local) query recomputes.
//
// A type-erased IncrementalKernel runner wraps the typed entries for
// registry-driven harnesses (ga_cli epochs, equivalence sweeps); the
// serving scheduler uses the typed entries directly.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>

#include "graph/dynamic_graph.hpp"
#include "kernels/connected_components.hpp"
#include "kernels/jaccard.hpp"
#include "kernels/pagerank.hpp"
#include "store/delta_summary.hpp"
#include "store/graph_view.hpp"

namespace ga::kernels {

enum class IncrementalFallback : std::uint8_t {
  kNone = 0,       // warm path taken (or no fallback reason recorded)
  kShapeMismatch,  // previous result unusable (size mismatch, growth)
  kChurn,          // delta too large for a warm update to pay off
  kDeletes,        // kernel has no delete rule (WCC recompute-on-delete)
  kNotConverged,   // warm refinement exhausted its iteration budget
  kFault,          // the warm path threw (injected or real failure)
};
const char* incremental_fallback_name(IncrementalFallback f);

struct IncrementalOptions {
  /// Batch fallback when the changed-vertex set exceeds this fraction of
  /// |V| — past that point a warm update no longer beats a fresh solve.
  double max_changed_fraction = 0.25;
  /// Iteration budget for warm PageRank refinement before falling back.
  unsigned max_warm_iters = 12;
  /// Test-only fault injection: invoked at the named warm-path stages
  /// ("pagerank_warm", "wcc_unite", "jaccard_probe"); a throw lands on the
  /// kFault batch fallback instead of propagating.
  std::function<void(const char*)> fault_hook;
};

struct IncrementalOutcome {
  bool incremental = false;  // true iff the warm path produced the result
  IncrementalFallback fallback = IncrementalFallback::kNone;
  unsigned iterations = 0;  // power iterations actually run (PageRank)
};

/// PageRank over `view` seeded from `prev` (see policy above). `opts` are
/// the batch options; tolerance/damping apply to warm and fallback alike.
PageRankResult update_pagerank(const PageRankResult& prev,
                               const store::DeltaSummary& delta,
                               const store::GraphView& view,
                               const PageRankOptions& opts = {},
                               const IncrementalOptions& inc = {},
                               IncrementalOutcome* out = nullptr);

/// WCC over `view` from `prev` labels + the delta's inserted arcs; falls
/// back to a batch recompute on any effective delete or shape change.
/// Labels come out canonicalized (min vertex id) on both paths.
ComponentsResult update_wcc(const ComponentsResult& prev,
                            const store::DeltaSummary& delta,
                            const store::GraphView& view,
                            const IncrementalOptions& inc = {},
                            IncrementalOutcome* out = nullptr);

/// Jaccard point query for `seed`: carries `prev` unchanged when the delta
/// cannot intersect the query's dependency set, else recomputes (locally).
/// `footprint` is jaccard_footprint(view, seed, cap) — pass empty when the
/// footprint exceeded the cap (forces the recompute path on any
/// structural delta).
JaccardResult update_jaccard_query(const JaccardResult& prev, vid_t seed,
                                   double threshold,
                                   std::span<const vid_t> footprint,
                                   const store::DeltaSummary& delta,
                                   const store::GraphView& view,
                                   const IncrementalOptions& inc = {},
                                   IncrementalOutcome* out = nullptr);

/// Type-erased epoch-folding runner behind KernelInfo::make_incremental:
/// seed once with init(), then fold each published epoch forward with
/// update(). Digests are one-line result summaries in the registry style.
class IncrementalKernel {
 public:
  virtual ~IncrementalKernel() = default;
  /// Seeds the warm state with a batch run; returns its digest.
  virtual std::string init(const store::GraphView& view) = 0;
  /// Folds one epoch into the warm state (batch fallback per policy).
  virtual IncrementalOutcome update(const store::DeltaSummary& delta,
                                    const store::GraphView& view) = 0;
  /// Digest of the current warm state.
  virtual std::string digest() const = 0;
  /// Digest of a fresh batch run over `view` (equivalence harnesses).
  virtual std::string batch_digest(const store::GraphView& view) const = 0;

  void set_options(IncrementalOptions o) { opts_ = std::move(o); }

 protected:
  IncrementalOptions opts_;
};

std::unique_ptr<IncrementalKernel> make_incremental_pagerank(
    PageRankOptions opts = {});
std::unique_ptr<IncrementalKernel> make_incremental_wcc();
std::unique_ptr<IncrementalKernel> make_incremental_jaccard(
    vid_t seed, double threshold = 0.0);

/// Live connectivity tracker over a DynamicGraph — the streaming-layer
/// face of the same policy update_wcc applies to store epochs: inserts are
/// O(α(n)) unions, deletes and vertex growth invalidate the forest and
/// rebuild lazily on the next query. (Replaces the old standalone
/// streaming::IncrementalCC.)
class StreamingComponents {
 public:
  explicit StreamingComponents(const graph::DynamicGraph& g);

  /// Notify an applied edge insert. Returns true if two components merged.
  bool on_insert(vid_t u, vid_t v);
  /// Notify an applied edge delete (marks dirty; rebuild deferred).
  void on_delete(vid_t u, vid_t v);
  /// Notify that vertices were added to the backing graph.
  void on_add_vertices(vid_t new_total);

  vid_t num_components();
  bool connected(vid_t u, vid_t v);
  /// Size of the component containing v.
  vid_t component_size(vid_t v);

  bool dirty() const { return dirty_; }
  std::uint64_t rebuilds() const { return rebuilds_; }

 private:
  void rebuild_if_dirty();

  const graph::DynamicGraph& g_;
  UnionFind uf_;
  bool dirty_ = false;
  std::uint64_t rebuilds_ = 0;
};

}  // namespace ga::kernels
