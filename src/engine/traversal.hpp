// The shared frontier-centric traversal engine (Ligra-style vertex_map /
// edge_map with Beamer direction optimization). Every level-synchronous
// kernel (BFS, frontier SSSP, Brandes BC, k-core peeling) is one functor
// plus a loop over edge_map; the engine owns the hot path: direction
// choice, sparse/dense frontier representation, in-place frontier
// recycling, software prefetch of the random-access state the scan is
// about to touch, thread-local next-frontier buffers merged per step, and
// per-super-step StepStats telemetry. Dense whole-graph passes with no
// frontier (WCC hooking, PageRank's pull) are plain loops in their kernels
// and record the same StepStats.
//
// Functor concept F:
//   bool cond(vid_t v)                       — is target v still active?
//   bool update(vid_t u, vid_t v, float w)   — apply arc (u,v); return true
//                                              to add v to the next frontier.
//                                              Serial paths and pull (where
//                                              one thread owns v) use this.
//   bool update_atomic(vid_t u, vid_t v, float w)
//                                            — as update, but safe for
//                                              concurrent callers (parallel
//                                              push). Use atomics on shared
//                                              per-vertex state.
// Optional prefetch hook (the engine calls it a few arcs ahead of the
// scan cursor so the kernel's random state reads overlap the sequential
// adjacency stream):
//   void prefetch_target(vid_t v)  — push is about to call cond/update on
//                                    target v (e.g. prefetch &dist[v]).
// Pull prefetches the frontier bitmap itself. The engine deduplicates
// next-frontier insertion; update may return true for the same v more
// than once per step.
//
// Direction semantics: push iterates the frontier's out-arcs (u ranges over
// the frontier); pull scans every vertex v with cond(v) and probes its
// in-arcs for frontier members, breaking early once cond(v) turns false.
// On directed graphs the transpose is built on demand (thread-safe, const).
// Pull on a *directed weighted* graph cannot recover arc weights from the
// transpose and passes w = 1.0f — weight-dependent kernels force push.
//
// Direction choice (Dir::kAuto) follows the GAP/Beamer heuristic: pull
// when the frontier's out-arc count ("scout count", tracked incrementally
// by the step that built the frontier) times alpha exceeds the arcs still
// unexplored AND the frontier holds more than n/beta vertices. Kernels
// whose functors visit each vertex at most once (BFS-like monotone
// traversals) set opts.monotone so "unexplored" shrinks as the run
// proceeds; non-monotone kernels compare against the full arc count.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "core/thread_pool.hpp"
#include "core/timer.hpp"
#include "engine/archbridge.hpp"
#include "engine/frontier.hpp"
#include "engine/telemetry.hpp"
#include "graph/csr_graph.hpp"
#include "store/graph_view.hpp"

namespace ga::engine {

struct TraversalOptions {
  enum class Dir : std::uint8_t { kAuto, kPush, kPull };

  Dir direction = Dir::kAuto;
  /// Use worker threads when the global pool has more than one. Serial
  /// traversals are exactly deterministic (insertion order reproducible).
  bool parallel = true;
  /// The functor claims each vertex at most once across the whole
  /// traversal (BFS-style). Lets the kAuto heuristic measure the scout
  /// count against the arcs not yet traversed (telemetry-tracked) instead
  /// of the full graph — the GAP direction-optimizing BFS rule.
  bool monotone = false;
  std::uint64_t grain = 64;
  /// Beamer switch thresholds (same form as the classic direction-
  /// optimizing BFS): choose pull when the frontier's out-arc count times
  /// alpha exceeds the (remaining) arc total AND the frontier holds more
  /// than n/beta vertices; otherwise push.
  std::uint64_t alpha = 14;
  std::uint64_t beta = 24;
};

namespace detail {

/// How many arcs ahead of the scan cursor prefetches are issued. Far
/// enough to cover DRAM latency at ~2 arcs/ns, near enough to stay in the
/// load queue.
inline constexpr std::size_t kPrefetchDistance = 8;

template <typename F>
concept HasPrefetchTarget =
    requires(F& f, vid_t v) { f.prefetch_target(v); };

/// Adjacency view over raw CSR arrays: forward (out) or reverse (in)
/// arcs, with weight access where the representation has them. The
/// per-arc hot loops index these pointers directly — no span
/// construction, bounds assert, or use_in branch per arc. in-lists alias
/// out-lists on undirected graphs, so weights stay index-aligned there; a
/// directed transpose has no weight array and reports 1.0f.
struct Adj {
  const eid_t* offsets;
  const vid_t* targets;
  const float* weights;  // nullptr when the view carries no weights

  /// Requires ensure_transpose() first when use_in on a directed graph.
  static Adj make(const graph::CSRGraph& g, bool use_in) {
    Adj a;
    if (use_in && g.directed()) {
      a.offsets = g.in_offsets().data();
      a.targets = g.in_targets().data();
      a.weights = nullptr;  // transpose carries no weight array
    } else {
      a.offsets = g.offsets().data();
      a.targets = g.targets().data();
      a.weights = g.weighted() ? g.weights().data() : nullptr;
    }
    return a;
  }

  eid_t degree(vid_t u) const { return offsets[u + 1] - offsets[u]; }
  /// Weight by absolute arc index (offsets[u] + i).
  float weight(eid_t arc) const {
    return weights != nullptr ? weights[arc] : 1.0f;
  }
};

/// Modeled memory traffic of a step, at word granularity (the paper's
/// Fig. 3 memory-resource axis): per examined vertex an offset pair, per
/// inspected arc a target id, its optional weight, and one word of kernel
/// state read or written at the far endpoint.
inline std::uint64_t model_bytes(std::uint64_t vertices, std::uint64_t edges,
                                 bool weighted) {
  constexpr std::uint64_t kVertexOverhead = 2 * sizeof(eid_t);  // offsets
  constexpr std::uint64_t kStateBytes = 8;                      // dist/label/rank word
  const std::uint64_t per_edge =
      sizeof(vid_t) + (weighted ? sizeof(float) : 0) + kStateBytes;
  return vertices * kVertexOverhead + edges * per_edge;
}

inline std::uint64_t degree_sum(const Adj& adj, const Frontier& f) {
  std::uint64_t sum = 0;
  f.for_each([&](vid_t v) { sum += adj.degree(v); });
  return sum;
}

/// Cut [0, n) into at most `chunks` ranges holding roughly equal arc
/// counts (binary search on the offset array), so parallel pull divides
/// work by edges instead of vertices — power-law degree skew otherwise
/// leaves most threads idle behind the hub-owning one.
inline std::vector<vid_t> edge_balanced_bounds(const eid_t* offsets, vid_t n,
                                               unsigned chunks) {
  std::vector<vid_t> bounds;
  bounds.reserve(chunks + 1);
  bounds.push_back(0);
  const eid_t total = offsets[n];
  for (unsigned c = 1; c < chunks; ++c) {
    const eid_t want = total / chunks * c;
    const eid_t* it = std::upper_bound(offsets, offsets + n + 1, want);
    vid_t v = static_cast<vid_t>(it - offsets);
    v = v > 0 ? v - 1 : 0;
    if (v < bounds.back()) v = bounds.back();
    bounds.push_back(v);
  }
  bounds.push_back(n);
  return bounds;
}

}  // namespace detail

/// One traversal super-step: apply `f` over the arcs leaving `frontier`
/// (push) or entering still-active vertices (pull), filling `next` with
/// the next frontier. `next` is recycled in place (allocations kept from
/// the previous level); it must not alias `frontier`. Direction,
/// representation switching, parallel merging, prefetch, and telemetry
/// are handled here — kernels supply only the functor.
template <typename F>
void edge_map_into(const graph::CSRGraph& g, Frontier& frontier,
                   Frontier& next, F&& f, const TraversalOptions& opts = {},
                   Telemetry* telem = nullptr) {
  using Fn = std::remove_reference_t<F>;
  const vid_t n = g.num_vertices();
  GA_CHECK(frontier.universe() == n, "edge_map: frontier/graph mismatch");
  GA_CHECK(&frontier != &next, "edge_map: frontier and next must differ");
  next.reinit(n);
  core::WallTimer timer;

  detail::Adj fwd = detail::Adj::make(g, /*use_in=*/false);

  Direction dir;
  if (opts.direction == TraversalOptions::Dir::kPush) {
    dir = Direction::kPush;
  } else if (opts.direction == TraversalOptions::Dir::kPull) {
    dir = Direction::kPull;
  } else {
    // Pull cannot recover arc weights from a directed transpose, so the
    // heuristic never selects it there (callers may still force it for
    // weight-oblivious functors).
    const bool pull_usable = !(g.directed() && g.weighted());
    const std::uint64_t fedges = frontier.has_out_edges()
                                     ? frontier.out_edges()
                                     : detail::degree_sum(fwd, frontier);
    if (opts.monotone && telem != nullptr) {
      // GAP direction-optimizing rule, asymmetric like the original: enter
      // bottom-up as soon as the scout count beats the arcs still
      // unexplored / alpha — a hub-heavy frontier with few vertices still
      // qualifies — and once in it (a dense frontier marks the previous
      // step as pull), stay until the frontier shrinks below n / beta.
      const std::uint64_t seen = telem->total_edges();
      const std::uint64_t arcs = g.num_arcs();
      // Floor the horizon at n: when nearly everything is explored a tiny
      // tail frontier must not "win" against ~0 remaining arcs and trigger
      // an all-vertex pull scan per level (quadratic on high-diameter
      // graphs).
      const std::uint64_t horizon =
          std::max<std::uint64_t>(seen < arcs ? arcs - seen : 0, n);
      const bool enter_pull = fedges * opts.alpha > horizon;
      const bool stay_pull =
          frontier.dense() && frontier.size() > n / opts.beta;
      dir = (pull_usable && (enter_pull || stay_pull)) ? Direction::kPull
                                                       : Direction::kPush;
    } else {
      dir = (pull_usable && fedges * opts.alpha > g.num_arcs() &&
             frontier.size() > n / opts.beta)
                ? Direction::kPull
                : Direction::kPush;
    }
  }
  // Pull reads in-arcs.
  if (g.directed() && dir == Direction::kPull) g.ensure_transpose();

  const bool run_parallel =
      opts.parallel && core::ThreadPool::global().num_threads() > 1;
  const bool track_scout = opts.direction == TraversalOptions::Dir::kAuto;
  StepStats st;
  st.direction = dir;
  st.frontier_size = frontier.size();
  constexpr std::size_t kPD = detail::kPrefetchDistance;

  if (dir == Direction::kPush) {
    frontier.ensure_sparse();
    const auto& items = frontier.items();
    st.vertices_touched = items.size();
    if (!run_parallel) {
      std::uint64_t edges = 0, scout = 0;
      for (vid_t u : items) {
        const eid_t ab = fwd.offsets[u], ae = fwd.offsets[u + 1];
        edges += ae - ab;
        for (eid_t i = ab; i < ae; ++i) {
          const vid_t v = fwd.targets[i];
          if constexpr (detail::HasPrefetchTarget<Fn>) {
            if (i + kPD < ae) f.prefetch_target(fwd.targets[i + kPD]);
          }
          if (!f.cond(v)) continue;
          if (f.update(u, v, fwd.weight(i)) && next.add(v) && track_scout) {
            scout += fwd.degree(v);
          }
        }
      }
      st.edges_traversed = edges;
      if (track_scout) next.set_out_edges(scout);
    } else {
      // Parallel push: per-chunk thread-local buffers of claimed vertices
      // spliced under a mutex, per-thread edge/scout counters merged once
      // per chunk (no shared ++ on hot paths).
      std::mutex splice_mu;
      std::atomic<std::uint64_t> edges{0}, scout{0};
      std::function<void(std::uint64_t, std::uint64_t)> body =
          [&](std::uint64_t b, std::uint64_t e) {
            std::vector<vid_t> local;
            std::uint64_t local_edges = 0, local_scout = 0;
            for (std::uint64_t idx = b; idx < e; ++idx) {
              const vid_t u = items[idx];
              const eid_t ab = fwd.offsets[u], ae = fwd.offsets[u + 1];
              local_edges += ae - ab;
              for (eid_t i = ab; i < ae; ++i) {
                const vid_t v = fwd.targets[i];
                if constexpr (detail::HasPrefetchTarget<Fn>) {
                  if (i + kPD < ae) f.prefetch_target(fwd.targets[i + kPD]);
                }
                if (!f.cond(v)) continue;
                if (f.update_atomic(u, v, fwd.weight(i)) &&
                    next.claim_atomic(v)) {
                  local.push_back(v);
                  if (track_scout) local_scout += fwd.degree(v);
                }
              }
            }
            edges.fetch_add(local_edges, std::memory_order_relaxed);
            scout.fetch_add(local_scout, std::memory_order_relaxed);
            if (!local.empty()) {
              std::lock_guard<std::mutex> lk(splice_mu);
              next.append_batch(local);
            }
          };
      core::ThreadPool::global().parallel_for(0, items.size(), opts.grain,
                                              body);
      st.edges_traversed = edges.load();
      if (track_scout) next.set_out_edges(scout.load());
    }
  } else {
    // Pull: scan every still-active vertex and probe its reverse arcs for
    // frontier members; break as soon as cond(v) is satisfied-away. The
    // frontier-bitmap probes are the random access here — prefetch them a
    // few arcs ahead of the cursor.
    next.make_dense();
    detail::Adj rev = detail::Adj::make(g, /*use_in=*/true);
    const bool whole = frontier.complete();
    if (!run_parallel) {
      std::uint64_t edges = 0, touched = 0, scout = 0;
      for (vid_t v = 0; v < n; ++v) {
        if (!f.cond(v)) continue;
        ++touched;
        const eid_t ab = rev.offsets[v], ae = rev.offsets[v + 1];
        for (eid_t i = ab; i < ae; ++i) {
          const vid_t u = rev.targets[i];
          if (!whole && i + kPD < ae) {
            frontier.prefetch_contains(rev.targets[i + kPD]);
          }
          ++edges;
          if (!whole && !frontier.contains(u)) continue;
          if (f.update(u, v, rev.weight(i)) && next.add(v) && track_scout) {
            scout += fwd.degree(v);
          }
          if (!f.cond(v)) break;
        }
      }
      st.edges_traversed = edges;
      st.vertices_touched = touched;
      if (track_scout) next.set_out_edges(scout);
    } else {
      // Edge-balanced chunks: power-law in-degree skew makes equal vertex
      // ranges wildly unequal work, so cut by arc count instead.
      const unsigned nchunks =
          std::max(1u, core::ThreadPool::global().num_threads() * 8);
      const std::vector<vid_t> bounds =
          detail::edge_balanced_bounds(rev.offsets, n, nchunks);
      std::atomic<std::uint64_t> edges{0}, touched{0}, added{0}, scout{0};
      std::function<void(std::uint64_t, std::uint64_t)> body =
          [&](std::uint64_t cb, std::uint64_t ce) {
            std::uint64_t local_edges = 0, local_touched = 0;
            std::uint64_t local_added = 0, local_scout = 0;
            for (std::uint64_t c = cb; c < ce; ++c) {
              for (vid_t v = bounds[c]; v < bounds[c + 1]; ++v) {
                if (!f.cond(v)) continue;
                ++local_touched;
                const eid_t ab = rev.offsets[v], ae = rev.offsets[v + 1];
                for (eid_t i = ab; i < ae; ++i) {
                  const vid_t u = rev.targets[i];
                  if (!whole && i + kPD < ae) {
                    frontier.prefetch_contains(rev.targets[i + kPD]);
                  }
                  ++local_edges;
                  if (!whole && !frontier.contains(u)) continue;
                  if (f.update(u, v, rev.weight(i)) && next.claim_atomic(v)) {
                    ++local_added;
                    if (track_scout) local_scout += fwd.degree(v);
                  }
                  if (!f.cond(v)) break;
                }
              }
            }
            edges.fetch_add(local_edges, std::memory_order_relaxed);
            touched.fetch_add(local_touched, std::memory_order_relaxed);
            added.fetch_add(local_added, std::memory_order_relaxed);
            scout.fetch_add(local_scout, std::memory_order_relaxed);
          };
      core::ThreadPool::global().parallel_for(
          0, bounds.size() - 1, /*grain=*/1, body);
      st.edges_traversed = edges.load();
      st.vertices_touched = touched.load();
      next.bump_count(added.load());
      if (track_scout) next.set_out_edges(scout.load());
    }
  }

  // Representation switching and scout counts only pay off when the next
  // step's direction heuristic reads them; under a forced direction the
  // dense/sparse round-trip (O(n) bitmap rescan on ensure_sparse) and the
  // per-discovery degree lookups are pure overhead.
  if (opts.direction == TraversalOptions::Dir::kAuto) {
    next.auto_switch(g.num_arcs());
  }
  st.bytes_moved =
      detail::model_bytes(st.vertices_touched, st.edges_traversed,
                          g.weighted());
  st.seconds = timer.seconds();
  if (telem) telem->record(st);
  obs_record_step(st);  // one relaxed load per super-step when disabled
}

/// Value-returning convenience over edge_map_into (allocates a fresh next
/// frontier each call; level-synchronous kernel loops should keep two
/// frontiers and swap instead).
template <typename F>
Frontier edge_map(const graph::CSRGraph& g, Frontier& frontier, F&& f,
                  const TraversalOptions& opts = {},
                  Telemetry* telem = nullptr) {
  Frontier next(g.num_vertices());
  edge_map_into(g, frontier, next, std::forward<F>(f), opts, telem);
  return next;
}

/// edge_map over the versioned store's GraphView — the engine's unified
/// read path. A flat view delegates to the CSR overload above (identical
/// hot path, full direction optimization). A delta-backed or tier-backed
/// view traverses the merged adjacency push-style: neither keeps an
/// in-adjacency, so pull is unavailable until the compactor flattens —
/// opts.direction is ignored rather than an error, because the same
/// kernel code must run on every view kind. One TieredGraph::Reader per
/// worker re-pins a tiered base only on segment cross, so the per-vertex
/// cost stays one bounds check, not one mutex.
template <typename F>
void edge_map_into(const store::GraphView& view, Frontier& frontier,
                   Frontier& next, F&& f, const TraversalOptions& opts = {},
                   Telemetry* telem = nullptr) {
  if (view.flat()) {
    edge_map_into(view.base(), frontier, next, std::forward<F>(f), opts,
                  telem);
    return;
  }
  const vid_t n = view.num_vertices();
  GA_CHECK(frontier.universe() == n, "edge_map: frontier/view mismatch");
  GA_CHECK(&frontier != &next, "edge_map: frontier and next must differ");
  next.reinit(n);
  core::WallTimer timer;

  const bool run_parallel =
      opts.parallel && core::ThreadPool::global().num_threads() > 1;
  StepStats st;
  st.direction = Direction::kPush;
  st.frontier_size = frontier.size();

  frontier.ensure_sparse();
  const auto& items = frontier.items();
  st.vertices_touched = items.size();
  if (!run_parallel) {
    std::uint64_t edges = 0;
    store::TieredGraph::Reader reader;
    for (vid_t u : items) {
      view.for_each_out(u, reader, [&](vid_t v, float w) {
        ++edges;
        if (f.cond(v) && f.update(u, v, w)) next.add(v);
      });
    }
    st.edges_traversed = edges;
  } else {
    std::mutex splice_mu;
    std::atomic<std::uint64_t> edges{0};
    std::function<void(std::uint64_t, std::uint64_t)> body =
        [&](std::uint64_t b, std::uint64_t e) {
          std::vector<vid_t> local;
          std::uint64_t local_edges = 0;
          store::TieredGraph::Reader reader;  // per-chunk = per-worker pin
          for (std::uint64_t idx = b; idx < e; ++idx) {
            const vid_t u = items[idx];
            view.for_each_out(u, reader, [&](vid_t v, float w) {
              ++local_edges;
              if (f.cond(v) && f.update_atomic(u, v, w) &&
                  next.claim_atomic(v)) {
                local.push_back(v);
              }
            });
          }
          edges.fetch_add(local_edges, std::memory_order_relaxed);
          if (!local.empty()) {
            std::lock_guard<std::mutex> lk(splice_mu);
            next.append_batch(local);
          }
        };
    core::ThreadPool::global().parallel_for(0, items.size(), opts.grain, body);
    st.edges_traversed = edges.load();
  }

  next.auto_switch();
  st.bytes_moved = detail::model_bytes(st.vertices_touched,
                                       st.edges_traversed, view.weighted());
  st.seconds = timer.seconds();
  if (telem) telem->record(st);
  obs_record_step(st);
}

template <typename F>
Frontier edge_map(const store::GraphView& view, Frontier& frontier, F&& f,
                  const TraversalOptions& opts = {},
                  Telemetry* telem = nullptr) {
  Frontier next(view.num_vertices());
  edge_map_into(view, frontier, next, std::forward<F>(f), opts, telem);
  return next;
}

/// Apply fn(v) to every frontier member. Parallel over the sparse list
/// when requested and worker threads exist; fn must then be safe for
/// concurrent calls on distinct vertices.
template <typename Fn>
void vertex_map(Frontier& frontier, Fn&& fn, bool parallel = false,
                Telemetry* telem = nullptr) {
  core::WallTimer timer;
  const bool run_parallel =
      parallel && core::ThreadPool::global().num_threads() > 1;
  if (!run_parallel) {
    frontier.for_each(fn);
  } else {
    frontier.ensure_sparse();
    const auto& items = frontier.items();
    std::function<void(std::uint64_t, std::uint64_t)> body =
        [&](std::uint64_t b, std::uint64_t e) {
          for (std::uint64_t i = b; i < e; ++i) fn(items[i]);
        };
    core::ThreadPool::global().parallel_for(0, items.size(), 256, body);
  }
  if (telem || obs::enabled()) {
    StepStats st;
    st.direction = Direction::kPush;
    st.frontier_size = frontier.size();
    st.vertices_touched = frontier.size();
    st.bytes_moved = detail::model_bytes(frontier.size(), 0, false);
    st.seconds = timer.seconds();
    if (telem) telem->record(st);
    obs_record_step(st);
  }
}

/// Record one dense whole-graph pass of a kernel loop that runs outside
/// edge_map (WCC hooking, a PageRank sweep): every vertex examined,
/// `arcs` arcs read.
inline void record_dense_pass(Telemetry& telem, Direction dir, vid_t n,
                              std::uint64_t arcs, bool weighted,
                              double seconds) {
  StepStats st;
  st.direction = dir;
  st.frontier_size = n;
  st.vertices_touched = n;
  st.edges_traversed = arcs;
  st.bytes_moved = detail::model_bytes(n, arcs, weighted);
  st.seconds = seconds;
  telem.record(st);
  obs_record_step(st);
}

/// Build a frontier of every vertex in [0, n) satisfying pred.
template <typename Pred>
Frontier vertex_filter(vid_t n, Pred&& pred) {
  Frontier out(n);
  for (vid_t v = 0; v < n; ++v) {
    if (pred(v)) out.add(v);
  }
  out.auto_switch();
  return out;
}

}  // namespace ga::engine
