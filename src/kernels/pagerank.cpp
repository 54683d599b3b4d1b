#include "kernels/pagerank.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "core/thread_pool.hpp"
#include "core/timer.hpp"
#include "core/topk.hpp"
#include "engine/traversal.hpp"

namespace ga::kernels {

namespace {

/// The shared power loop (see the header for the read-path choice).
/// `restart_mass(v, dangling)` is the teleport + dangling mass landing on
/// v given the dangling total of the iteration.
template <typename RestartFn>
PageRankResult power_iterate(const store::GraphView& view,
                             const PageRankOptions& opts,
                             std::vector<double> rank,
                             RestartFn&& restart_mass) {
  const vid_t n = view.num_vertices();
  auto& pool = core::ThreadPool::global();

  // Undirected tiered views stream; their offsets are the merged degree
  // prefix sums, counted once (degrees do not change across iterations).
  const bool stream = view.tiered() && !view.directed();
  std::vector<eid_t> merged_offsets;
  const eid_t* out_off = nullptr;
  const eid_t* in_off = nullptr;
  const vid_t* in_tgt = nullptr;
  if (stream) {
    merged_offsets.assign(n + 1, 0);
    std::function<void(std::uint64_t, std::uint64_t)> count =
        [&](std::uint64_t b, std::uint64_t e) {
          store::TieredGraph::Reader reader;
          for (auto v = static_cast<vid_t>(b); v < e; ++v) {
            eid_t d = 0;
            view.for_each_out(v, reader, [&](vid_t, float) { ++d; });
            merged_offsets[v + 1] = d;
          }
        };
    pool.parallel_for(0, n, 1024, count);
    for (vid_t v = 0; v < n; ++v) merged_offsets[v + 1] += merged_offsets[v];
    out_off = in_off = merged_offsets.data();
  } else {
    const graph::CSRGraph& g = view.csr();
    g.ensure_transpose();  // no-op when undirected: in-arcs alias out-arcs
    out_off = g.offsets().data();
    in_off = g.in_offsets().data();
    in_tgt = g.in_targets().data();
  }

  std::vector<double> next(n, 0.0);
  std::vector<double> contrib(n, 0.0);  // rank[u]/outdeg[u], 0 for dangling
  const std::vector<vid_t> bounds = engine::detail::edge_balanced_bounds(
      in_off, n, std::max(1u, pool.num_threads() * 8));
  std::function<void(std::uint64_t, std::uint64_t)> pull =
      [&](std::uint64_t cb, std::uint64_t ce) {
        store::TieredGraph::Reader reader;  // one pin per worker chunk
        for (std::uint64_t c = cb; c < ce; ++c) {
          for (vid_t v = bounds[c]; v < bounds[c + 1]; ++v) {
            double sum = 0.0;
            if (stream) {
              view.for_each_out(v, reader,
                                [&](vid_t u, float) { sum += contrib[u]; });
            } else {
              for (eid_t i = in_off[v]; i < in_off[v + 1]; ++i) {
                sum += contrib[in_tgt[i]];
              }
            }
            next[v] = sum;
          }
        }
      };

  PageRankResult r;
  engine::Telemetry telem;
  for (unsigned iter = 1; iter <= opts.max_iters; ++iter) {
    core::WallTimer timer;
    // Dangling vertices spread their mass via the restart distribution.
    double dangling = 0.0;
    for (vid_t u = 0; u < n; ++u) {
      const eid_t d = out_off[u + 1] - out_off[u];
      if (d == 0) {
        dangling += rank[u];
        contrib[u] = 0.0;
      } else {
        contrib[u] = rank[u] / static_cast<double>(d);
      }
    }

    pool.parallel_for(0, bounds.size() - 1, /*grain=*/1, pull);

    double delta = 0.0;
    for (vid_t v = 0; v < n; ++v) {
      next[v] = restart_mass(v, dangling) + opts.damping * next[v];
      delta += std::abs(next[v] - rank[v]);
    }
    rank.swap(next);
    engine::record_dense_pass(telem, engine::Direction::kPull, n,
                              view.num_arcs(), view.weighted(),
                              timer.seconds());
    r.iterations = iter;
    r.final_delta = delta;
    if (delta < opts.tolerance) {
      r.converged = true;
      break;
    }
  }
  r.rank = std::move(rank);
  r.steps = telem.steps();
  return r;
}

}  // namespace

PageRankResult pagerank(const store::GraphView& view,
                        const PageRankOptions& opts) {
  const vid_t n = view.num_vertices();
  if (n == 0) return {};
  return power_iterate(view, opts, std::vector<double>(n, 1.0 / n),
                       [&](vid_t, double dangling) {
                         return (1.0 - opts.damping) / n +
                                opts.damping * dangling / n;
                       });
}

PageRankResult pagerank(const CSRGraph& g, const PageRankOptions& opts) {
  return pagerank(store::GraphView::borrowed(g), opts);
}

PageRankResult pagerank_warm(const store::GraphView& view,
                             std::vector<double> rank,
                             const PageRankOptions& opts) {
  const vid_t n = view.num_vertices();
  if (n == 0) return {};
  GA_CHECK(rank.size() == n, "pagerank_warm: seed size mismatch");

  // Renormalize the seed: the caller's ranks may come from a slightly
  // different mass distribution (or accumulated float drift).
  double total = 0.0;
  for (const double x : rank) total += x;
  if (total > 0.0) {
    for (double& x : rank) x /= total;
  } else {
    std::fill(rank.begin(), rank.end(), 1.0 / n);
  }

  return power_iterate(view, opts, std::move(rank),
                       [&](vid_t, double dangling) {
                         return (1.0 - opts.damping) / n +
                                opts.damping * dangling / n;
                       });
}

PageRankResult personalized_pagerank(const store::GraphView& view,
                                     const std::vector<vid_t>& seeds,
                                     const PageRankOptions& opts) {
  GA_CHECK(!seeds.empty(), "personalized_pagerank: need >= 1 seed");
  const vid_t n = view.num_vertices();
  if (n == 0) return {};

  std::vector<double> restart(n, 0.0);
  for (vid_t s : seeds) {
    GA_CHECK(s < n, "personalized_pagerank: seed out of range");
    restart[s] += 1.0 / static_cast<double>(seeds.size());
  }

  return power_iterate(view, opts, restart, [&](vid_t v, double dangling) {
    // Dangling mass and teleportation both return to the seeds.
    return (1.0 - opts.damping + opts.damping * dangling) * restart[v];
  });
}

PageRankResult personalized_pagerank(const CSRGraph& g,
                                     const std::vector<vid_t>& seeds,
                                     const PageRankOptions& opts) {
  return personalized_pagerank(store::GraphView::borrowed(g), seeds, opts);
}

std::vector<std::pair<double, vid_t>> pagerank_topk(const PageRankResult& r,
                                                    std::size_t k) {
  core::TopK<vid_t, double> top(k);
  for (vid_t v = 0; v < r.rank.size(); ++v) top.offer(r.rank[v], v);
  return top.sorted_desc();
}

}  // namespace ga::kernels
