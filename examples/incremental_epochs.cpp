// Incremental-epochs walkthrough: publish delta-summary-carrying epochs
// from the versioned store and watch the serving layer pick the cheapest
// tier per query — footprint-aware cache carry, warm refinement of the
// previous epoch's result, or batch recompute — plus the typed kernel-level
// update API underneath it all.
#include <cstdio>

#include "graph/builder.hpp"
#include "kernels/incremental.hpp"
#include "kernels/pagerank.hpp"
#include "server/server.hpp"
#include "store/versioned_store.hpp"

using namespace ga;

int main() {
  // 1. Two disjoint path components in a 14-vertex universe — small
  //    enough to reason about exactly which queries a delta can touch.
  std::vector<graph::Edge> es = {{0, 1}, {1, 2}, {2, 3},
                                 {10, 11}, {11, 12}, {12, 13}};
  store::VersionedGraphStore store(graph::build_undirected(std::move(es), 14));
  server::AnalyticsServer serving;
  serving.publish(store.view());  // store views carry their DeltaSummary

  // 2. Cache a BFS rooted in the first component. Its result footprint is
  //    the reached set {0,1,2,3}: the answer can only change if an epoch
  //    touches one of those vertices.
  server::QueryDesc bfs;
  bfs.kind = server::QueryKind::kBfs;
  bfs.seed = 0;
  const auto cold = serving.execute_now(bfs);
  std::printf("bfs(0) cold: reached %llu, footprint %zu vertices\n",
              static_cast<unsigned long long>(cold.reached),
              cold.footprint.verts.size());

  // A cold WCC seeds the scheduler's warm state for step 4.
  server::QueryDesc wcc;
  wcc.kind = server::QueryKind::kWcc;
  wcc.use_cache = false;
  serving.execute_now(wcc);

  // 3. An epoch that only touches the OTHER component. The publish hands
  //    the delta summary to the result cache, which carries the BFS entry
  //    across the epoch instead of wiping it.
  store::DeltaBatch far_away;
  far_away.insert_edge(10, 13);
  store.apply(far_away);
  serving.publish(store.view());
  const auto carried = serving.execute_now(bfs);
  std::printf("bfs(0) after disjoint epoch: %s\n",
              carried.cache_hit ? "cache HIT (carried)" : "miss");

  // 4. WCC across the same epoch: a global-footprint query cannot be
  //    carried past a structural change, but the scheduler refines the
  //    previous epoch's labels by hooking the inserted arcs into them —
  //    O(n + delta) instead of a hooking pass over every arc.
  const auto warm = serving.execute_now(wcc);
  std::printf("wcc after insert epoch: %u components, served %s\n",
              warm.num_components,
              warm.incremental ? "INCREMENTALLY (warm refinement)" : "batch");

  // 5. A delete epoch: union-find cannot un-merge, so the refinement
  //    falls back to batch on its own — the answer is always exact.
  store::DeltaBatch del;
  del.delete_edge(1, 2);
  store.apply(del);
  serving.publish(store.view());
  const auto split = serving.execute_now(wcc);
  std::printf("wcc after delete epoch: %u components, served %s\n",
              split.num_components, split.incremental ? "warm" : "BATCH (fallback)");

  // 6. The typed kernel API the serving tier is built on: refine any
  //    previous result against a view's delta summary directly.
  const store::GraphView v = store.view();
  kernels::PageRankResult pr = kernels::pagerank(v.csr());
  store::DeltaBatch grow;
  grow.insert_edge(3, 10);
  store.apply(grow);
  const store::GraphView v2 = store.view();
  kernels::IncrementalOutcome out;
  kernels::IncrementalOptions inc;
  inc.max_warm_iters = 100;  // give the warm sweep the same budget as batch
  pr = kernels::update_pagerank(pr, *v2.delta_summary(), v2, {}, inc, &out);
  std::printf("update_pagerank: incremental=%s fallback=%s iterations=%u\n",
              out.incremental ? "yes" : "no",
              kernels::incremental_fallback_name(out.fallback), out.iterations);

  // 7. The ledger: how many queries each tier served.
  const auto st = serving.scheduler().stats();
  const auto cs = serving.scheduler().cache().stats();
  std::printf("tiers: carried=%llu incremental=%llu fallbacks=%llu\n",
              static_cast<unsigned long long>(cs.carried),
              static_cast<unsigned long long>(st.incremental_served),
              static_cast<unsigned long long>(st.incremental_fallbacks));
  return 0;
}
