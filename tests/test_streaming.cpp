// Streaming-layer tests: incremental kernels vs batch recomputation over
// randomized update streams (the core correctness property of streaming
// analytics), plus the top-k tracker and stream generators.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/prng.hpp"
#include "graph/generators.hpp"
#include "kernels/connected_components.hpp"
#include "kernels/incremental.hpp"
#include "kernels/jaccard.hpp"
#include "kernels/kcore.hpp"
#include "kernels/pagerank.hpp"
#include "kernels/triangles.hpp"
#include "store/delta_summary.hpp"
#include "store/versioned_store.hpp"
#include "streaming/incremental_kcore.hpp"
#include "streaming/incremental_triangles.hpp"
#include "streaming/topk_tracker.hpp"
#include "streaming/update_stream.hpp"

namespace ga::streaming {
namespace {

TEST(UpdateStream, DeterministicAndWellFormed) {
  StreamOptions opts;
  opts.count = 2000;
  opts.delete_fraction = 0.2;
  opts.seed = 5;
  const auto a = generate_stream(256, opts);
  const auto b = generate_stream(256, opts);
  ASSERT_EQ(a.size(), 2000u);
  std::int64_t prev_ts = -1;
  std::size_t deletes = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].u, b[i].u);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_LT(a[i].u, 256u);
    EXPECT_GT(a[i].ts, prev_ts);
    prev_ts = a[i].ts;
    if (a[i].kind == UpdateKind::kEdgeInsert) {
      EXPECT_NE(a[i].u, a[i].v);
    }
    if (a[i].kind == UpdateKind::kEdgeDelete) ++deletes;
  }
  EXPECT_NEAR(static_cast<double>(deletes) / a.size(), 0.2, 0.05);
}

TEST(UpdateStream, DeletesReplayEarlierInserts) {
  StreamOptions opts;
  opts.count = 1000;
  opts.delete_fraction = 0.3;
  const auto stream = generate_stream(64, opts);
  graph::DynamicGraph g(64);
  for (const auto& u : stream) {
    if (u.kind == UpdateKind::kEdgeInsert) {
      g.insert_edge(u.u, u.v, u.value, u.ts);
    } else if (u.kind == UpdateKind::kEdgeDelete) {
      // Every delete must name a currently-present edge.
      EXPECT_TRUE(g.delete_edge(u.u, u.v)) << "dangling delete";
    }
  }
}

TEST(UpdateStream, QueryStreamIsAllQueries) {
  const auto qs = generate_query_stream(100, 500, 1);
  ASSERT_EQ(qs.size(), 500u);
  for (const auto& q : qs) {
    EXPECT_EQ(q.kind, UpdateKind::kVertexQuery);
    EXPECT_LT(q.u, 100u);
  }
}

class IncrementalVsBatch : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IncrementalVsBatch, TrianglesMatchRecountAfterEveryPhase) {
  graph::DynamicGraph g(96);
  IncrementalTriangles inc(g);
  StreamOptions opts;
  opts.count = 800;
  opts.delete_fraction = 0.25;
  opts.seed = GetParam();
  const auto stream = generate_stream(96, opts);
  std::size_t step = 0;
  for (const auto& u : stream) {
    if (u.kind == UpdateKind::kEdgeInsert) {
      inc.on_insert(u.u, u.v);
      g.insert_edge(u.u, u.v, u.value, u.ts);
    } else if (u.kind == UpdateKind::kEdgeDelete) {
      inc.on_delete(u.u, u.v);
      g.delete_edge(u.u, u.v);
    }
    if (++step % 200 == 0) {
      const auto snap = g.snapshot();
      ASSERT_EQ(inc.global_count(),
                kernels::triangle_count_node_iterator(snap))
          << "at step " << step;
      const auto per = kernels::triangle_counts_per_vertex(snap);
      for (vid_t v = 0; v < 96; ++v) {
        ASSERT_EQ(inc.local_count(v), per[v]) << "vertex " << v;
      }
    }
  }
}

TEST_P(IncrementalVsBatch, ComponentsMatchBatch) {
  graph::DynamicGraph g(128);
  kernels::StreamingComponents cc(g);
  StreamOptions opts;
  opts.count = 600;
  opts.delete_fraction = 0.15;
  opts.seed = GetParam() + 50;
  const auto stream = generate_stream(128, opts);
  for (const auto& u : stream) {
    if (u.kind == UpdateKind::kEdgeInsert) {
      g.insert_edge(u.u, u.v, u.value, u.ts);
      cc.on_insert(u.u, u.v);
    } else if (u.kind == UpdateKind::kEdgeDelete) {
      g.delete_edge(u.u, u.v);
      cc.on_delete(u.u, u.v);
    }
  }
  const auto batch = kernels::wcc_union_find(g.snapshot());
  EXPECT_EQ(cc.num_components(), batch.num_components);
  // Spot-check pair connectivity.
  for (vid_t v = 1; v < 128; v += 17) {
    EXPECT_EQ(cc.connected(0, v), batch.label[0] == batch.label[v]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalVsBatch, ::testing::Values(1, 2, 3));

TEST(StreamingComponents, InsertOnlyNeverRebuilds) {
  graph::DynamicGraph g(32);
  kernels::StreamingComponents cc(g);
  for (vid_t v = 1; v < 32; ++v) {
    g.insert_edge(0, v);
    cc.on_insert(0, v);
  }
  EXPECT_EQ(cc.num_components(), 1u);
  EXPECT_EQ(cc.rebuilds(), 0u);
  EXPECT_EQ(cc.component_size(5), 32u);
}

TEST(StreamingComponents, DeleteForcesLazyRebuild) {
  graph::DynamicGraph g(4);
  g.insert_edge(0, 1);
  g.insert_edge(2, 3);
  kernels::StreamingComponents cc(g);
  EXPECT_EQ(cc.num_components(), 2u);
  g.delete_edge(0, 1);
  cc.on_delete(0, 1);
  EXPECT_TRUE(cc.dirty());
  EXPECT_EQ(cc.num_components(), 3u);  // rebuild happened on query
  EXPECT_EQ(cc.rebuilds(), 1u);
  EXPECT_FALSE(cc.connected(0, 1));
}

TEST(IncrementalTriangles, InsertDeltaIsCommonNeighborCount) {
  graph::DynamicGraph g(5);
  g.insert_edge(0, 2);
  g.insert_edge(1, 2);
  g.insert_edge(0, 3);
  g.insert_edge(1, 3);
  IncrementalTriangles inc(g);
  EXPECT_EQ(inc.global_count(), 0u);
  EXPECT_EQ(inc.on_insert(0, 1), 2u);  // closes via 2 and via 3
  g.insert_edge(0, 1);
  EXPECT_EQ(inc.global_count(), 2u);
  EXPECT_EQ(inc.local_count(2), 1u);
  EXPECT_EQ(inc.local_count(0), 2u);
}

TEST(IncrementalTriangles, ReinsertIsNoop) {
  graph::DynamicGraph g(3);
  g.insert_edge(0, 1);
  IncrementalTriangles inc(g);
  EXPECT_EQ(inc.on_insert(0, 1), 0u);
}

TEST(IncrementalPageRank, TracksBatchAfterUpdates) {
  graph::DynamicGraph g(64);
  StreamOptions opts;
  opts.count = 400;
  opts.seed = 7;
  for (const auto& u : generate_stream(64, opts)) {
    if (u.kind == UpdateKind::kEdgeInsert) g.insert_edge(u.u, u.v);
  }
  store::VersionedGraphStore vstore(g.snapshot());
  const auto prev = kernels::pagerank(vstore.view());
  // Perturb and refresh warm from the previous ranks.
  store::DeltaBatch perturb;
  perturb.insert_edge(0, 63);
  perturb.insert_edge(1, 62);
  vstore.apply(perturb);
  const store::GraphView view = vstore.view();
  kernels::IncrementalOptions inc;
  inc.max_warm_iters = 100;  // a batch solve's budget: no fallback to batch
  kernels::IncrementalOutcome out;
  const auto warm = kernels::update_pagerank(prev, *view.delta_summary(),
                                             view, {}, inc, &out);
  EXPECT_TRUE(out.incremental);
  g.insert_edge(0, 63);
  g.insert_edge(1, 62);
  const auto batch = kernels::pagerank(g.snapshot());
  for (vid_t v = 0; v < 64; ++v) {
    EXPECT_NEAR(warm.rank[v], batch.rank[v], 1e-5);
  }
  // Warm restart should beat cold-start iteration count.
  EXPECT_LT(out.iterations, batch.iterations + 1);
}

TEST(StreamingJaccardQuery, MatchesBatchKernelOnSnapshot) {
  graph::DynamicGraph g(80);
  StreamOptions opts;
  opts.count = 600;
  opts.seed = 9;
  for (const auto& u : generate_stream(80, opts)) {
    if (u.kind == UpdateKind::kEdgeInsert) g.insert_edge(u.u, u.v);
  }
  const auto snap = g.snapshot();
  for (vid_t q = 0; q < 80; q += 13) {
    const auto live = kernels::jaccard_query(g, q);
    const auto batch = kernels::jaccard_query(snap, q);
    ASSERT_EQ(live.size(), batch.size()) << "query " << q;
    for (std::size_t i = 0; i < live.size(); ++i) {
      EXPECT_EQ(live[i].v, batch[i].v);
      EXPECT_NEAR(live[i].coefficient, batch[i].coefficient, 1e-12);
    }
  }
}

TEST(StreamingJaccardQuery, ThresholdCrossing) {
  graph::DynamicGraph g(6);
  // Make 0 and 1 near-twins.
  for (vid_t v : {2u, 3u, 4u}) {
    g.insert_edge(0, v);
    g.insert_edge(1, v);
  }
  EXPECT_TRUE(kernels::jaccard_insert_crosses_threshold(g, 0, 5, 0.9));
  const auto m = kernels::jaccard_max_partner(g, 0);
  EXPECT_EQ(m.v, 1u);
  EXPECT_DOUBLE_EQ(m.coefficient, 1.0);
}

TEST(IncrementalKCore, TracksBatchCoreMembershipThroughChurn) {
  graph::DynamicGraph g(64);
  IncrementalKCore tracker(g, 3);
  StreamOptions opts;
  opts.count = 700;
  opts.delete_fraction = 0.2;
  opts.seed = 21;
  const auto stream = generate_stream(64, opts);
  std::size_t step = 0;
  for (const auto& u : stream) {
    if (u.kind == UpdateKind::kEdgeInsert) {
      g.insert_edge(u.u, u.v, u.value, u.ts);
      tracker.on_insert(u.u, u.v);
    } else if (u.kind == UpdateKind::kEdgeDelete) {
      if (g.delete_edge(u.u, u.v)) tracker.on_delete(u.u, u.v);
    }
    if (++step % 175 == 0) {
      const auto members = kernels::kcore_members(g.snapshot(), 3);
      ASSERT_EQ(tracker.core_size(), members.size()) << "step " << step;
      for (vid_t m : members) ASSERT_TRUE(tracker.is_member(m));
    }
  }
}

TEST(IncrementalKCore, InsertOutsideCoreStaysClean) {
  graph::DynamicGraph g(10);
  IncrementalKCore tracker(g, 3);
  EXPECT_EQ(tracker.core_size(), 0u);  // settles the initial state
  // A single low-degree edge cannot create a 3-core.
  g.insert_edge(0, 1);
  tracker.on_insert(0, 1);
  EXPECT_EQ(tracker.core_size(), 0u);
  EXPECT_EQ(tracker.recomputes(), 1u);  // bounds proved nothing changed
}

TEST(IncrementalKCore, CliqueFormationFiresRecompute) {
  graph::DynamicGraph g(6);
  IncrementalKCore tracker(g, 3);
  EXPECT_EQ(tracker.core_size(), 0u);
  for (vid_t i = 0; i < 4; ++i) {
    for (vid_t j = i + 1; j < 4; ++j) {
      g.insert_edge(i, j);
      tracker.on_insert(i, j);
    }
  }
  EXPECT_EQ(tracker.core_size(), 4u);
  EXPECT_TRUE(tracker.is_member(0));
  EXPECT_FALSE(tracker.is_member(5));
  // Deleting a clique edge dissolves the 3-core.
  g.delete_edge(0, 1);
  tracker.on_delete(0, 1);
  EXPECT_EQ(tracker.core_size(), 0u);
}

TEST(TopKTracker, TracksMembershipChanges) {
  TopKTracker t(10, 3);
  // Raise 0,1,2 above the rest.
  EXPECT_FALSE(t.update(0, 5.0));  // already top (seeded by id), reorder only
  t.update(1, 4.0);
  t.update(2, 3.0);
  // Now 3 enters with a big score: membership change.
  EXPECT_TRUE(t.update(3, 10.0));
  const auto top = t.topk();
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].second, 3u);
  EXPECT_DOUBLE_EQ(top[0].first, 10.0);
  // Dropping 3 to the bottom changes membership again.
  EXPECT_TRUE(t.update(3, 0.1));
  EXPECT_GE(t.membership_changes(), 2u);
}

TEST(TopKTracker, MatchesBruteForceOverRandomUpdates) {
  core::Xoshiro256 rng(3);
  const vid_t n = 50;
  TopKTracker t(n, 5);
  std::vector<double> scores(n, 0.0);
  for (int i = 0; i < 2000; ++i) {
    const auto v = static_cast<vid_t>(rng.next_below(n));
    const double s = rng.next_double();
    t.update(v, s);
    scores[v] = s;
    if (i % 500 == 0) {
      auto sorted_idx = scores;
      std::sort(sorted_idx.rbegin(), sorted_idx.rend());
      const auto top = t.topk();
      ASSERT_EQ(top.size(), 5u);
      for (int k = 0; k < 5; ++k) {
        ASSERT_DOUBLE_EQ(top[k].first, sorted_idx[k]);
      }
    }
  }
}

}  // namespace
}  // namespace ga::streaming
