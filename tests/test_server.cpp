// Serving-layer tests: snapshot lifetime (deterministic + threaded churn,
// the TSan target), multi-source BFS parity, scheduler correctness per
// query kind, epoch-keyed cache behaviour, model-driven admission control,
// batching determinism, and the streaming/pipeline epoch-publication hooks.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "engine/multi_source.hpp"
#include "graph/dynamic_graph.hpp"
#include "graph/generators.hpp"
#include "kernels/bfs.hpp"
#include "kernels/connected_components.hpp"
#include "kernels/jaccard.hpp"
#include "kernels/pagerank.hpp"
#include "obs/trace.hpp"
#include "server/server.hpp"
#include "store/versioned_store.hpp"
#include "streaming/trigger.hpp"

namespace ga::server {
namespace {

graph::CSRGraph test_graph(std::uint64_t seed = 1) {
  graph::RmatParams p;
  p.scale = 8;
  p.edge_factor = 8;
  p.seed = seed;
  return graph::make_rmat(p);
}

store::CompactionPolicy no_compact() {
  store::CompactionPolicy p;
  p.auto_compact = false;
  return p;
}

/// Applies `count` inserts between consecutive vertices from `first` on,
/// leaving the store's view one delta layer deeper.
void apply_inserts(store::VersionedGraphStore& st, vid_t first, vid_t count) {
  store::DeltaBatch b;
  for (vid_t u = first; u < first + count; ++u) b.insert_edge(u, u + 1);
  st.apply(b);
}

/// Every scheduled query ends in exactly one outcome counter, and every
/// admitted one in exactly one execution outcome.
void expect_ledger_balances(const SchedulerStats& st) {
  EXPECT_EQ(st.submitted, st.cache_hits + st.rejected_cost +
                              st.rejected_overload + st.rejected_backlog +
                              st.no_snapshot + st.completed + st.failed +
                              st.deadline_misses);
  EXPECT_EQ(st.admitted, st.completed + st.failed + st.deadline_misses);
}

// ---------------------------------------------------------------------------
// SnapshotManager

TEST(Snapshot, EpochZeroMeansNothingPublished) {
  SnapshotManager mgr;
  EXPECT_EQ(mgr.current_epoch(), 0u);
  SnapshotRef ref = mgr.acquire();
  EXPECT_FALSE(static_cast<bool>(ref));
}

TEST(Snapshot, PublishAdvancesEpochAndAcquireSeesLatest) {
  SnapshotManager mgr;
  EXPECT_EQ(mgr.publish(graph::make_path(10)), 1u);
  EXPECT_EQ(mgr.publish(graph::make_path(20)), 2u);
  SnapshotRef ref = mgr.acquire();
  ASSERT_TRUE(static_cast<bool>(ref));
  EXPECT_EQ(ref.epoch(), 2u);
  EXPECT_EQ(ref.graph().num_vertices(), 20u);
}

TEST(Snapshot, OldSnapshotSurvivesUntilLastReaderReleases) {
  SnapshotManager mgr;
  mgr.publish(graph::make_path(10));
  SnapshotRef old_ref = mgr.acquire();
  mgr.publish(graph::make_path(20));
  // The old epoch is retired but must stay alive: the lease still reads it.
  EXPECT_EQ(old_ref.epoch(), 1u);
  EXPECT_EQ(old_ref.graph().num_vertices(), 10u);
  SnapshotManagerStats st = mgr.stats();
  EXPECT_EQ(st.retired_live, 1u);
  EXPECT_EQ(st.reclaimed, 0u);
  old_ref.release();
  st = mgr.stats();
  EXPECT_EQ(st.retired_live, 0u);
  EXPECT_EQ(st.reclaimed, 1u);
}

TEST(Snapshot, ManyEpochsPinnedByOneReaderEach) {
  SnapshotManager mgr;
  std::vector<SnapshotRef> refs;
  for (int i = 1; i <= 5; ++i) {
    mgr.publish(graph::make_path(10 * i));
    refs.push_back(mgr.acquire());
  }
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(refs[i].epoch(), static_cast<std::uint64_t>(i + 1));
    EXPECT_EQ(refs[i].graph().num_vertices(), 10u * (i + 1));
  }
  refs.clear();
  const SnapshotManagerStats st = mgr.stats();
  EXPECT_EQ(st.retired_live, 0u);
  EXPECT_EQ(st.reclaimed, 4u);  // epoch 5 is still current, not retired
}

TEST(Snapshot, EpochListenerFiresAfterEachPublish) {
  SnapshotManager mgr;
  std::vector<std::uint64_t> seen;
  mgr.set_epoch_listener(
      [&](std::uint64_t e, const store::GraphView&) { seen.push_back(e); });
  mgr.publish(graph::make_path(4));
  mgr.publish(graph::make_path(5));
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 2}));
}

// The TSan chaos target: writers advance epochs while readers hold and
// traverse old snapshots. Zero reports required; the deterministic
// assertions check the reclamation ledger balances afterwards.
TEST(Snapshot, ThreadedChurnReadersNeverSeeTornState) {
  SnapshotManager mgr;
  mgr.publish(test_graph(1));
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};

  std::thread writer([&] {
    for (int i = 2; i <= 24; ++i) {
      mgr.publish(graph::make_path(16 + i));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    stop.store(true, std::memory_order_release);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        SnapshotRef ref = mgr.acquire();
        if (!ref) continue;
        // Full traversal of the leased snapshot: every offset/target read
        // races with publishes unless immutability + reclamation hold.
        const graph::CSRGraph& g = ref.graph();
        std::uint64_t sum = 0;
        for (vid_t v = 0; v < g.num_vertices(); ++v) {
          for (vid_t w : g.out_neighbors(v)) sum += w;
        }
        ASSERT_EQ(ref.epoch(), ref->epoch());
        reads.fetch_add(1 + (sum == ~0ull), std::memory_order_relaxed);
      }
    });
  }
  writer.join();
  for (auto& r : readers) r.join();
  EXPECT_GT(reads.load(), 0u);
  const SnapshotManagerStats st = mgr.stats();
  EXPECT_EQ(st.published, 24u);
  EXPECT_EQ(st.retired_live, 0u);   // all leases drained
  EXPECT_EQ(st.reclaimed, 23u);     // everything but the current epoch
}

// ---------------------------------------------------------------------------
// Multi-source BFS

TEST(MultiSourceBfs, MatchesSerialBfsPerSeed) {
  const graph::CSRGraph g = test_graph(7);
  const std::vector<vid_t> seeds = {0, 1, 5, 17, 100, 0};  // dup allowed
  const auto ms = engine::multi_source_bfs(g, seeds);
  ASSERT_EQ(ms.num_seeds, seeds.size());
  for (std::size_t s = 0; s < seeds.size(); ++s) {
    const auto ref = kernels::bfs(g, seeds[s]);
    EXPECT_EQ(ms.reached[s], ref.reached) << "seed " << seeds[s];
    for (vid_t v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(ms.dist_of(v, s), ref.dist[v])
          << "seed " << seeds[s] << " vertex " << v;
    }
  }
}

TEST(MultiSourceBfs, SixtyFourSeedsOnePass) {
  const graph::CSRGraph g = test_graph(9);
  std::vector<vid_t> seeds;
  for (std::size_t s = 0; s < engine::kMaxMultiSourceSeeds; ++s) {
    seeds.push_back(static_cast<vid_t>((s * 37) % g.num_vertices()));
  }
  const auto ms = engine::multi_source_bfs(g, seeds);
  EXPECT_EQ(ms.num_seeds, 64u);
  // Spot-check three rows against the serial engine.
  for (const std::size_t s : {0ul, 31ul, 63ul}) {
    const auto ref = kernels::bfs(g, seeds[s]);
    EXPECT_EQ(ms.reached[s], ref.reached);
    for (vid_t v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(ms.dist_of(v, s), ref.dist[v]);
    }
  }
}

// ---------------------------------------------------------------------------
// Scheduler correctness per kind

class SchedulerKinds : public ::testing::Test {
 protected:
  void SetUp() override {
    g_ = test_graph(3);
    server_ = std::make_unique<AnalyticsServer>(opts());
    server_->publish(graph::CSRGraph(g_));  // explicit copy: tests keep g_
  }
  static SchedulerOptions opts() {
    SchedulerOptions o;
    o.workers = 2;
    return o;
  }
  graph::CSRGraph g_;
  std::unique_ptr<AnalyticsServer> server_;
};

TEST_F(SchedulerKinds, BfsMatchesDirectKernel) {
  QueryDesc q;
  q.kind = QueryKind::kBfs;
  q.seed = 3;
  const QueryResult r = server_->submit(q).get();
  ASSERT_TRUE(r.ok()) << query_status_name(r.status);
  const auto ref = kernels::bfs(g_, 3);
  EXPECT_EQ(r.dist, ref.dist);
  EXPECT_EQ(r.reached, ref.reached);
  EXPECT_EQ(r.epoch, 1u);
}

TEST_F(SchedulerKinds, PageRankTopKMatchesDirectKernel) {
  QueryDesc q;
  q.kind = QueryKind::kPageRankTopK;
  q.k = 5;
  const QueryResult r = server_->submit(q).get();
  ASSERT_TRUE(r.ok()) << query_status_name(r.status);
  kernels::PageRankOptions po;
  po.tolerance = 1e-6;
  po.max_iters = 50;
  const auto ref = kernels::pagerank_topk(kernels::pagerank(g_, po), 5);
  ASSERT_EQ(r.topk.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(r.topk[i].second, ref[i].second);
    EXPECT_DOUBLE_EQ(r.topk[i].first, ref[i].first);
  }
}

TEST_F(SchedulerKinds, JaccardNeighborsMatchesDirectKernel) {
  QueryDesc q;
  q.kind = QueryKind::kJaccardNeighbors;
  q.seed = 2;
  q.k = 8;
  q.threshold = 0.05;
  const QueryResult r = server_->submit(q).get();
  ASSERT_TRUE(r.ok()) << query_status_name(r.status);
  auto ref = kernels::jaccard_query(g_, 2, 0.05);
  if (ref.size() > 8) ref.resize(8);
  ASSERT_EQ(r.neighbors.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(r.neighbors[i].v, ref[i].v);
    EXPECT_DOUBLE_EQ(r.neighbors[i].coefficient, ref[i].coefficient);
  }
}

TEST_F(SchedulerKinds, WccMatchesDirectKernel) {
  QueryDesc q;
  q.kind = QueryKind::kWcc;
  const QueryResult r = server_->submit(q).get();
  ASSERT_TRUE(r.ok()) << query_status_name(r.status);
  const auto ref = kernels::wcc_label_propagation(g_);
  EXPECT_EQ(r.num_components, ref.num_components);
  EXPECT_EQ(r.largest_component, ref.largest_size);
}

TEST_F(SchedulerKinds, SubgraphExtractMatchesKhop) {
  QueryDesc q;
  q.kind = QueryKind::kSubgraphExtract;
  q.seed = 11;
  q.depth = 2;
  const QueryResult r = server_->submit(q).get();
  ASSERT_TRUE(r.ok()) << query_status_name(r.status);
  const auto ref = kernels::khop_neighborhood(g_, {11}, 2);
  EXPECT_EQ(r.members, ref);
  EXPECT_GT(r.subgraph_arcs, 0u);
}

// The served arc count's former body: one binary search over the sorted
// members per arc of every member.
eid_t subgraph_arcs_by_search(const graph::CSRGraph& g,
                              const std::vector<vid_t>& members) {
  eid_t arcs = 0;
  for (const vid_t u : members) {
    for (const vid_t w : g.out_neighbors(u)) {
      arcs += std::binary_search(members.begin(), members.end(), w);
    }
  }
  return arcs;
}

TEST_F(SchedulerKinds, SubgraphExtractArcsMatchBinarySearchCount) {
  for (vid_t seed = 0; seed < g_.num_vertices(); seed += 17) {
    for (const std::uint32_t depth : {0u, 1u, 2u, 3u}) {
      QueryDesc q;
      q.kind = QueryKind::kSubgraphExtract;
      q.seed = seed;
      q.depth = depth;
      const QueryResult r = server_->submit(q).get();
      ASSERT_TRUE(r.ok()) << query_status_name(r.status);
      const auto members = kernels::khop_neighborhood(g_, {seed}, depth);
      EXPECT_EQ(r.members, members) << "seed " << seed << " depth " << depth;
      EXPECT_EQ(r.subgraph_arcs, subgraph_arcs_by_search(g_, members))
          << "seed " << seed << " depth " << depth;
    }
  }
}

TEST_F(SchedulerKinds, OutOfRangeSeedFailsCleanly) {
  QueryDesc q;
  q.kind = QueryKind::kBfs;
  q.seed = g_.num_vertices() + 10;
  const QueryResult r = server_->submit(q).get();
  EXPECT_EQ(r.status, QueryStatus::kFailed);
  EXPECT_FALSE(r.error.empty());
}

TEST(Scheduler, NoSnapshotRejectsImmediately) {
  SnapshotManager mgr;
  QueryScheduler sched(mgr);
  QueryDesc q;
  const QueryResult r = sched.submit(q).get();
  EXPECT_EQ(r.status, QueryStatus::kNoSnapshot);
}

// ---------------------------------------------------------------------------
// Result cache

TEST(ResultCacheTest, SecondIdenticalQueryIsAHit) {
  AnalyticsServer server;
  server.publish(test_graph(5));
  QueryDesc q;
  q.kind = QueryKind::kBfs;
  q.seed = 4;
  const QueryResult cold = server.submit(q).get();
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold.cache_hit);
  const QueryResult warm = server.submit(q).get();
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.dist, cold.dist);
  EXPECT_EQ(warm.reached, cold.reached);
  EXPECT_EQ(server.scheduler().stats().cache_hits, 1u);
}

TEST(ResultCacheTest, EpochAdvanceInvalidates) {
  AnalyticsServer server;
  server.publish(test_graph(5));
  QueryDesc q;
  q.kind = QueryKind::kBfs;
  q.seed = 4;
  ASSERT_TRUE(server.submit(q).get().ok());
  server.publish(test_graph(6));  // different graph, new epoch
  const QueryResult r = server.submit(q).get();
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.cache_hit);  // old entry keyed to epoch 1 is unreachable
  EXPECT_EQ(r.epoch, 2u);
  EXPECT_GT(server.scheduler().cache().stats().invalidations, 0u);
}

TEST(ResultCacheTest, UseCacheFalseBypasses) {
  AnalyticsServer server;
  server.publish(test_graph(5));
  QueryDesc q;
  q.kind = QueryKind::kWcc;
  q.use_cache = false;
  ASSERT_TRUE(server.submit(q).get().ok());
  const QueryResult r = server.submit(q).get();
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.cache_hit);
  EXPECT_EQ(server.scheduler().cache().stats().insertions, 0u);
}

TEST(ResultCacheTest, LruEvictsOldestWithinShard) {
  ResultCache cache(/*capacity=*/2, /*shards=*/1);
  auto mk = [](vid_t seed, std::uint64_t epoch) {
    QueryDesc d;
    d.seed = seed;
    return QueryKey::of(d, epoch);
  };
  auto val = std::make_shared<const QueryResult>();
  cache.insert(mk(1, 1), val);
  cache.insert(mk(2, 1), val);
  cache.insert(mk(3, 1), val);  // evicts seed=1
  EXPECT_EQ(cache.lookup(mk(1, 1)), nullptr);
  EXPECT_NE(cache.lookup(mk(2, 1)), nullptr);
  EXPECT_NE(cache.lookup(mk(3, 1)), nullptr);
  const CacheStats st = cache.stats();
  EXPECT_EQ(st.evictions, 1u);
  EXPECT_EQ(st.entries, 2u);
}

TEST(ResultCacheTest, QueryKeySeparatesKindsAndEpochs) {
  QueryDesc a;
  a.kind = QueryKind::kBfs;
  a.seed = 7;
  QueryDesc b = a;
  b.kind = QueryKind::kSubgraphExtract;
  EXPECT_FALSE(QueryKey::of(a, 1) == QueryKey::of(b, 1));
  EXPECT_FALSE(QueryKey::of(a, 1) == QueryKey::of(a, 2));
  EXPECT_TRUE(QueryKey::of(a, 3) == QueryKey::of(a, 3));
}

// ---------------------------------------------------------------------------
// Admission control

TEST(Admission, PredictedCostBeyondDeadlineIsRejected) {
  AnalyticsServer server;
  server.publish(test_graph(2));
  QueryDesc q;
  q.kind = QueryKind::kPageRankTopK;  // the most expensive kind
  q.deadline_ms = 1e-7;               // impossible budget
  const QueryResult r = server.submit(q).get();
  EXPECT_EQ(r.status, QueryStatus::kRejectedCost);
  EXPECT_GT(r.predicted_ms, q.deadline_ms);
  EXPECT_EQ(server.scheduler().stats().rejected_cost, 1u);
  // Rejection is backpressure, not a stall: nothing was queued or executed.
  EXPECT_EQ(server.scheduler().stats().completed, 0u);
}

TEST(Admission, QueuedLoadTriggersOverloadRejection) {
  SnapshotManager mgr;
  mgr.publish(test_graph(2));
  SchedulerOptions o;
  o.workers = 1;
  o.start_paused = true;  // queued cost accumulates deterministically
  QueryScheduler sched(mgr, o);
  std::vector<std::future<QueryResult>> futs;
  for (int i = 0; i < 6; ++i) {
    QueryDesc q;
    q.kind = QueryKind::kWcc;
    q.use_cache = false;
    futs.push_back(sched.submit(q));  // no deadline: always admitted
  }
  // Deadline slightly above this query's own predicted cost: execution
  // alone fits, execution behind the queued work does not.
  SnapshotRef snap = mgr.acquire();
  QueryDesc probe;
  probe.kind = QueryKind::kBfs;
  probe.use_cache = false;
  const CostEstimate est = sched.cost_model().predict(
      probe, snap.graph().num_vertices(), snap.graph().num_arcs());
  snap.release();
  probe.deadline_ms = est.ms * 1.05;
  const QueryResult r = sched.submit(probe).get();
  EXPECT_EQ(r.status, QueryStatus::kRejectedOverload);
  EXPECT_EQ(sched.stats().rejected_overload, 1u);
  sched.resume();
  for (auto& f : futs) EXPECT_TRUE(f.get().ok());
}

TEST(Admission, BacklogCapRejects) {
  SnapshotManager mgr;
  mgr.publish(test_graph(2));
  SchedulerOptions o;
  o.workers = 1;
  o.max_queue_per_class = 2;
  o.start_paused = true;
  QueryScheduler sched(mgr, o);
  std::vector<std::future<QueryResult>> futs;
  for (vid_t i = 0; i < 2; ++i) {
    QueryDesc q;
    q.kind = QueryKind::kWcc;
    q.use_cache = false;
    futs.push_back(sched.submit(q));
  }
  QueryDesc q;
  q.kind = QueryKind::kWcc;
  q.use_cache = false;
  const QueryResult r = sched.submit(q).get();
  EXPECT_EQ(r.status, QueryStatus::kRejectedBacklog);
  sched.resume();
  for (auto& f : futs) EXPECT_TRUE(f.get().ok());
}

TEST(Admission, ExpiredBudgetWhileQueuedIsDeadlineMiss) {
  SnapshotManager mgr;
  mgr.publish(graph::make_path(64));  // tiny graph: admission passes
  SchedulerOptions o;
  o.workers = 1;
  o.start_paused = true;
  QueryScheduler sched(mgr, o);
  QueryDesc q;
  q.kind = QueryKind::kBfs;
  q.seed = 0;
  q.deadline_ms = 5.0;
  auto fut = sched.submit(q);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  sched.resume();
  const QueryResult r = fut.get();
  EXPECT_EQ(r.status, QueryStatus::kDeadlineMiss);
  EXPECT_EQ(sched.stats().deadline_misses, 1u);
}

TEST(Admission, CalibrationConvergesToMeasuredRatio) {
  ServingCostModel model;
  // Pretend the machine is consistently 4x slower than the analytic model.
  for (int i = 0; i < 64; ++i) {
    model.observe(QueryKind::kBfs, /*raw_ms=*/1.0, /*measured_ms=*/4.0);
  }
  EXPECT_NEAR(model.calibration(QueryKind::kBfs), 4.0, 1e-6);
  QueryDesc q;
  q.kind = QueryKind::kBfs;
  const CostEstimate est = model.predict(q, 1000, 16000);
  EXPECT_NEAR(est.ms, est.raw_ms * 4.0, est.raw_ms * 1e-3);
}

TEST(Admission, PredictionScalesWithGraphSize) {
  ServingCostModel model;
  QueryDesc q;
  q.kind = QueryKind::kBfs;
  const double small = model.predict(q, 1u << 10, 1u << 14).raw_ms;
  const double big = model.predict(q, 1u << 20, 1u << 24).raw_ms;
  EXPECT_GT(big, small * 100);  // 1024x the data, ~linear kernels
}

// ---------------------------------------------------------------------------
// Batching

TEST(Batching, PausedQueueFusesBfsSeedsIntoOnePass) {
  SnapshotManager mgr;
  const graph::CSRGraph g = test_graph(4);
  mgr.publish(graph::CSRGraph(g));
  SchedulerOptions o;
  o.workers = 1;
  o.start_paused = true;
  QueryScheduler sched(mgr, o);
  std::vector<std::future<QueryResult>> futs;
  const std::vector<vid_t> seeds = {1, 2, 3, 4, 5, 6, 7, 8};
  for (const vid_t s : seeds) {
    QueryDesc q;
    q.kind = QueryKind::kBfs;
    q.seed = s;
    q.use_cache = false;
    futs.push_back(sched.submit(q));
  }
  sched.resume();
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const QueryResult r = futs[i].get();
    ASSERT_TRUE(r.ok()) << query_status_name(r.status);
    EXPECT_TRUE(r.batched);
    const auto ref = kernels::bfs(g, seeds[i]);
    EXPECT_EQ(r.dist, ref.dist) << "seed " << seeds[i];
    EXPECT_EQ(r.reached, ref.reached);
  }
  const SchedulerStats st = sched.stats();
  EXPECT_EQ(st.batches, 1u);
  EXPECT_EQ(st.batched_queries, seeds.size());
}

TEST(Batching, DisabledBatchingRunsEachQueryAlone) {
  SnapshotManager mgr;
  mgr.publish(test_graph(4));
  SchedulerOptions o;
  o.workers = 1;
  o.start_paused = true;
  o.enable_batching = false;
  QueryScheduler sched(mgr, o);
  std::vector<std::future<QueryResult>> futs;
  for (vid_t s = 1; s <= 4; ++s) {
    QueryDesc q;
    q.kind = QueryKind::kBfs;
    q.seed = s;
    q.use_cache = false;
    futs.push_back(sched.submit(q));
  }
  sched.resume();
  for (auto& f : futs) {
    const QueryResult r = f.get();
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r.batched);
  }
  EXPECT_EQ(sched.stats().batches, 0u);
}

// The fused pass reads a flat CSR. On a chained view every seed runs alone,
// so none of them may be reported (or counted) as fused.
TEST(Batching, ChainedViewRunsEachSeedAlone) {
  store::VersionedGraphStore st(test_graph(4), no_compact());
  apply_inserts(st, 0, 8);
  const store::GraphView view = st.view();
  ASSERT_FALSE(view.flat());
  SnapshotManager mgr;
  mgr.publish(view);
  SchedulerOptions o;
  o.workers = 1;
  o.start_paused = true;
  QueryScheduler sched(mgr, o);
  std::vector<std::future<QueryResult>> futs;
  const std::vector<vid_t> seeds = {1, 2, 3, 4, 5, 6, 7, 8};
  for (const vid_t s : seeds) {
    QueryDesc q;
    q.kind = QueryKind::kBfs;
    q.seed = s;
    q.use_cache = false;
    futs.push_back(sched.submit(q));
  }
  sched.resume();
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const QueryResult r = futs[i].get();
    ASSERT_TRUE(r.ok()) << query_status_name(r.status);
    EXPECT_FALSE(r.batched);
    EXPECT_EQ(r.dist, kernels::bfs(view, seeds[i]).dist) << "seed " << seeds[i];
  }
  EXPECT_EQ(sched.stats().batches, 0u);
}

// ---------------------------------------------------------------------------
// One query path: both entry points share admission, execution and accounting

TEST(SchedulerLedger, BalancesOnFlatSnapshot) {
  SnapshotManager mgr;
  SchedulerOptions o;
  o.workers = 1;
  o.max_queue_per_class = 6;
  o.start_paused = true;
  QueryScheduler sched(mgr, o);
  QueryDesc bfs;
  bfs.kind = QueryKind::kBfs;
  EXPECT_EQ(sched.submit(bfs).get().status, QueryStatus::kNoSnapshot);
  EXPECT_EQ(sched.execute_now(bfs).status, QueryStatus::kNoSnapshot);
  mgr.publish(test_graph(4));

  // Six queued queries fill the standard class: four BFS seeds for one
  // fused pass, a BFS whose budget expires while paused, and a WCC.
  std::vector<std::future<QueryResult>> futs;
  for (vid_t s = 1; s <= 4; ++s) {
    bfs.seed = s;
    futs.push_back(sched.submit(bfs));
  }
  QueryDesc late = bfs;
  late.seed = 9;
  late.deadline_ms = 5.0;
  futs.push_back(sched.submit(late));
  QueryDesc wcc;
  wcc.kind = QueryKind::kWcc;
  futs.push_back(sched.submit(wcc));
  EXPECT_EQ(sched.submit(wcc).get().status, QueryStatus::kRejectedBacklog);
  QueryDesc pr;
  pr.kind = QueryKind::kPageRankTopK;
  pr.klass = QueryClass::kInteractive;
  pr.deadline_ms = 1e-7;
  EXPECT_EQ(sched.submit(pr).get().status, QueryStatus::kRejectedCost);
  EXPECT_EQ(sched.execute_now(pr).status, QueryStatus::kRejectedCost);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  sched.resume();
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const QueryResult r = futs[i].get();
    if (i < 4) {
      ASSERT_TRUE(r.ok()) << query_status_name(r.status);
      EXPECT_TRUE(r.batched);
    } else if (i == 4) {
      EXPECT_EQ(r.status, QueryStatus::kDeadlineMiss);
    } else {
      EXPECT_TRUE(r.ok()) << query_status_name(r.status);
    }
  }
  sched.drain();

  bfs.seed = 1;
  EXPECT_TRUE(sched.submit(bfs).get().cache_hit);
  EXPECT_TRUE(sched.execute_now(bfs).cache_hit);
  EXPECT_TRUE(sched.execute_now(wcc).cache_hit);
  QueryDesc bad = bfs;
  bad.seed = 100000;
  EXPECT_EQ(sched.submit(bad).get().status, QueryStatus::kFailed);
  EXPECT_EQ(sched.execute_now(bad).status, QueryStatus::kFailed);
  QueryDesc jac;
  jac.kind = QueryKind::kJaccardNeighbors;
  jac.seed = 2;
  EXPECT_TRUE(sched.execute_now(jac).ok());
  sched.drain();

  const SchedulerStats st = sched.stats();
  EXPECT_EQ(st.submitted, 17u);
  EXPECT_EQ(st.no_snapshot, 2u);
  EXPECT_EQ(st.rejected_backlog, 1u);
  EXPECT_EQ(st.rejected_cost, 2u);
  EXPECT_EQ(st.deadline_misses, 1u);
  EXPECT_EQ(st.cache_hits, 3u);
  EXPECT_EQ(st.failed, 2u);
  EXPECT_EQ(st.completed, 6u);
  EXPECT_EQ(st.batches, 1u);
  EXPECT_EQ(st.batched_queries, 4u);
  expect_ledger_balances(st);
}

TEST(SchedulerLedger, BalancesOnChainedSnapshotWithWarmTiers) {
  store::VersionedGraphStore store(test_graph(4), no_compact());
  apply_inserts(store, 0, 8);
  SnapshotManager mgr;
  mgr.publish(store.view());
  ASSERT_FALSE(store.view().flat());
  SchedulerOptions o;
  o.workers = 1;
  o.start_paused = true;
  QueryScheduler sched(mgr, o);

  // Eight queued BFS seeds on a chained view, plus cold PageRank and WCC
  // runs that leave warm results for the next epochs.
  std::vector<std::future<QueryResult>> futs;
  for (vid_t s = 1; s <= 8; ++s) {
    QueryDesc q;
    q.kind = QueryKind::kBfs;
    q.seed = s;
    futs.push_back(sched.submit(q));
  }
  QueryDesc pr;
  pr.kind = QueryKind::kPageRankTopK;
  QueryDesc wcc;
  wcc.kind = QueryKind::kWcc;
  futs.push_back(sched.submit(pr));
  futs.push_back(sched.submit(wcc));
  sched.resume();
  for (auto& f : futs) EXPECT_TRUE(f.get().ok());
  sched.drain();

  // Two insert-only epochs: one served through each entry point, then
  // cache hits through both.
  apply_inserts(store, 20, 4);
  mgr.publish(store.view());
  EXPECT_TRUE(sched.submit(pr).get().ok());
  EXPECT_TRUE(sched.submit(wcc).get().ok());
  apply_inserts(store, 40, 4);
  mgr.publish(store.view());
  EXPECT_TRUE(sched.execute_now(pr).ok());
  EXPECT_TRUE(sched.execute_now(wcc).ok());
  EXPECT_TRUE(sched.submit(pr).get().cache_hit);
  EXPECT_TRUE(sched.execute_now(wcc).cache_hit);
  sched.drain();

  const SchedulerStats st = sched.stats();
  EXPECT_EQ(st.submitted, 16u);
  EXPECT_EQ(st.cache_hits, 2u);
  EXPECT_EQ(st.completed, 14u);
  EXPECT_GE(st.incremental_served + st.incremental_fallbacks, 1u);
  expect_ledger_balances(st);
}

QueryResult served_by(const store::GraphView& view, const QueryDesc& q,
                      bool sync) {
  AnalyticsServer server({.workers = 1});
  server.publish(view);
  return sync ? server.execute_now(q) : server.submit(q).get();
}

TEST(EntryPoints, SubmitAndExecuteNowGiveIdenticalPayloads) {
  const graph::CSRGraph g = test_graph(6);
  store::VersionedGraphStore chained(g, no_compact());
  apply_inserts(chained, 0, 16);
  store::CompactionPolicy tier_policy = no_compact();
  tier_policy.tiered = true;
  tier_policy.tier.budget_bytes = g.num_arcs();  // ~1/4 of the flat CSR
  store::VersionedGraphStore tiered(g, tier_policy);
  ASSERT_TRUE(tiered.view().tiered());
  ASSERT_FALSE(chained.view().flat());
  const std::pair<const char*, store::GraphView> views[] = {
      {"flat", store::GraphView::of(graph::CSRGraph(g))},
      {"chained", chained.view()},
      {"tiered", tiered.view()}};

  std::vector<QueryDesc> queries(kNumQueryKinds);
  for (std::size_t k = 0; k < kNumQueryKinds; ++k) {
    queries[k].kind = static_cast<QueryKind>(k);
    queries[k].seed = 3;
    queries[k].k = 8;
    queries[k].threshold = 0.05;
  }
  for (const auto& [name, view] : views) {
    for (const QueryDesc& q : queries) {
      SCOPED_TRACE(std::string(name) + " " + query_kind_name(q.kind));
      const QueryResult a = served_by(view, q, /*sync=*/false);
      const QueryResult b = served_by(view, q, /*sync=*/true);
      ASSERT_TRUE(a.ok()) << query_status_name(a.status);
      ASSERT_TRUE(b.ok()) << query_status_name(b.status);
      EXPECT_EQ(a.dist, b.dist);
      EXPECT_EQ(a.reached, b.reached);
      ASSERT_EQ(a.topk.size(), b.topk.size());
      for (std::size_t i = 0; i < a.topk.size(); ++i) {
        EXPECT_EQ(a.topk[i].second, b.topk[i].second);
        EXPECT_DOUBLE_EQ(a.topk[i].first, b.topk[i].first);
      }
      ASSERT_EQ(a.neighbors.size(), b.neighbors.size());
      for (std::size_t i = 0; i < a.neighbors.size(); ++i) {
        EXPECT_EQ(a.neighbors[i].v, b.neighbors[i].v);
        EXPECT_DOUBLE_EQ(a.neighbors[i].coefficient,
                         b.neighbors[i].coefficient);
      }
      EXPECT_EQ(a.num_components, b.num_components);
      EXPECT_EQ(a.largest_component, b.largest_component);
      EXPECT_EQ(a.members, b.members);
      EXPECT_EQ(a.subgraph_arcs, b.subgraph_arcs);
      EXPECT_EQ(a.footprint.global, b.footprint.global);
      EXPECT_EQ(a.footprint.verts, b.footprint.verts);
    }
  }
}

// ---------------------------------------------------------------------------
// Serving spans

/// Turns the global tracer on for one test and off again however the test
/// ends: the sanitizer stage runs the whole suite in one process.
struct TracerOn {
  TracerOn() { obs::Tracer::global().set_active(true); }
  ~TracerOn() { obs::Tracer::global().set_active(false); }
};

std::set<std::string> serve_span_names(std::uint64_t trace_id) {
  std::set<std::string> names;
  for (const obs::SpanRecord& s : obs::Tracer::global().spans_of(trace_id)) {
    if (s.name.rfind("serve.", 0) == 0) names.insert(s.name);
  }
  return names;
}

TEST(ServeTracing, UntracedQueriesRecordNoSpans) {
  SnapshotManager mgr;
  mgr.publish(test_graph(4));
  QueryScheduler sched(mgr, {.workers = 1});
  const TracerOn on;
  const obs::Tracer& tracer = obs::Tracer::global();
  const std::uint64_t traces0 = tracer.traces_started();
  const std::uint64_t spans0 = tracer.spans_recorded();
  QueryDesc q;
  q.kind = QueryKind::kBfs;
  q.seed = 3;
  ASSERT_TRUE(sched.submit(q).get().ok());
  EXPECT_EQ(tracer.traces_started(), traces0);
  EXPECT_EQ(tracer.spans_recorded(), spans0);
  ASSERT_TRUE(sched.execute_now(q).cache_hit);
  q.seed = 4;
  ASSERT_TRUE(sched.execute_now(q).ok());
  EXPECT_EQ(tracer.traces_started(), traces0);
  EXPECT_EQ(tracer.spans_recorded(), spans0);
}

TEST(ServeTracing, BothEntryPointsRecordTheSameSpansInTheCallersTrace) {
  SnapshotManager mgr;
  mgr.publish(test_graph(4));
  QueryScheduler sched(mgr, {.workers = 1});
  const TracerOn on;
  const obs::Tracer& tracer = obs::Tracer::global();
  for (const bool sync : {true, false}) {
    SCOPED_TRACE(sync ? "execute_now" : "submit");
    const std::uint64_t traces0 = tracer.traces_started();
    obs::ScopedSpan root("test.query", {});
    const std::uint64_t trace = root.context().trace_id;
    QueryDesc q;
    q.kind = QueryKind::kBfs;
    q.seed = sync ? 3 : 5;
    q.trace = root.context();
    const QueryResult r = sync ? sched.execute_now(q) : sched.submit(q).get();
    ASSERT_TRUE(r.ok());
    ASSERT_FALSE(r.cache_hit);
    root.finish();
    EXPECT_EQ(tracer.traces_started(), traces0 + 1);  // the caller's alone
    std::set<std::string> want = {"serve.cache_lookup", "serve.admission",
                                  "serve.snapshot_lease", "serve.kernel",
                                  "serve.cache_write"};
    if (!sync) want.insert("serve.queue_wait");
    EXPECT_EQ(serve_span_names(trace), want);
  }
}

TEST(ServeTracing, FusedGroupMembersCarryQueueWaitAndKernel) {
  SnapshotManager mgr;
  mgr.publish(test_graph(4));
  SchedulerOptions o;
  o.workers = 1;
  o.start_paused = true;
  QueryScheduler sched(mgr, o);
  const TracerOn on;
  std::vector<std::unique_ptr<obs::ScopedSpan>> roots;
  std::vector<std::future<QueryResult>> futs;
  for (vid_t s = 1; s <= 3; ++s) {
    roots.push_back(std::make_unique<obs::ScopedSpan>("test.query",
                                                      obs::TraceContext{}));
    QueryDesc q;
    q.kind = QueryKind::kBfs;
    q.seed = s;
    q.trace = roots.back()->context();
    futs.push_back(sched.submit(q));
  }
  sched.resume();
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const QueryResult r = futs[i].get();
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.batched);
    const std::set<std::string> names =
        serve_span_names(roots[i]->context().trace_id);
    EXPECT_EQ(names.count("serve.queue_wait"), 1u);
    EXPECT_EQ(names.count("serve.kernel"), 1u);
  }
}

// ---------------------------------------------------------------------------
// Facade + hooks

TEST(AnalyticsServerTest, PublisherAdapterFeedsSnapshots) {
  AnalyticsServer server;
  const auto pub = server.publisher();
  pub(store::GraphView::of(graph::make_path(8)));
  EXPECT_EQ(server.snapshots().current_epoch(), 1u);
  QueryDesc q;
  q.kind = QueryKind::kBfs;
  q.seed = 0;
  const QueryResult r = server.execute_now(q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.dist[7], 7u);
}

TEST(AnalyticsServerTest, HealthReportCarriesAllCounterGroups) {
  AnalyticsServer server;
  server.publish(test_graph(8));
  QueryDesc q;
  q.kind = QueryKind::kBfs;
  q.seed = 1;
  ASSERT_TRUE(server.submit(q).get().ok());
  ASSERT_TRUE(server.submit(q).get().cache_hit);
  const auto groups = server.counters();
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].name, "snapshots");
  EXPECT_EQ(groups[1].name, "scheduler");
  EXPECT_EQ(groups[2].name, "result_cache");
  const std::string health = server.format_health();
  EXPECT_NE(health.find("serving health"), std::string::npos);
  EXPECT_NE(health.find("cache_hits"), std::string::npos);
  EXPECT_NE(health.find("cost_model"), std::string::npos);
  EXPECT_NE(health.find("calib[bfs"), std::string::npos);
}

TEST(AnalyticsServerTest, StreamProcessorHookPublishesEpochs) {
  graph::DynamicGraph g(64);
  streaming::TriggerPolicy policy;
  policy.triangle_delta_threshold = 0;  // no trigger fires
  streaming::StreamProcessor proc(g, policy);
  AnalyticsServer server;
  proc.set_epoch_publisher(server.publisher(), /*every_n_updates=*/8);
  for (vid_t i = 0; i + 1 < 33; ++i) {
    streaming::Update u;
    u.kind = streaming::UpdateKind::kEdgeInsert;
    u.u = i;
    u.v = i + 1;
    proc.apply(u);
  }
  // 32 structural updates / 8 per publish = 4 epochs.
  EXPECT_EQ(proc.stats().epoch_publications, 4u);
  EXPECT_EQ(server.snapshots().current_epoch(), 4u);
  QueryDesc q;
  q.kind = QueryKind::kWcc;
  const QueryResult r = server.execute_now(q);
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r.largest_component, 25u);  // the growing path component
}

// End-to-end churn: concurrent closed-loop clients against a live writer.
// The second TSan target; also exercises cache invalidation under races.
TEST(AnalyticsServerTest, ConcurrentClientsAgainstLiveWriter) {
  AnalyticsServer server({.workers = 2});
  server.publish(test_graph(1));
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (std::uint64_t i = 2; i <= 12; ++i) {
      server.publish(test_graph(i));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    stop.store(true, std::memory_order_release);
  });
  std::atomic<std::uint64_t> ok{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      vid_t seed = static_cast<vid_t>(c);
      while (!stop.load(std::memory_order_acquire)) {
        QueryDesc q;
        q.kind = (c % 2 == 0) ? QueryKind::kBfs : QueryKind::kSubgraphExtract;
        q.seed = seed = (seed * 31 + 7) % 256;
        q.depth = 2;
        const QueryResult r = server.submit(q).get();
        if (r.ok()) ok.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  writer.join();
  for (auto& t : clients) t.join();
  server.drain();
  EXPECT_GT(ok.load(), 0u);
  const SnapshotManagerStats st = server.snapshots().stats();
  EXPECT_EQ(st.published, 12u);
  EXPECT_EQ(st.retired_live, 0u);  // every lease drained
}

}  // namespace
}  // namespace ga::server
