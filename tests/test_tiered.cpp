// Tiered-store suite (ctest label `tiered`): the delta-varint segment
// codec under adversarial shapes and corruption (a corrupt block must be
// DataLoss, never a silently wrong adjacency list), TieredGraph residency
// mechanics (budget adherence, clock eviction, access-driven promotion,
// fault injection at the cold-fault stage), the registry-wide kernel
// equivalence sweep on tiered views at shrinking budgets — including the
// delta-chain-over-tiered-base composition and the compactor's tiered
// fold target — a differential check of WCC, PageRank and update_wcc on
// every view kind against serial references, checkpoint/recovery
// round-tripping the tiered policy,
// the concurrent fault/evict/corrupt churn the sanitizer script runs
// under TSan, and the bench harness's `--graph file:` rejection path.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <filesystem>
#include <map>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "core/prng.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "harness.hpp"
#include "kernels/bfs.hpp"
#include "kernels/connected_components.hpp"
#include "kernels/incremental.hpp"
#include "kernels/pagerank.hpp"
#include "kernels/registry.hpp"
#include "resilience/fault_injection.hpp"
#include "store/delta.hpp"
#include "store/delta_summary.hpp"
#include "store/epoch_log.hpp"
#include "store/graph_view.hpp"
#include "store/recovery.hpp"
#include "store/segment.hpp"
#include "store/tiered.hpp"
#include "store/versioned_store.hpp"

namespace ga::store {
namespace {

namespace fs = std::filesystem;
using graph::CSRGraph;

// ---------------------------------------------------------------------------
// Mirror (same shape as test_store.cpp): a plain arc-set model used to
// seed content and to eagerly build the flat twin of every tiered view.

struct Mirror {
  bool directed;
  vid_t n;
  std::map<std::pair<vid_t, vid_t>, float> arcs;

  void insert(vid_t u, vid_t v, float w = 1.0f) {
    arcs[{u, v}] = w;
    if (!directed) arcs[{v, u}] = w;
  }
  void erase(vid_t u, vid_t v) {
    arcs.erase({u, v});
    if (!directed) arcs.erase({v, u});
  }
  bool has(vid_t u, vid_t v) const { return arcs.count({u, v}) > 0; }

  CSRGraph eager() const {
    std::vector<graph::Edge> edges;
    for (const auto& [arc, w] : arcs) {
      if (directed) {
        edges.push_back(graph::Edge{arc.first, arc.second});
      } else if (arc.first < arc.second) {
        edges.push_back(graph::Edge{arc.first, arc.second});
      }
    }
    if (directed) {
      graph::BuildOptions o;
      o.directed = true;
      return graph::build_csr(std::move(edges), n, o);
    }
    return graph::build_undirected(std::move(edges), n);
  }
};

void churn(core::Xoshiro256& rng, Mirror& m, DeltaBatch& b, int ops) {
  for (int i = 0; i < ops; ++i) {
    vid_t u = rng.next_vid(m.n);
    vid_t v = rng.next_vid(m.n);
    if (u == v) v = (v + 1) % m.n;
    if (m.has(u, v) && rng.next_below(10) < 3) {
      m.erase(u, v);
      b.delete_edge(u, v);
    } else {
      m.insert(u, v);
      b.insert_edge(u, v);
    }
  }
}

Mirror seed_mirror(core::Xoshiro256& rng, vid_t n, int edges, bool directed) {
  Mirror m{directed, n, {}};
  for (int i = 0; i < edges; ++i) {
    vid_t u = rng.next_vid(n);
    vid_t v = rng.next_vid(n);
    if (u == v) v = (v + 1) % n;
    m.insert(u, v);
  }
  return m;
}

/// `frac` of the bytes a flat CSR of `g`'s adjacency occupies — the same
/// budget arithmetic bench/tiered_bench uses.
std::size_t tg_budget_for(const CSRGraph& g, double frac) {
  const std::size_t flat =
      (static_cast<std::size_t>(g.num_vertices()) + 1) * sizeof(eid_t) +
      static_cast<std::size_t>(g.num_arcs()) * sizeof(vid_t) +
      (g.weighted() ? static_cast<std::size_t>(g.num_arcs()) * sizeof(float)
                    : 0);
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(flat) * frac));
}

/// A SegmentCSR assembled directly from per-vertex target lists.
SegmentCSR make_segment(vid_t first, bool weighted,
                        const std::vector<std::vector<vid_t>>& adj,
                        const std::vector<std::vector<float>>& ws = {}) {
  SegmentCSR s;
  s.first_vertex = first;
  s.count = static_cast<vid_t>(adj.size());
  s.weighted = weighted;
  s.offsets.push_back(0);
  for (std::size_t v = 0; v < adj.size(); ++v) {
    s.targets.insert(s.targets.end(), adj[v].begin(), adj[v].end());
    if (weighted) s.weights.insert(s.weights.end(), ws[v].begin(), ws[v].end());
    s.offsets.push_back(static_cast<std::uint32_t>(s.targets.size()));
  }
  return s;
}

void expect_segments_equal(const SegmentCSR& a, const SegmentCSR& b) {
  EXPECT_EQ(a.first_vertex, b.first_vertex);
  ASSERT_EQ(a.count, b.count);
  EXPECT_EQ(a.offsets, b.offsets);
  EXPECT_EQ(a.targets, b.targets);
  if (a.weighted) {
    ASSERT_EQ(a.weights.size(), b.weights.size());
    for (std::size_t i = 0; i < a.weights.size(); ++i) {
      // Bitwise: the codec stores raw float bytes, not approximations.
      EXPECT_EQ(std::bit_cast<std::uint32_t>(a.weights[i]),
                std::bit_cast<std::uint32_t>(b.weights[i]));
    }
  }
}

// ---------------------------------------------------------------------------
// Segment codec: adversarial shapes round-trip exactly.

TEST(SegmentCodec, EmptyAdjacencyRoundTrips) {
  const SegmentCSR s = make_segment(0, false, {{}, {}, {}, {}});
  const EncodedSegment e = encode_segment(s);
  EXPECT_EQ(e.arcs, 0u);
  auto d = decode_segment(e);
  ASSERT_TRUE(d.ok());
  expect_segments_equal(s, *d);
}

TEST(SegmentCodec, SingleArcRoundTrips) {
  const SegmentCSR s = make_segment(64, false, {{}, {4000000000u}, {}});
  auto d = decode_segment(encode_segment(s));
  ASSERT_TRUE(d.ok());
  expect_segments_equal(s, *d);
}

TEST(SegmentCodec, MaxDegreeHubRoundTrips) {
  // One hub with thousands of dense low targets (1-byte deltas) plus a
  // sparse tail whose deltas span the full 5-byte varint range, ending
  // just under the 32-bit target ceiling.
  std::vector<vid_t> hub;
  for (vid_t t = 0; t < 4096; ++t) hub.push_back(t);
  std::uint64_t t = 5000;
  while (t < 4200000000u) {
    hub.push_back(static_cast<vid_t>(t));
    t += 1 + (t / 2);
  }
  hub.push_back(4294967290u);
  const SegmentCSR s = make_segment(0, false, {hub, {}, {0, 1, 2}});
  auto d = decode_segment(encode_segment(s));
  ASSERT_TRUE(d.ok());
  expect_segments_equal(s, *d);
}

TEST(SegmentCodec, DuplicateTargetAfterMergeRoundTrips) {
  // A merged adjacency can legally hold repeated targets (e.g. a delta
  // re-insert next to a base arc before dedup); delta 0 must encode.
  const SegmentCSR s = make_segment(8, false, {{5, 5, 5, 9, 9}});
  auto d = decode_segment(encode_segment(s));
  ASSERT_TRUE(d.ok());
  expect_segments_equal(s, *d);
}

TEST(SegmentCodec, WeightedRoundTripIsBitwise) {
  const SegmentCSR s = make_segment(
      0, true, {{1, 7}, {2}},
      {{0.1f, std::nextafter(1.0f, 2.0f)}, {-0.0f}});
  const EncodedSegment e = encode_segment(s);
  auto d = decode_segment(e);
  ASSERT_TRUE(d.ok());
  expect_segments_equal(s, *d);
}

TEST(SegmentCodec, EveryCorruptByteIsDataLossNeverAWrongList) {
  const SegmentCSR s = make_segment(
      0, true, {{3, 9, 9, 200}, {}, {4000000000u}},
      {{1.0f, 2.0f, 2.5f, -8.0f}, {}, {0.5f}});
  const EncodedSegment clean = encode_segment(s);
  for (std::size_t i = 0; i < clean.payload.size(); ++i) {
    EncodedSegment bad = clean;
    bad.payload[i] ^= 0x40;
    const auto d = decode_segment(bad);
    ASSERT_FALSE(d.ok()) << "byte " << i;
    EXPECT_EQ(d.status().code(), core::StatusCode::kDataLoss) << "byte " << i;
  }
  // Stored-CRC rot is caught the same way.
  EncodedSegment bad = clean;
  bad.crc ^= 1;
  EXPECT_EQ(decode_segment(bad).status().code(), core::StatusCode::kDataLoss);
  // Truncation (torn cold block) too.
  bad = clean;
  bad.payload.pop_back();
  EXPECT_EQ(decode_segment(bad).status().code(), core::StatusCode::kDataLoss);
}

// ---------------------------------------------------------------------------
// TieredGraph residency mechanics.

TieredGraph::Pin sum_segment(const TieredGraph& tg, std::uint32_t seg) {
  return tg.acquire(seg);
}

TEST(TieredGraph, AdjacencyMatchesCsrAtTinyBudget) {
  const CSRGraph g =
      graph::make_rmat({.scale = 10, .edge_factor = 8, .seed = 5});
  TierPolicy pol;
  pol.budget_bytes = g.num_arcs();  // ~1/4 of the flat footprint
  pol.segment_bits = 6;
  auto tg = TieredGraph::build(g, pol);
  ASSERT_EQ(tg->num_vertices(), g.num_vertices());
  ASSERT_EQ(tg->num_arcs(), g.num_arcs());
  TieredGraph::Reader rd;
  for (vid_t u = 0; u < g.num_vertices(); ++u) {
    std::vector<vid_t> got;
    tg->for_each_out(u, rd, [&](vid_t v, float) { got.push_back(v); });
    const auto want = g.out_neighbors(u);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << "vertex " << u;
    ASSERT_EQ(tg->out_degree(u), g.out_degree(u));
  }
  core::Xoshiro256 rng(11);
  for (int i = 0; i < 2000; ++i) {
    const vid_t u = rng.next_vid(g.num_vertices());
    const vid_t v = rng.next_vid(g.num_vertices());
    EXPECT_EQ(tg->has_edge(u, v), g.has_edge(u, v));
  }
}

TEST(TieredGraph, UnboundedBudgetPinsEverything) {
  const CSRGraph g = graph::make_rmat({.scale = 8, .edge_factor = 8, .seed = 3});
  auto tg = TieredGraph::build(g, TierPolicy{});  // budget 0 = unbounded
  const TierStats st = tg->stats();
  EXPECT_EQ(st.pinned, st.segments);
  EXPECT_EQ(st.resident, st.segments);
  EXPECT_EQ(st.faults, 0u);
}

TEST(TieredGraph, BudgetHoldsUnderRandomChurnAndEvictionRecycles) {
  const CSRGraph g =
      graph::make_rmat({.scale = 11, .edge_factor = 8, .seed = 7});
  TierPolicy pol;
  pol.budget_bytes = tg_budget_for(g, 0.2);
  auto tg = TieredGraph::build(g, pol);
  core::Xoshiro256 rng(13);
  std::uint64_t arcs_seen = 0;
  for (int i = 0; i < 20000; ++i) {
    const vid_t u = rng.next_vid(g.num_vertices());
    tg->for_each_out(u, [&](vid_t, float) { ++arcs_seen; });
  }
  const TierStats st = tg->stats();
  EXPECT_GT(arcs_seen, 0u);
  EXPECT_GT(st.faults, 0u);
  EXPECT_GT(st.evictions, 0u);
  EXPECT_EQ(st.transient_serves, 0u);  // tuned segments always fit
  EXPECT_LE(st.resident_bytes, st.budget_bytes);
  EXPECT_LE(st.peak_resident_bytes,
            static_cast<std::size_t>(st.budget_bytes * 1.05));
}

TEST(TieredGraph, RepeatedFaultsEarnPromotion) {
  const CSRGraph g =
      graph::make_rmat({.scale = 10, .edge_factor = 8, .seed = 9});
  TierPolicy pol;
  pol.budget_bytes = tg_budget_for(g, 0.3);
  pol.promote_after = 3;
  auto tg = TieredGraph::build(g, pol);
  // Find a segment that was NOT pinned at build.
  std::uint32_t victim = UINT32_MAX;
  for (const SegmentInfo& r : tg->segment_table()) {
    if (!r.pinned && r.arcs > 0) victim = r.id;
  }
  ASSERT_NE(victim, UINT32_MAX);
  core::Xoshiro256 rng(15);
  // Alternate the victim with scattered other segments so the clock keeps
  // evicting it back out until promotion sticks.
  for (int round = 0; round < 400; ++round) {
    (void)sum_segment(*tg, victim);
    for (int j = 0; j < 6; ++j) {
      (void)sum_segment(
          *tg, static_cast<std::uint32_t>(rng.next_below(tg->num_segments())));
    }
  }
  const TierStats st = tg->stats();
  EXPECT_GE(st.promotions, 1u);
  // Which segment wins the promotion headroom depends on fault order;
  // what must hold is that every promotion is visible as a pinned row
  // with a nonzero tick (build pins keep tick 0), charged to the cap.
  std::uint64_t runtime_promoted = 0;
  for (const SegmentInfo& r : tg->segment_table()) {
    if (r.last_promotion_tick >= 1) {
      EXPECT_TRUE(r.pinned) << "segment " << r.id;
      ++runtime_promoted;
    }
  }
  EXPECT_EQ(runtime_promoted, st.promotions);
  EXPECT_LE(st.pinned_bytes,
            static_cast<std::size_t>(st.budget_bytes * pol.pinned_fraction));
}

TEST(TieredGraph, FaultInjectorFiresOnColdFaultStage) {
  const CSRGraph g = graph::make_rmat({.scale = 9, .edge_factor = 8, .seed = 2});
  TierPolicy pol;
  pol.budget_bytes = tg_budget_for(g, 0.2);
  auto tg = TieredGraph::build(g, pol);
  resilience::FaultInjector fi(
      resilience::FaultPlan::kill_at("tier.fault", /*nth=*/3));
  tg->set_fault_injector(&fi);
  std::uint64_t faults_survived = 0;
  bool hit = false;
  core::Xoshiro256 rng(21);
  try {
    for (int i = 0; i < 100000 && !hit; ++i) {
      const vid_t u = rng.next_vid(g.num_vertices());
      tg->for_each_out(u, [&](vid_t, float) {});
      faults_survived = fi.calls("tier.fault");
    }
  } catch (const resilience::InjectedFault&) {
    hit = true;
  }
  ASSERT_TRUE(hit);
  EXPECT_EQ(fi.calls("tier.fault"), 3u);
  EXPECT_LE(faults_survived, 2u);
  tg->set_fault_injector(nullptr);
  // The store survives the injected fault: the same access now succeeds.
  TieredGraph::Reader rd;
  for (vid_t u = 0; u < g.num_vertices(); ++u) {
    tg->for_each_out(u, rd, [](vid_t, float) {});
  }
}

TEST(TieredGraph, CorruptColdBlockIsDataLossAndIsolated) {
  const CSRGraph g = graph::make_rmat({.scale = 9, .edge_factor = 8, .seed = 4});
  TierPolicy pol;
  pol.budget_bytes = tg_budget_for(g, 0.25);
  auto tg = TieredGraph::build(g, pol);
  std::uint32_t victim = 0;
  for (const SegmentInfo& r : tg->segment_table()) {
    if (r.arcs > 0) victim = r.id;
  }
  tg->corrupt_cold_block_for_test(victim, 1, 0x10);
  const auto res = tg->try_acquire(victim);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), core::StatusCode::kDataLoss);
  EXPECT_GE(tg->stats().decode_failures, 1u);
  // Other segments are unaffected; the rotten one keeps failing loudly
  // (never serves a wrong list) until the block is repaired.
  for (const SegmentInfo& r : tg->segment_table()) {
    if (r.id == victim) continue;
    EXPECT_TRUE(tg->try_acquire(r.id).ok());
  }
  EXPECT_FALSE(tg->try_acquire(victim).ok());
  tg->corrupt_cold_block_for_test(victim, 1, 0x10);  // XOR back = repair
  ASSERT_TRUE(tg->try_acquire(victim).ok());
  const auto nbrs = tg->acquire(victim)->neighbors(
      tg->segment_table()[victim].first_vertex);
  const auto want = g.out_neighbors(tg->segment_table()[victim].first_vertex);
  EXPECT_TRUE(std::equal(nbrs.begin(), nbrs.end(), want.begin(), want.end()));
}

// ---------------------------------------------------------------------------
// Registry-wide kernel equivalence: every kernel, tiered views at
// shrinking budgets, summaries identical to the eagerly built flat CSR.

TEST(TieredRegistryEquivalence, EveryKernelMatchesEagerCsrAtEveryBudget) {
  for (const double frac : {1.0, 0.5, 0.25}) {
    for (const auto& info : kernels::registry()) {
      SCOPED_TRACE(info.name + std::string(" @ ") + std::to_string(frac));
      core::Xoshiro256 rng(7);
      Mirror m = seed_mirror(rng, 200, 900, info.directed);
      const CSRGraph eager = m.eager();
      TierPolicy pol;
      pol.budget_bytes = tg_budget_for(eager, frac);
      const GraphView tiered_view =
          GraphView::over_tiers(TieredGraph::build(eager, pol));
      ASSERT_TRUE(tiered_view.tiered());
      const auto got =
          kernels::run_kernel(info, kernels::KernelRunSpec::of(tiered_view));
      const auto want =
          kernels::run_kernel(info, kernels::KernelRunSpec::of(eager));
      EXPECT_EQ(got.summary, want.summary);
    }
  }
}

TEST(TieredRegistryEquivalence, DeltaChainOverTieredBaseMatches) {
  for (const auto& info : kernels::registry()) {
    SCOPED_TRACE(info.name);
    core::Xoshiro256 rng(7);
    Mirror m = seed_mirror(rng, 200, 900, info.directed);
    CompactionPolicy pol;
    pol.auto_compact = false;
    pol.tiered = true;
    pol.tier.budget_bytes = tg_budget_for(m.eager(), 0.25);
    VersionedGraphStore store(m.eager(), pol);
    ASSERT_TRUE(store.view().tiered());
    for (int epoch = 0; epoch < 4; ++epoch) {
      DeltaBatch b(info.directed);
      churn(rng, m, b, 80);
      store.apply(b);
    }
    const GraphView composed = store.view();  // 4 deltas over a tiered base
    ASSERT_EQ(composed.chain_depth(), 4u);
    ASSERT_TRUE(composed.tiered());
    const CSRGraph eager = m.eager();
    const auto got =
        kernels::run_kernel(info, kernels::KernelRunSpec::of(composed));
    const auto want =
        kernels::run_kernel(info, kernels::KernelRunSpec::of(eager));
    EXPECT_EQ(got.summary, want.summary);
  }
}

// ---------------------------------------------------------------------------
// Differential check of the two dense kernels on every view kind — flat,
// directed and undirected delta chains, tiered views at 3 budgets, and
// delta chains over a tiered base: WCC labels against a BFS sweep of the
// fold, PageRank bitwise against a serial reference power loop, and
// update_wcc over insert-only deltas against the batch kernel.

/// The textbook serial pull, in the kernel's fixed summation order
/// (vertex ascending, in-neighbour ascending).
kernels::PageRankResult ref_pagerank(const CSRGraph& g,
                                     const kernels::PageRankOptions& o) {
  const vid_t n = g.num_vertices();
  g.ensure_transpose();
  kernels::PageRankResult r;
  r.rank.assign(n, 1.0 / n);
  std::vector<double> next(n), contrib(n);
  for (unsigned iter = 1; iter <= o.max_iters && !r.converged; ++iter) {
    double dangling = 0.0;
    for (vid_t u = 0; u < n; ++u) {
      const eid_t d = g.out_degree(u);
      if (d == 0) dangling += r.rank[u];
      contrib[u] = d == 0 ? 0.0 : r.rank[u] / static_cast<double>(d);
    }
    r.final_delta = 0.0;
    for (vid_t v = 0; v < n; ++v) {
      double sum = 0.0;
      for (const vid_t u : g.in_neighbors(v)) sum += contrib[u];
      next[v] = (1.0 - o.damping) / n + o.damping * dangling / n +
                o.damping * sum;
      r.final_delta += std::abs(next[v] - r.rank[v]);
    }
    r.rank.swap(next);
    r.iterations = iter;
    r.converged = r.final_delta < o.tolerance;
  }
  return r;
}

/// wcc_bfs follows out-arcs only; weak connectivity of a directed graph
/// is the connectivity of its symmetrized twin.
CSRGraph symmetrized(const CSRGraph& g) {
  std::vector<graph::Edge> edges;
  for (vid_t u = 0; u < g.num_vertices(); ++u) {
    for (const vid_t v : g.out_neighbors(u)) edges.push_back({u, v});
  }
  return graph::build_undirected(std::move(edges), g.num_vertices());
}

void expect_dense_kernels_match(const GraphView& view) {
  const CSRGraph& fold = view.csr();
  const auto wcc = kernels::wcc_label_propagation(view);
  const auto want_wcc = kernels::wcc_bfs(symmetrized(fold));
  EXPECT_EQ(wcc.label, want_wcc.label);
  EXPECT_EQ(wcc.num_components, want_wcc.num_components);
  EXPECT_EQ(wcc.largest_size, want_wcc.largest_size);

  const kernels::PageRankOptions opts;
  const auto pr = kernels::pagerank(view, opts);
  const auto want_pr = ref_pagerank(fold, opts);
  EXPECT_EQ(pr.rank, want_pr.rank);  // bitwise
  EXPECT_EQ(pr.iterations, want_pr.iterations);
  EXPECT_EQ(pr.converged, want_pr.converged);
  EXPECT_EQ(pr.final_delta, want_pr.final_delta);
}

TEST(ViewDifferential, DenseKernelsMatchReferencesOnEveryViewKind) {
  for (const bool directed : {false, true}) {
    core::Xoshiro256 rng(directed ? 31 : 29);
    Mirror m = seed_mirror(rng, 300, 700, directed);
    expect_dense_kernels_match(GraphView::of(m.eager()));
    for (const double frac : {1.0, 0.5, 0.25}) {
      SCOPED_TRACE("tiered @ " + std::to_string(frac) +
                   (directed ? " directed" : " undirected"));
      const CSRGraph eager = m.eager();
      TierPolicy pol;
      pol.budget_bytes = tg_budget_for(eager, frac);
      expect_dense_kernels_match(
          GraphView::over_tiers(TieredGraph::build(eager, pol)));
    }
    for (const bool tiered_base : {false, true}) {
      SCOPED_TRACE(std::string(tiered_base ? "delta over tiered" : "delta") +
                   (directed ? " directed" : " undirected"));
      CompactionPolicy pol;
      pol.auto_compact = false;
      pol.tiered = tiered_base;
      pol.tier.budget_bytes = tg_budget_for(m.eager(), 0.25);
      VersionedGraphStore store(m.eager(), pol);
      auto warm = kernels::wcc_label_propagation(store.view());
      for (int epoch = 0; epoch < 3; ++epoch) {  // insert-only epochs
        DeltaBatch b(directed);
        for (int i = 0; i < 30; ++i) {
          const vid_t u = rng.next_vid(m.n);
          const vid_t v = (u + 1 + rng.next_vid(m.n - 1)) % m.n;
          m.insert(u, v);
          b.insert_edge(u, v);
        }
        store.apply(b);
        const GraphView view = store.view();
        kernels::IncrementalOutcome out;
        warm = kernels::update_wcc(warm, *view.delta_summary(), view, {}, &out);
        EXPECT_TRUE(out.incremental);
        const auto batch = kernels::wcc_label_propagation(view);
        EXPECT_EQ(warm.label, batch.label);
        EXPECT_EQ(warm.num_components, batch.num_components);
        EXPECT_EQ(warm.largest_size, batch.largest_size);
        expect_dense_kernels_match(view);
      }
      for (int epoch = 0; epoch < 2; ++epoch) {  // deletes as well
        DeltaBatch b(directed);
        churn(rng, m, b, 60);
        store.apply(b);
      }
      ASSERT_EQ(store.view().chain_depth(), 5u);
      ASSERT_EQ(store.view().tiered(), tiered_base);
      expect_dense_kernels_match(store.view());
    }
  }
}

TEST(TieredStore, CompactionFoldsToTieredTargetWithSameContent) {
  core::Xoshiro256 rng(19);
  Mirror m = seed_mirror(rng, 300, 1200, /*directed=*/false);
  CompactionPolicy pol;
  pol.auto_compact = false;
  pol.tiered = true;
  pol.tier.budget_bytes = 4096;
  VersionedGraphStore store(m.eager(), pol);
  for (int epoch = 0; epoch < 5; ++epoch) {
    DeltaBatch b;
    churn(rng, m, b, 60);
    store.apply(b);
  }
  const std::uint64_t digest_before = view_digest(store.view());
  store.compact_now();
  const GraphView folded = store.view();
  EXPECT_EQ(folded.chain_depth(), 0u);
  ASSERT_TRUE(folded.tiered());
  EXPECT_EQ(view_digest(folded), digest_before);
  const StoreStats st = store.stats();
  EXPECT_TRUE(st.tiered);
  EXPECT_GT(st.tier_encoded_bytes, 0u);
  // And the folded content still matches the mirror, arc for arc.
  const CSRGraph eager = m.eager();
  for (vid_t u = 0; u < m.n; ++u) {
    std::vector<vid_t> got;
    folded.for_each_out(u, [&](vid_t v, float) { got.push_back(v); });
    const auto want = eager.out_neighbors(u);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << "vertex " << u;
  }
}

TEST(TieredStore, CheckpointRecoveryRoundTripsTieredPolicy) {
  const fs::path dir = fs::temp_directory_path() / "ga_tiered_recovery";
  fs::remove_all(dir);
  core::Xoshiro256 rng(23);
  Mirror m = seed_mirror(rng, 200, 800, /*directed=*/false);
  CompactionPolicy pol;
  pol.auto_compact = false;
  pol.tiered = true;
  pol.tier.budget_bytes = 8192;
  std::uint64_t live_digest = 0;
  {
    VersionedGraphStore store(m.eager(), pol);
    EpochLog log({.dir = dir.string(), .checkpoint_every = 2});
    log.attach(store);
    for (int epoch = 0; epoch < 5; ++epoch) {
      DeltaBatch b;
      churn(rng, m, b, 40);
      store.apply(b);
    }
    live_digest = view_digest(store.view());
  }
  RecoveryOptions ropts;
  ropts.dir = dir.string();
  ropts.compaction = pol;
  auto rec = recover(ropts);
  EXPECT_TRUE(rec.report.status().ok());
  EXPECT_EQ(rec.report.recovered_epoch, 5u);
  ASSERT_TRUE(rec.store->view().tiered());
  EXPECT_EQ(view_digest(rec.store->view()), live_digest);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Concurrency churn (the TSan target): readers fault and traverse under a
// tight budget (constant eviction pressure) while a chaos thread corrupts
// and repairs cold blocks — readers must see either a correct list or
// DataLoss, never garbage, and accounting must stay consistent.

TEST(TieredConcurrency, ConcurrentFaultEvictCorruptChurn) {
  const CSRGraph g =
      graph::make_rmat({.scale = 10, .edge_factor = 8, .seed = 27});
  TierPolicy pol;
  pol.budget_bytes = tg_budget_for(g, 0.15);
  pol.promote_after = 16;
  auto tg = TieredGraph::build(g, pol);

  constexpr int kReaders = 4;
  constexpr int kIters = 8000;
  std::atomic<std::uint64_t> arcs_seen{0};
  std::atomic<std::uint64_t> data_loss_seen{0};
  std::atomic<bool> stop{false};

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      core::Xoshiro256 rng(100 + r);
      std::uint64_t local = 0;
      for (int i = 0; i < kIters; ++i) {
        const std::uint32_t seg =
            static_cast<std::uint32_t>(rng.next_below(tg->num_segments()));
        const auto pin = tg->try_acquire(seg);
        if (!pin.ok()) {
          EXPECT_EQ(pin.status().code(), core::StatusCode::kDataLoss);
          data_loss_seen.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        // Verify the slab against the source graph while holding the pin
        // (eviction may drop the slot concurrently; the pin keeps it
        // valid). A corrupt block must never reach here.
        const SegmentCSR& s = **pin;
        const vid_t probe =
            s.first_vertex + static_cast<vid_t>(rng.next_below(s.count));
        const auto got = s.neighbors(probe);
        const auto want = g.out_neighbors(probe);
        ASSERT_TRUE(
            std::equal(got.begin(), got.end(), want.begin(), want.end()));
        local += got.size();
      }
      arcs_seen.fetch_add(local, std::memory_order_relaxed);
    });
  }
  std::thread chaos([&] {
    core::Xoshiro256 rng(999);
    while (!stop.load(std::memory_order_acquire)) {
      const std::uint32_t seg =
          static_cast<std::uint32_t>(rng.next_below(tg->num_segments()));
      tg->corrupt_cold_block_for_test(seg, 0, 0x08);
      std::this_thread::yield();
      tg->corrupt_cold_block_for_test(seg, 0, 0x08);  // repair
    }
  });
  for (auto& t : readers) t.join();
  stop.store(true, std::memory_order_release);
  chaos.join();

  EXPECT_GT(arcs_seen.load(), 0u);
  const TierStats st = tg->stats();
  EXPECT_GT(st.faults, 0u);
  EXPECT_LE(st.resident_bytes, st.budget_bytes);
  // decode failures were observed iff some reader hit a corrupt window
  EXPECT_EQ(st.decode_failures, data_loss_seen.load());
}

// ---------------------------------------------------------------------------
// Bench harness input rejection (satellite: --graph file: must fail with
// a Status that names the path and the OS reason, not an opaque throw).

TEST(BenchHarness, MissingFileGraphRejectsWithPathAndReason) {
  const auto spec = bench::GraphSpec::parse("file:/nonexistent/ga_no_such.el");
  const auto got = spec.try_build();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), core::StatusCode::kNotFound);
  EXPECT_NE(got.status().message().find("/nonexistent/ga_no_such.el"),
            std::string::npos)
      << got.status().message();
  EXPECT_NE(got.status().message().find("cannot load"), std::string::npos);
}

TEST(BenchHarness, GeneratedGraphSpecsStillBuild) {
  const auto spec = bench::GraphSpec::parse("kron6");
  auto got = spec.try_build();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->num_vertices(), 64u);
}

}  // namespace
}  // namespace ga::store
