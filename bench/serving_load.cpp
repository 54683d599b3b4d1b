// Closed-loop serving benchmark (E10): 64 concurrent clients submit typed
// queries against the AnalyticsServer while a live update stream keeps
// publishing fresh snapshot epochs — the paper's Fig. 2 tension (batch
// analytics over a mutating persistent graph) driven as a latency/QPS
// experiment. Reports per-class p50/p95/p99 latency, sustained QPS, cache
// hit rate, fused-batch counts, and the admission-control ledger; then
// probes the two acceptance properties directly: a cached hit must be at
// least 10x cheaper than its cold miss, and a query whose predicted cost
// exceeds its deadline budget must be REJECTED (backpressure), not stalled.
//
// --publish-bench: instead of the closed loop, A/B the two epoch
// publication paths under identical churn — O(Δ) delta-chain publication
// through the versioned store vs the legacy full-CSR rebuild — and report
// p50/p99 publish latency, the speedup, read amplification after
// compaction, and live-epoch memory amplification. `--scale N` sizes the
// RMAT graph, `--churn F` sets the per-epoch edge churn fraction.
// tools/ci.sh gates on this mode at scale 20 / 0.1% churn.
//
// --incremental-bench: A/B the serving tiers under insert-only churn —
// per epoch, a warm probe (refine the previous epoch's PageRank/WCC result
// against the published DeltaSummary) races a forced batch recompute of the
// same query on the same snapshot. Each published version is folded
// untimed before the PageRank probes, and the two PageRank probes swap
// order every epoch, so neither pays the fold or a cold cache for the
// other. Reports warm/batch p50 per kind and the speedup; tools/ci.sh
// gates warm WCC p50 >= 10x batch at <=1% churn.
//
// --json: additionally writes BENCH_serving_load.json.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "core/prng.hpp"
#include "core/stats.hpp"
#include "core/timer.hpp"
#include "graph/dynamic_graph.hpp"
#include "graph/generators.hpp"
#include "server/server.hpp"
#include "store/versioned_store.hpp"
#include "streaming/trigger.hpp"
#include "streaming/update_stream.hpp"

using namespace ga;
using namespace ga::server;

namespace {

constexpr int kClients = 64;
constexpr double kRunSeconds = 3.0;

struct ClientLog {
  std::vector<double> latency_ms;
  std::uint64_t ok = 0;
  std::uint64_t hits = 0;
  std::uint64_t rejected = 0;
  std::uint64_t other = 0;
};

QueryDesc pick_query(core::Xoshiro256& rng, vid_t n) {
  QueryDesc q;
  const std::uint64_t roll = rng.next_below(100);
  // Seed space deliberately smaller than n so repeat queries exist and the
  // cache has something to do.
  q.seed = static_cast<vid_t>(rng.next_below(n / 8 + 1));
  if (roll < 70) {
    q.kind = QueryKind::kBfs;
    q.klass = QueryClass::kInteractive;
  } else if (roll < 82) {
    q.kind = QueryKind::kSubgraphExtract;
    q.depth = 2;
    q.klass = QueryClass::kStandard;
  } else if (roll < 94) {
    q.kind = QueryKind::kJaccardNeighbors;
    q.threshold = 0.1;
    q.klass = QueryClass::kStandard;
  } else if (roll < 97) {
    q.kind = QueryKind::kWcc;
    q.klass = QueryClass::kBatch;
  } else {
    q.kind = QueryKind::kPageRankTopK;
    q.k = 10;
    q.klass = QueryClass::kBatch;
  }
  return q;
}

double pct(std::vector<double> v, double q) {
  GA_CHECK(!v.empty(), "pct: empty sample");
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(q * (v.size() - 1));
  return v[idx];
}

/// A/B of the two publication paths under identical churn. Returns 0 on
/// success; GA_CHECKs are the bench's own sanity anchors (the ≥10x / ≤1.5x
/// acceptance gates live in tools/ci.sh so sweeps can still explore).
int run_publish_bench(unsigned scale, double churn, bool json) {
  std::printf("=== Epoch publication: delta chain vs full rebuild ===\n\n");
  graph::RmatParams gp;
  gp.scale = scale;
  gp.edge_factor = 8;
  gp.seed = 3;
  const graph::CSRGraph base = graph::make_rmat(gp);
  const vid_t n = base.num_vertices();
  graph::DynamicGraph dyn(n);
  for (vid_t u = 0; u < n; ++u) {
    for (const vid_t v : base.out_neighbors(u)) {
      if (u < v) dyn.insert_edge(u, v, 1.0f, 0);
    }
  }
  const eid_t delta_edges = std::max<eid_t>(
      1, static_cast<eid_t>(static_cast<double>(dyn.num_edges()) * churn));
  constexpr int kEpochs = 16;
  std::printf("graph: n=%u, m=%llu (RMAT scale %u)\n", n,
              static_cast<unsigned long long>(dyn.num_edges()), gp.scale);
  std::printf("churn: %.4f%% = %llu edges/epoch, %d epochs\n\n", churn * 100.0,
              static_cast<unsigned long long>(delta_edges), kEpochs);

  store::VersionedGraphStore vstore(dyn.snapshot(/*keep_weights=*/true));
  vstore.start_compactor();  // folds run off the publish path
  AnalyticsServer server;
  server.publish(vstore.view());

  core::Xoshiro256 rng(99);
  std::vector<double> delta_us, full_us;
  for (int e = 0; e < kEpochs; ++e) {
    // Mutate the dynamic mirror; capture the exact same ops as a batch.
    store::DeltaBatch batch;
    for (eid_t i = 0; i < delta_edges; ++i) {
      vid_t u = static_cast<vid_t>(rng.next_below(n));
      vid_t v = static_cast<vid_t>(rng.next_below(n));
      if (u == v) v = (v + 1) % n;
      if (rng.next_below(10) == 0) {
        if (dyn.delete_edge(u, v)) batch.delete_edge(u, v);
      } else {
        dyn.insert_edge(u, v, 1.0f, 0);
        batch.insert_edge(u, v);
      }
    }
    // Path A: O(Δ) delta-chain publication.
    core::WallTimer t;
    vstore.apply(batch);
    server.publish(vstore.view());
    delta_us.push_back(t.seconds() * 1e6);
    // Path B: the legacy O(|E|) full-CSR rebuild of the same content.
    t.restart();
    server.publish(dyn.snapshot(/*keep_weights=*/true));
    full_us.push_back(t.seconds() * 1e6);
  }
  // Both paths must publish the same logical graph.
  GA_CHECK(vstore.view().num_arcs() == dyn.num_edges() * 2,
           "delta-chain arc count diverged from the dynamic mirror");

  const SnapshotManagerStats ss = server.snapshots().stats();
  vstore.stop_compactor();
  vstore.compact_now();
  const double read_amp = vstore.view().read_amplification();
  const store::StoreStats vs = vstore.stats();

  const double d50 = pct(delta_us, 0.5), d99 = pct(delta_us, 0.99);
  const double f50 = pct(full_us, 0.5), f99 = pct(full_us, 0.99);
  std::printf("--- publish latency (us) ---\n");
  std::printf("  delta chain      p50=%10.1f  p99=%10.1f\n", d50, d99);
  std::printf("  full rebuild     p50=%10.1f  p99=%10.1f\n", f50, f99);
  std::printf("  speedup          p50=%9.1fx  p99=%9.1fx\n", f50 / d50,
              f99 / d99);
  std::printf("--- store ---\n");
  std::printf("  epochs=%llu chain_depth=%zu compactions=%llu (fail %llu)\n",
              static_cast<unsigned long long>(vs.epoch), vs.chain_depth,
              static_cast<unsigned long long>(vs.compactions),
              static_cast<unsigned long long>(vs.compaction_failures));
  std::printf("  read amplification after compaction: %.3fx\n", read_amp);
  std::printf("  live epoch memory amplification:     %.3fx\n\n",
              ss.memory_amplification);
  GA_CHECK(ss.memory_amplification > 0.0, "stats missing amplification");

  if (json) {
    bench::JsonDoc doc("serving_load");
    doc.add("mode", std::string("publish_bench"));
    doc.add("scale", static_cast<int>(scale));
    doc.add("churn", churn);
    doc.add("epochs", static_cast<std::uint64_t>(kEpochs));
    doc.add("delta_edges_per_epoch", static_cast<std::uint64_t>(delta_edges));
    doc.add("publish_delta_p50_us", d50);
    doc.add("publish_delta_p99_us", d99);
    doc.add("publish_full_p50_us", f50);
    doc.add("publish_full_p99_us", f99);
    doc.add("publish_speedup_p50", f50 / d50);
    doc.add("publish_speedup_p99", f99 / d99);
    doc.add("read_amplification_after_compaction", read_amp);
    doc.add("memory_amplification", ss.memory_amplification);
    doc.add("compactions", vs.compactions);
    doc.add("chain_depth", static_cast<std::uint64_t>(vs.chain_depth));
    doc.write();
  }
  return 0;
}

/// A/B of the serving tiers: per epoch of insert-only churn, time the warm
/// incremental serve (refinement of the previous epoch's result over the
/// published delta) against a forced batch recompute of the same query on
/// the same snapshot. Every warm probe refines across exactly one epoch's
/// delta: the WCC batch probe refreshes the scheduler's warm state after
/// the warm probe, and the PageRank batch probe runs on a second server so
/// that either PageRank probe may go first.
int run_incremental_bench(unsigned scale, double churn, bool json) {
  std::printf("=== Incremental serving: warm refinement vs batch ===\n\n");
  graph::RmatParams gp;
  gp.scale = scale;
  gp.edge_factor = 8;
  gp.seed = 3;
  const graph::CSRGraph base = graph::make_rmat(gp);
  const vid_t n = base.num_vertices();
  const eid_t m = base.num_edges();
  const eid_t delta_edges = std::max<eid_t>(
      1, static_cast<eid_t>(static_cast<double>(m) * churn));
  constexpr int kEpochs = 20;
  std::printf("graph: n=%u, m=%llu (RMAT scale %u)\n", n,
              static_cast<unsigned long long>(m), gp.scale);
  std::printf("churn: %.4f%% = %llu inserts/epoch, %d epochs\n\n",
              churn * 100.0, static_cast<unsigned long long>(delta_edges),
              kEpochs);

  store::VersionedGraphStore vstore(base);
  AnalyticsServer server;
  AnalyticsServer pr_batch_server;
  server.publish(vstore.view());
  pr_batch_server.publish(vstore.view());

  QueryDesc q_wcc;
  q_wcc.kind = QueryKind::kWcc;
  q_wcc.use_cache = false;  // time the kernel tiers, not the cache
  QueryDesc q_pr;
  q_pr.kind = QueryKind::kPageRankTopK;
  q_pr.k = 10;
  q_pr.use_cache = false;
  QueryDesc q_wcc_batch = q_wcc;
  q_wcc_batch.allow_incremental = false;
  QueryDesc q_pr_batch = q_pr;
  q_pr_batch.allow_incremental = false;

  // Cold pass seeds the scheduler's warm state at the base epoch.
  GA_CHECK(server.execute_now(q_wcc).ok(), "cold WCC probe failed");
  GA_CHECK(server.execute_now(q_pr).ok(), "cold PageRank probe failed");

  core::Xoshiro256 rng(7);
  std::vector<double> wcc_warm, wcc_batch, pr_warm, pr_batch;
  std::uint64_t wcc_inc = 0, pr_inc = 0;
  for (int e = 0; e < kEpochs; ++e) {
    store::DeltaBatch batch;  // insert-only: the WCC warm rule's home turf
    for (eid_t i = 0; i < delta_edges; ++i) {
      vid_t u = static_cast<vid_t>(rng.next_below(n));
      vid_t v = static_cast<vid_t>(rng.next_below(n));
      if (u == v) v = (v + 1) % n;
      batch.insert_edge(u, v);
    }
    vstore.apply(batch);
    const store::GraphView view = vstore.view();
    server.publish(view);
    pr_batch_server.publish(view);

    core::WallTimer t;
    QueryResult rw = server.execute_now(q_wcc);
    wcc_warm.push_back(t.millis());
    GA_CHECK(rw.ok(), "warm WCC probe failed");
    wcc_inc += rw.incremental;
    t.restart();
    QueryResult rwb = server.execute_now(q_wcc_batch);
    wcc_batch.push_back(t.millis());
    GA_CHECK(rwb.ok() && !rwb.incremental, "batch WCC probe not batch");
    GA_CHECK(rw.num_components == rwb.num_components,
             "warm WCC diverged from batch");

    view.csr();  // the version's PageRank fold, outside both clocks
    const auto probe_warm_pr = [&] {
      core::WallTimer pt;
      QueryResult rp = server.execute_now(q_pr);
      pr_warm.push_back(pt.millis());
      GA_CHECK(rp.ok(), "warm PageRank probe failed");
      pr_inc += rp.incremental;
    };
    const auto probe_batch_pr = [&] {
      core::WallTimer pt;
      QueryResult rpb = pr_batch_server.execute_now(q_pr_batch);
      pr_batch.push_back(pt.millis());
      GA_CHECK(rpb.ok() && !rpb.incremental, "batch PageRank probe not batch");
    };
    if (e % 2 == 0) {
      probe_warm_pr();
      probe_batch_pr();
    } else {
      probe_batch_pr();
      probe_warm_pr();
    }
  }
  // Insert-only epochs must actually exercise the warm WCC tier; PageRank
  // may legitimately fall back (convergence), so it is reported, not gated.
  GA_CHECK(wcc_inc == static_cast<std::uint64_t>(kEpochs),
           "warm WCC tier fell back under insert-only churn");

  const double w50 = pct(wcc_warm, 0.5), wb50 = pct(wcc_batch, 0.5);
  const double p50 = pct(pr_warm, 0.5), pb50 = pct(pr_batch, 0.5);
  const SchedulerStats st = server.scheduler().stats();
  std::printf("--- per-epoch serve latency (ms, p50 of %d epochs) ---\n",
              kEpochs);
  std::printf("  wcc       warm=%9.3f  batch=%9.3f  ->  %5.1fx  (%llu/%d warm)\n",
              w50, wb50, wb50 / w50,
              static_cast<unsigned long long>(wcc_inc), kEpochs);
  std::printf("  pagerank  warm=%9.3f  batch=%9.3f  ->  %5.1fx  (%llu/%d warm)\n",
              p50, pb50, pb50 / p50,
              static_cast<unsigned long long>(pr_inc), kEpochs);
  std::printf("  scheduler: incremental_served=%llu fallbacks=%llu\n\n",
              static_cast<unsigned long long>(st.incremental_served),
              static_cast<unsigned long long>(st.incremental_fallbacks));
  std::printf(
      "Shape: an insert-only epoch refines WCC by hooking the delta's arcs\n"
      "into the previous labels (O(n + delta) vs an O(n + m) hooking pass)\n"
      "and reseeds PageRank from the previous stationary vector; the cost\n"
      "model's incremental EWMA keeps the tier choice honest.\n");

  if (json) {
    bench::JsonDoc doc("serving_load");
    doc.add("mode", std::string("incremental_bench"));
    doc.add("scale", static_cast<int>(scale));
    doc.add("churn", churn);
    doc.add("epochs", static_cast<std::uint64_t>(kEpochs));
    doc.add("delta_edges_per_epoch", static_cast<std::uint64_t>(delta_edges));
    doc.add("wcc_warm_p50_ms", w50);
    doc.add("wcc_batch_p50_ms", wb50);
    doc.add("wcc_warm_speedup_p50", wb50 / w50);
    doc.add("wcc_warm_served", wcc_inc);
    doc.add("pr_warm_p50_ms", p50);
    doc.add("pr_batch_p50_ms", pb50);
    doc.add("pr_warm_speedup_p50", pb50 / p50);
    doc.add("pr_warm_served", pr_inc);
    doc.add("incremental_served", st.incremental_served);
    doc.add("incremental_fallbacks", st.incremental_fallbacks);
    doc.write();
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = bench::has_flag(argc, argv, "--json");
  const auto scale = static_cast<unsigned>(
      bench::flag_value(argc, argv, "--scale", 12));
  const double churn =
      bench::flag_value_double(argc, argv, "--churn", 0.001);
  if (bench::has_flag(argc, argv, "--publish-bench")) {
    return run_publish_bench(scale, churn, json);
  }
  if (bench::has_flag(argc, argv, "--incremental-bench")) {
    return run_incremental_bench(scale, churn, json);
  }
  std::printf("=== Concurrent analytics serving, closed loop (E10) ===\n\n");

  // Base graph + live stream applied to a dynamic copy of it.
  graph::RmatParams gp;
  gp.scale = scale;
  gp.edge_factor = 8;
  gp.seed = 3;
  const graph::CSRGraph base = graph::make_rmat(gp);
  const vid_t n = base.num_vertices();
  graph::DynamicGraph dyn(n);
  for (vid_t u = 0; u < n; ++u) {
    for (const vid_t v : base.out_neighbors(u)) {
      if (u < v) dyn.insert_edge(u, v, 1.0f, 0);
    }
  }
  std::printf("graph: n=%u, m=%llu (RMAT scale %u) + live update stream\n",
              n, static_cast<unsigned long long>(base.num_edges()), gp.scale);
  std::printf("clients: %d closed-loop for %.1fs\n\n", kClients, kRunSeconds);

  SchedulerOptions sopts;
  sopts.workers = 4;
  sopts.cache_capacity = 1 << 14;
  AnalyticsServer server(sopts);
  server.publish(dyn.snapshot());

  // Live writer: a StreamProcessor applies a power-law update stream and
  // republishes an epoch every 4096 structural updates.
  streaming::TriggerPolicy policy;
  policy.triangle_delta_threshold = 0;  // epochs come from the cadence hook
  streaming::StreamProcessor proc(dyn, policy);
  proc.set_epoch_publisher(server.publisher(), /*every_n_updates=*/4096);
  streaming::StreamOptions supd;
  supd.count = 400000;
  supd.delete_fraction = 0.05;
  supd.seed = 11;
  const auto stream = streaming::generate_stream(n, supd);

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> updates_applied{0};
  std::thread writer([&] {
    std::size_t i = 0;
    while (!stop.load(std::memory_order_acquire) && i < stream.size()) {
      proc.apply(stream[i++]);
    }
    updates_applied.store(i, std::memory_order_release);
  });

  // Closed loop: each client submits, waits, repeats.
  std::vector<ClientLog> logs(kClients);
  std::vector<std::thread> clients;
  core::WallTimer wall;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ClientLog& log = logs[c];
      core::Xoshiro256 rng(1000 + c);
      core::WallTimer deadline;
      while (deadline.seconds() < kRunSeconds) {
        const QueryDesc q = pick_query(rng, n);
        core::WallTimer t;
        const QueryResult r = server.submit(q).get();
        const double ms = t.millis();
        switch (r.status) {
          case QueryStatus::kOk:
            log.latency_ms.push_back(ms);
            ++log.ok;
            log.hits += r.cache_hit;
            break;
          case QueryStatus::kRejectedCost:
          case QueryStatus::kRejectedOverload:
          case QueryStatus::kRejectedBacklog:
            ++log.rejected;
            break;
          default:
            ++log.other;
            break;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  const double elapsed = wall.seconds();
  stop.store(true, std::memory_order_release);
  writer.join();
  server.drain();

  core::PercentileSketch lat;
  std::uint64_t ok = 0, hits = 0, rejected = 0, other = 0;
  for (const auto& log : logs) {
    for (const double ms : log.latency_ms) lat.add(ms);
    ok += log.ok;
    hits += log.hits;
    rejected += log.rejected;
    other += log.other;
  }
  const double qps = static_cast<double>(ok) / elapsed;
  const double p50 = lat.percentile(0.5);
  const double p95 = lat.percentile(0.95);
  const double p99 = lat.percentile(0.99);
  const SchedulerStats st = server.scheduler().stats();
  const CacheStats cs = server.scheduler().cache().stats();
  const SnapshotManagerStats ss = server.snapshots().stats();

  std::printf("--- closed-loop results ---\n");
  std::printf("  completed            %10llu   (%.0f QPS sustained)\n",
              static_cast<unsigned long long>(ok), qps);
  std::printf("  latency ms           p50=%.3f p95=%.3f p99=%.3f\n", p50, p95,
              p99);
  std::printf("  cache                %llu hits / %llu misses (%.1f%% hit rate)\n",
              static_cast<unsigned long long>(cs.hits),
              static_cast<unsigned long long>(cs.misses),
              100.0 * cs.hit_rate());
  std::printf("  fused BFS batches    %llu (%llu queries batched)\n",
              static_cast<unsigned long long>(st.batches),
              static_cast<unsigned long long>(st.batched_queries));
  std::printf("  rejected             %llu   failed/other %llu\n",
              static_cast<unsigned long long>(rejected),
              static_cast<unsigned long long>(other));
  std::printf("  epochs published     %llu (live stream applied %zu updates)\n",
              static_cast<unsigned long long>(ss.published),
              updates_applied.load());
  std::printf("  snapshots reclaimed  %llu, still pinned %zu\n",
              static_cast<unsigned long long>(ss.reclaimed), ss.retired_live);
  // Publish latency through the delta-chain path (snapshot.publish_us is
  // recorded by the manager on every epoch swap).
  double pub_p50 = 0.0, pub_p99 = 0.0;
  if (obs::enabled()) {
    auto& h = obs::MetricsRegistry::global().histogram("snapshot.publish_us");
    pub_p50 = h.percentile(0.5);
    pub_p99 = h.percentile(0.99);
  }
  std::printf("  publish latency us   p50=%.1f p99=%.1f\n", pub_p50, pub_p99);
  std::printf("  memory amplification %.3fx (%zu live bytes / %zu flat)\n\n",
              ss.memory_amplification, ss.live_bytes, ss.flat_bytes);
  GA_CHECK(ok > 0, "no queries completed");
  GA_CHECK(ss.retired_live == 0, "leases leaked after drain");
  GA_CHECK(ss.published > 1, "live stream never republished an epoch");

  // --- acceptance probe 1: cached hit >= 10x cheaper than cold miss ---
  // The writer is stopped, so the epoch is stable between the two probes.
  // PageRank is the most expensive kind; measure the miss once and the hit
  // as a median of 5.
  QueryDesc probe;
  probe.kind = QueryKind::kPageRankTopK;
  probe.k = 10;
  probe.seed = 0;
  // The clients left a warm PageRank result at this epoch, which would
  // answer the miss with an empty-delta refine instead of a PageRank run.
  probe.allow_incremental = false;
  server.scheduler().cache().clear();
  core::WallTimer t;
  QueryResult cold = server.execute_now(probe);
  const double cold_ms = t.millis();
  GA_CHECK(cold.ok() && !cold.cache_hit, "cold probe did not execute");
  std::vector<double> hit_ms;
  for (int i = 0; i < 5; ++i) {
    t.restart();
    const QueryResult warm = server.execute_now(probe);
    hit_ms.push_back(t.millis());
    GA_CHECK(warm.ok() && warm.cache_hit, "warm probe missed the cache");
  }
  std::sort(hit_ms.begin(), hit_ms.end());
  const double hit_med = hit_ms[hit_ms.size() / 2];
  std::printf("--- cache probe (pagerank_topk) ---\n");
  std::printf("  cold (miss) %.3f ms,  hit %.4f ms  ->  %.0fx\n", cold_ms,
              hit_med, cold_ms / hit_med);
  GA_CHECK(cold_ms >= 10.0 * hit_med, "cached hit is not >=10x cheaper");

  // --- acceptance probe 2: cost beyond deadline REJECTS, fast ---
  QueryDesc doomed;
  doomed.kind = QueryKind::kPageRankTopK;
  doomed.use_cache = false;
  doomed.deadline_ms = 1e-6;
  t.restart();
  const QueryResult rej = server.execute_now(doomed);
  const double reject_ms = t.millis();
  std::printf("--- admission probe ---\n");
  std::printf("  predicted %.3f ms vs %.1e ms budget -> %s in %.4f ms\n",
              rej.predicted_ms, doomed.deadline_ms,
              query_status_name(rej.status), reject_ms);
  GA_CHECK(rej.status == QueryStatus::kRejectedCost,
           "over-budget query was not rejected");
  GA_CHECK(reject_ms < cold_ms, "rejection cost as much as executing");

  std::printf("\n%s\n", server.format_health().c_str());
  std::printf(
      "Shape: snapshot isolation keeps readers on immutable epochs while\n"
      "the stream publishes; the Fig. 3 model gates admission so overload\n"
      "rejects instead of queue-stalling; repeat queries collapse into the\n"
      "epoch-keyed cache and concurrent BFS seeds fuse into one pass.\n");

  if (json) {
    bench::JsonDoc doc("serving_load");
    doc.add("clients", kClients);
    doc.add("run_seconds", elapsed);
    doc.add("completed", ok);
    doc.add("qps", qps);
    doc.add("latency_p50_ms", p50);
    doc.add("latency_p95_ms", p95);
    doc.add("latency_p99_ms", p99);
    doc.add("cache_hit_rate", cs.hit_rate());
    doc.add("cache_hits", cs.hits);
    doc.add("fused_batches", st.batches);
    doc.add("batched_queries", st.batched_queries);
    doc.add("rejected", rejected);
    doc.add("epochs_published", ss.published);
    doc.add("snapshots_reclaimed", ss.reclaimed);
    doc.add("publish_p50_us", pub_p50);
    doc.add("publish_p99_us", pub_p99);
    doc.add("memory_amplification", ss.memory_amplification);
    doc.add("cold_ms", cold_ms);
    doc.add("hit_median_ms", hit_med);
    doc.add("hit_speedup", cold_ms / hit_med);
    doc.add("reject_ms", reject_ms);
    doc.write();
  }
  return 0;
}
