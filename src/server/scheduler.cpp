#include "server/scheduler.hpp"

#include <algorithm>
#include <cstdio>

#include "core/timer.hpp"
#include "engine/multi_source.hpp"
#include "kernels/bfs.hpp"
#include "kernels/connected_components.hpp"
#include "kernels/incremental.hpp"
#include "kernels/jaccard.hpp"
#include "kernels/pagerank.hpp"
#include "store/delta_summary.hpp"

namespace ga::server {

namespace {

/// Largest dependency set recorded on a result before it degrades to a
/// global footprint. Bounds both the per-entry memory and the per-publish
/// intersection work in the cache.
constexpr std::size_t kFootprintCap = 4096;

/// BFS answers depend only on the adjacency of the reached set: an arc
/// change can alter a distance only if some changed endpoint is reachable,
/// and the DeltaSummary lists both endpoints of every effective arc op —
/// so a delta disjoint from the reached set cannot change the answer.
void set_bfs_footprint(QueryResult& r) {
  if (r.reached > kFootprintCap) return;  // stay global
  std::vector<vid_t> verts;
  verts.reserve(static_cast<std::size_t>(r.reached));
  for (vid_t u = 0; u < r.dist.size(); ++u) {
    if (r.dist[u] != kInfDist) verts.push_back(u);
  }
  r.footprint.global = false;
  r.footprint.verts = std::move(verts);
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Serving-grade PageRank settings: bounded iteration count so one batch
/// query cannot occupy a worker for an unbounded convergence tail.
kernels::PageRankOptions serving_pagerank_opts() {
  kernels::PageRankOptions o;
  o.tolerance = 1e-6;
  o.max_iters = 50;
  return o;
}

/// Serving-grade refinement settings. The warm-iteration cap matches the
/// batch cap: a warm start only ever needs fewer sweeps than a cold one,
/// and a tighter cap would make kNotConverged fallbacks the common case —
/// turning the incremental tier into dead code on structural epochs.
kernels::IncrementalOptions serving_inc_opts() {
  kernels::IncrementalOptions o;
  o.max_warm_iters = serving_pagerank_opts().max_iters;
  return o;
}

/// Registry sink for one resolved query: total + per-status-code counters
/// (the unified core::Status taxonomy), latency histograms for queries
/// that actually ran a kernel, hit counter for cache serves.
void obs_count_query(const QueryResult& r) {
  if (!obs::enabled()) return;
  auto& reg = obs::MetricsRegistry::global();
  static obs::Counter& c_total = reg.counter("serve.queries_total");
  static obs::Histogram& h_exec = reg.histogram("serve.exec_us");
  static obs::Histogram& h_wait = reg.histogram("serve.wait_us");
  c_total.add();
  reg.counter(std::string("serve.status.") +
              core::status_code_name(status_code(r.status)))
      .add();
  if (r.cache_hit) {
    static obs::Counter& c_hits = reg.counter("serve.cache_hits_total");
    c_hits.add();
  } else if (r.ok()) {
    h_exec.observe(r.exec_ms * 1e3);
    h_wait.observe(r.wait_ms * 1e3);
  }
}

}  // namespace

QueryScheduler::QueryScheduler(SnapshotManager& snaps, SchedulerOptions opts)
    : snaps_(snaps),
      opts_(opts),
      cache_(opts.cache_capacity, opts.cache_shards),
      // ThreadPool counts the calling thread, so +1 yields `workers`
      // dedicated task threads even though this object never calls
      // parallel_for on its own pool.
      pool_(std::max(1u, opts.workers) + 1) {
  opts_.workers = std::max(1u, opts_.workers);
  opts_.max_bfs_batch = std::clamp<std::size_t>(opts_.max_bfs_batch, 1,
                                                engine::kMaxMultiSourceSeeds);
  paused_ = opts_.start_paused;
  // Epoch advance: delta-aware invalidation (footprint-disjoint entries
  // carry forward) + warm incremental state maintenance.
  snaps_.set_epoch_listener(
      [this](std::uint64_t epoch, const store::GraphView& view) {
        on_epoch_published(epoch, view);
      });
}

QueryScheduler::~QueryScheduler() {
  resume();
  drain();
  snaps_.set_epoch_listener({});
}

std::future<QueryResult> QueryScheduler::submit(const QueryDesc& desc) {
  std::promise<QueryResult> prom;
  std::future<QueryResult> fut = prom.get_future();
  {
    std::lock_guard<std::mutex> lk(qmu_);
    ++stats_.submitted;
  }

  const std::uint64_t epoch = snaps_.current_epoch();
  if (epoch == 0) {
    QueryResult r;
    r.status = QueryStatus::kNoSnapshot;
    r.kind = desc.kind;
    {
      std::lock_guard<std::mutex> lk(qmu_);
      ++stats_.no_snapshot;
    }
    obs_count_query(r);
    prom.set_value(std::move(r));
    return fut;
  }

  if (desc.use_cache) {
    if (auto hit = cache_.lookup(QueryKey::of(desc, epoch))) {
      QueryResult r = *hit;  // immutable shared entry; copy for the caller
      r.cache_hit = true;
      r.wait_ms = 0.0;
      r.exec_ms = 0.0;  // no kernel ran for this caller
      {
        std::lock_guard<std::mutex> lk(qmu_);
        ++stats_.cache_hits;
      }
      obs_count_query(r);
      prom.set_value(std::move(r));
      return fut;
    }
  }

  CostEstimate est;
  if (auto rejected = admission_check(desc, est)) {
    obs_count_query(*rejected);
    prom.set_value(std::move(*rejected));
    return fut;
  }

  auto p = std::make_unique<Pending>();
  p->desc = desc;
  p->promise = std::move(prom);
  p->est = est;
  p->submitted_at = std::chrono::steady_clock::now();
  enqueue(std::move(p));
  return fut;
}

std::optional<QueryResult> QueryScheduler::admission_check(
    const QueryDesc& desc, CostEstimate& est) {
  {
    SnapshotRef snap = snaps_.acquire();
    if (!snap) {
      QueryResult r;
      r.status = QueryStatus::kNoSnapshot;
      r.kind = desc.kind;
      std::lock_guard<std::mutex> lk(qmu_);
      ++stats_.no_snapshot;
      return r;
    }
    est = model_.predict(desc, snap.view().num_vertices(),
                         snap.view().num_arcs());
  }

  const std::size_t ci = static_cast<std::size_t>(desc.klass);
  std::lock_guard<std::mutex> lk(qmu_);
  QueryResult r;
  r.kind = desc.kind;
  r.predicted_ms = est.ms;
  r.epoch = snaps_.current_epoch();
  if (queues_[ci].size() >= opts_.max_queue_per_class) {
    r.status = QueryStatus::kRejectedBacklog;
    ++stats_.rejected_backlog;
    return r;
  }
  if (desc.deadline_ms > 0.0) {
    if (est.ms > desc.deadline_ms) {
      r.status = QueryStatus::kRejectedCost;
      ++stats_.rejected_cost;
      return r;
    }
    // Work queued at this class or better drains before this query can
    // start; spread across the worker threads it bounds the expected wait.
    double ahead_ms = 0.0;
    for (std::size_t c = 0; c <= ci; ++c) ahead_ms += queued_cost_ms_[c];
    if (ahead_ms / opts_.workers + est.ms > desc.deadline_ms) {
      r.status = QueryStatus::kRejectedOverload;
      ++stats_.rejected_overload;
      return r;
    }
  }
  return std::nullopt;
}

void QueryScheduler::enqueue(std::unique_ptr<Pending> p) {
  const QueryClass klass = p->desc.klass;
  const std::size_t ci = static_cast<std::size_t>(klass);
  bool paused;
  {
    std::lock_guard<std::mutex> lk(qmu_);
    ++stats_.admitted;
    queued_cost_ms_[ci] += p->est.ms;
    queues_[ci].push_back(std::move(p));
    paused = paused_;
  }
  if (!paused) {
    pool_.submit([this] { drain_one(); }, pool_priority(klass));
  }
}

void QueryScheduler::resume() {
  std::size_t pending = 0;
  {
    std::lock_guard<std::mutex> lk(qmu_);
    if (!paused_) return;
    paused_ = false;
    for (const auto& q : queues_) pending += q.size();
  }
  // One drain task per pending query; tasks superseded by a fused batch
  // find the queues empty and return.
  for (std::size_t i = 0; i < pending; ++i) {
    pool_.submit([this] { drain_one(); }, core::TaskPriority::kNormal);
  }
}

void QueryScheduler::drain() {
  std::unique_lock<std::mutex> lk(qmu_);
  drain_cv_.wait(lk, [&] {
    if (in_flight_ != 0) return false;
    if (paused_) return true;  // queued-but-paused work is not in flight
    for (const auto& q : queues_) {
      if (!q.empty()) return false;
    }
    return true;
  });
}

void QueryScheduler::on_epoch_published(std::uint64_t epoch,
                                        const store::GraphView& view) {
  std::shared_ptr<const store::DeltaSummary> delta;
  {
    std::lock_guard<std::mutex> lk(warm_mu_);
    const auto s = view.delta_summary();
    // The summary describes the transition FROM the view's predecessor:
    // it justifies carrying cached answers only if the previously
    // published view was exactly that predecessor. Anything else (first
    // publish, fresh seed, skipped store epochs, a different store) must
    // degrade to the whole-epoch wipe.
    const bool contiguous = s != nullptr && s->epoch == view.epoch() &&
                            saw_publish_ &&
                            last_store_epoch_ + 1 == view.epoch();
    if (contiguous) {
      delta = s;
      deltas_.push_back(s);
      while (deltas_.size() > opts_.max_delta_history) deltas_.pop_front();
    } else if (s != nullptr && s->epoch == view.epoch() && saw_publish_ &&
               view.epoch() == last_store_epoch_) {
      // Re-publication of the same store version (e.g. after a background
      // compaction folded the chain — fold preserves epoch and summary):
      // content is identical, so everything carries (an empty summary is
      // non-structural) and the warm state + history stay valid. The
      // summary requirement keeps unrelated flat views — which all report
      // store epoch 0 — on the wipe path below.
      auto same = std::make_shared<store::DeltaSummary>();
      same->epoch = view.epoch();
      delta = std::move(same);
    } else {
      deltas_.clear();
      warm_pr_.reset();
      warm_wcc_.reset();
    }
    last_store_epoch_ = view.epoch();
    saw_publish_ = true;
  }
  cache_.on_epoch_publish(epoch, std::move(delta));
}

bool QueryScheduler::merged_delta(std::uint64_t from, std::uint64_t to,
                                  store::DeltaSummary& out) const {
  if (from == to) {
    out = store::DeltaSummary{};
    out.epoch = to;
    return true;
  }
  if (from > to || deltas_.empty() || last_store_epoch_ != to) return false;
  std::vector<std::shared_ptr<const store::DeltaSummary>> chain;
  chain.reserve(deltas_.size());
  for (const auto& s : deltas_) {
    if (s->epoch > from) chain.push_back(s);
  }
  // deltas_ is contiguous and ends at `to`; the chain covers (from, to]
  // exactly when its first element is from+1 (otherwise history was
  // trimmed past the warm result's epoch).
  if (chain.empty() || chain.front()->epoch != from + 1) return false;
  out = store::merge_summaries(chain);
  return true;
}

void QueryScheduler::count_incremental(bool served) {
  std::lock_guard<std::mutex> lk(qmu_);
  if (served) {
    ++stats_.incremental_served;
  } else {
    ++stats_.incremental_fallbacks;
  }
}

void QueryScheduler::drain_one() {
  std::unique_ptr<Pending> first;
  std::vector<std::unique_ptr<Pending>> batch;
  {
    std::lock_guard<std::mutex> lk(qmu_);
    for (std::size_t c = 0; c < 3 && !first; ++c) {
      if (!queues_[c].empty()) {
        first = std::move(queues_[c].front());
        queues_[c].pop_front();
        queued_cost_ms_[c] =
            std::max(0.0, queued_cost_ms_[c] - first->est.ms);
      }
    }
    if (!first) return;  // this task's query was absorbed by a fused batch
    ++in_flight_;
    if (first->desc.kind == QueryKind::kBfs && opts_.enable_batching) {
      for (std::size_t c = 0; c < 3; ++c) {
        auto& q = queues_[c];
        for (auto it = q.begin();
             it != q.end() && batch.size() + 1 < opts_.max_bfs_batch;) {
          if ((*it)->desc.kind == QueryKind::kBfs) {
            queued_cost_ms_[c] =
                std::max(0.0, queued_cost_ms_[c] - (*it)->est.ms);
            batch.push_back(std::move(*it));
            it = q.erase(it);
            ++in_flight_;
          } else {
            ++it;
          }
        }
      }
    }
  }
  if (batch.empty()) {
    execute_single(*first);
  } else {
    batch.insert(batch.begin(), std::move(first));
    execute_bfs_batch(batch);
  }
}

void QueryScheduler::execute_single(Pending& p) {
  const double wait_ms = ms_since(p.submitted_at);
  obs::Tracer& tracer = obs::Tracer::global();
  if (tracer.active() && p.desc.trace.valid()) {
    // Queue wait was measured outside any scope; attach it retroactively.
    tracer.emit_interval(p.desc.trace, "serve.queue_wait",
                         tracer.now_ms() - wait_ms, wait_ms);
  }
  QueryResult r;
  r.kind = p.desc.kind;
  r.predicted_ms = p.est.ms;
  r.wait_ms = wait_ms;
  if (p.desc.deadline_ms > 0.0 && wait_ms > p.desc.deadline_ms) {
    r.status = QueryStatus::kDeadlineMiss;
    finish(p, std::move(r));
    return;
  }
  SnapshotRef snap = snaps_.acquire();
  if (!snap) {
    r.status = QueryStatus::kNoSnapshot;
    finish(p, std::move(r));
    return;
  }
  core::WallTimer timer;
  {
    obs::ScopedSpan span("serve.kernel", p.desc.trace);
    obs::AmbientScope ambient(span.context());
    try {
      r = run_kernel(p.desc, snap);
    } catch (const std::exception& e) {
      r.status = QueryStatus::kFailed;
      r.error = e.what();
    }
    span.set_detail(query_kind_name(p.desc.kind));
    span.set_status(status_code(r.status));
  }
  r.kind = p.desc.kind;
  r.exec_ms = timer.millis();
  r.predicted_ms = p.est.ms;
  r.wait_ms = wait_ms;
  r.epoch = snap.epoch();
  if (r.ok()) {
    // An incremental serve already fed observe_incremental inside
    // run_kernel; feeding its (much smaller) time into the batch EWMA
    // would poison the batch calibration.
    if (!r.incremental) model_.observe(p.desc.kind, p.est.raw_ms, r.exec_ms);
    if (p.desc.use_cache) {
      obs::ScopedSpan span("serve.cache_write", p.desc.trace);
      cache_.insert(QueryKey::of(p.desc, snap.epoch()),
                    std::make_shared<const QueryResult>(r));
    }
  }
  finish(p, std::move(r));
}

void QueryScheduler::execute_bfs_batch(
    std::vector<std::unique_ptr<Pending>>& batch) {
  SnapshotRef snap = snaps_.acquire();
  // Settle deadline expiries and invalid seeds individually; survivors
  // ride the fused pass.
  std::vector<Pending*> live;
  std::vector<vid_t> seeds;
  for (auto& p : batch) {
    QueryResult r;
    r.kind = QueryKind::kBfs;
    r.predicted_ms = p->est.ms;
    r.wait_ms = ms_since(p->submitted_at);
    if (!snap) {
      r.status = QueryStatus::kNoSnapshot;
      finish(*p, std::move(r));
      continue;
    }
    if (p->desc.deadline_ms > 0.0 && r.wait_ms > p->desc.deadline_ms) {
      r.status = QueryStatus::kDeadlineMiss;
      finish(*p, std::move(r));
      continue;
    }
    if (p->desc.seed >= snap.view().num_vertices()) {
      r.status = QueryStatus::kFailed;
      r.error = "bfs seed out of range";
      finish(*p, std::move(r));
      continue;
    }
    live.push_back(p.get());
    seeds.push_back(p->desc.seed);
  }
  if (live.empty()) return;

  core::WallTimer timer;
  QueryResult fail;
  bool failed = false;
  const bool flat = snap.view().flat();
  engine::MultiSourceBfsResult ms;
  std::vector<kernels::BfsResult> solo;
  try {
    if (flat) {
      // Bit-parallel fused pass over the flat CSR.
      ms = engine::multi_source_bfs(snap.graph(), seeds);
    } else {
      // Delta-backed view: answer each seed on the merged chain rather
      // than forcing an O(|E|) fold for a batch of O(Δ)-fresh queries.
      solo.reserve(seeds.size());
      for (const vid_t s : seeds) solo.push_back(kernels::bfs(snap.view(), s));
    }
  } catch (const std::exception& e) {
    failed = true;
    fail.status = QueryStatus::kFailed;
    fail.error = e.what();
  }
  const double exec_ms = timer.millis();
  const bool fused = live.size() > 1;
  {
    std::lock_guard<std::mutex> lk(qmu_);
    if (fused) {
      ++stats_.batches;
      stats_.batched_queries += live.size();
    }
  }
  const vid_t n = snap.view().num_vertices();
  for (std::size_t i = 0; i < live.size(); ++i) {
    Pending& p = *live[i];
    QueryResult r;
    if (failed) {
      r = fail;
    } else if (flat) {
      r.status = QueryStatus::kOk;
      r.dist.resize(n);
      for (vid_t v = 0; v < n; ++v) r.dist[v] = ms.dist_of(v, i);
      r.reached = ms.reached[i];
    } else {
      r.status = QueryStatus::kOk;
      r.dist = std::move(solo[i].dist);
      r.reached = solo[i].reached;
    }
    if (r.status == QueryStatus::kOk) set_bfs_footprint(r);
    r.kind = QueryKind::kBfs;
    r.batched = fused;
    r.exec_ms = exec_ms;
    r.predicted_ms = p.est.ms;
    r.wait_ms = ms_since(p.submitted_at);
    r.epoch = snap.epoch();
    if (r.ok()) {
      // A fused pass measures k queries at once; per-query calibration
      // only learns from solo executions, so skip observe() here.
      if (p.desc.use_cache) {
        cache_.insert(QueryKey::of(p.desc, snap.epoch()),
                      std::make_shared<const QueryResult>(r));
      }
    }
    finish(p, std::move(r));
  }
}

QueryResult QueryScheduler::run_kernel(const QueryDesc& desc,
                                       const SnapshotRef& snap) {
  // The one read path: every kernel takes the view itself; PageRank picks
  // between streaming tiers and the cached fold inside the kernel.
  const store::GraphView& v = snap.view();
  const vid_t n = v.num_vertices();
  QueryResult r;
  r.kind = desc.kind;
  const bool needs_seed = desc.kind == QueryKind::kBfs ||
                          desc.kind == QueryKind::kJaccardNeighbors ||
                          desc.kind == QueryKind::kSubgraphExtract;
  if (needs_seed && desc.seed >= n) {
    r.status = QueryStatus::kFailed;
    r.error = "seed out of range";
    return r;
  }
  switch (desc.kind) {
    case QueryKind::kBfs: {
      auto res = kernels::bfs(v, desc.seed);
      r.dist = std::move(res.dist);
      r.reached = res.reached;
      set_bfs_footprint(r);
      break;
    }
    case QueryKind::kPageRankTopK: {
      // Tier choice: refine the previous epoch's ranks over the merged
      // delta chain when warm state is fresh enough and the cost model
      // predicts refinement beats a batch recompute. update_pagerank
      // self-falls-back (shape mismatch, churn, non-convergence), so the
      // answer is always within batch tolerance.
      std::shared_ptr<const kernels::PageRankResult> prev;
      store::DeltaSummary merged;
      if (opts_.enable_incremental && desc.allow_incremental) {
        std::lock_guard<std::mutex> lk(warm_mu_);
        if (warm_pr_ != nullptr && warm_pr_epoch_ <= v.epoch() &&
            merged_delta(warm_pr_epoch_, v.epoch(), merged)) {
          prev = warm_pr_;
        }
      }
      std::shared_ptr<const kernels::PageRankResult> res;
      if (prev != nullptr) {
        const CostEstimate inc_est = model_.predict_incremental(
            desc, n, v.num_arcs(),
            static_cast<vid_t>(merged.changed_vertices.size()));
        const CostEstimate batch_est = model_.predict(desc, n, v.num_arcs());
        if (inc_est.ms <= batch_est.ms) {
          kernels::IncrementalOutcome out;
          core::WallTimer inc_timer;
          res = std::make_shared<const kernels::PageRankResult>(
              kernels::update_pagerank(*prev, merged, v,
                                       serving_pagerank_opts(),
                                       serving_inc_opts(), &out));
          r.incremental = out.incremental;
          // Observed unconditionally: when the refinement fell back, the
          // timer covers warm attempt + internal batch recompute, so the
          // EWMA learns the tier's true expected cost (including fallback
          // risk) and stops picking a tier that keeps paying double.
          model_.observe_incremental(desc.kind, inc_est.raw_ms,
                                     inc_timer.millis());
          count_incremental(out.incremental);
        }
      }
      if (res == nullptr) {
        res = std::make_shared<const kernels::PageRankResult>(
            kernels::pagerank(v, serving_pagerank_opts()));
      }
      {
        std::lock_guard<std::mutex> lk(warm_mu_);
        if (v.epoch() >= warm_pr_epoch_ || warm_pr_ == nullptr) {
          warm_pr_ = res;
          warm_pr_epoch_ = v.epoch();
        }
      }
      r.topk = kernels::pagerank_topk(*res, desc.k);
      break;
    }
    case QueryKind::kJaccardNeighbors: {
      // Delta-native query (no O(|E|) fold); the recorded footprint —
      // seed + neighbors + 2-hop candidates — lets the cache carry this
      // answer across every epoch whose delta is disjoint from it, which
      // is the incremental tier for a purely local query.
      r.neighbors = kernels::jaccard_query(v, desc.seed, desc.threshold);
      if (r.neighbors.size() > desc.k) r.neighbors.resize(desc.k);
      auto fp = kernels::jaccard_footprint(v, desc.seed, kFootprintCap);
      if (!fp.empty()) {
        r.footprint.global = false;
        r.footprint.verts = std::move(fp);
      }
      break;
    }
    case QueryKind::kWcc: {
      std::shared_ptr<const kernels::ComponentsResult> prev;
      store::DeltaSummary merged;
      if (opts_.enable_incremental && desc.allow_incremental) {
        std::lock_guard<std::mutex> lk(warm_mu_);
        if (warm_wcc_ != nullptr && warm_wcc_epoch_ <= v.epoch() &&
            merged_delta(warm_wcc_epoch_, v.epoch(), merged)) {
          prev = warm_wcc_;
        }
      }
      std::shared_ptr<const kernels::ComponentsResult> res;
      if (prev != nullptr) {
        const CostEstimate inc_est = model_.predict_incremental(
            desc, n, v.num_arcs(),
            static_cast<vid_t>(merged.changed_vertices.size()));
        const CostEstimate batch_est = model_.predict(desc, n, v.num_arcs());
        if (inc_est.ms <= batch_est.ms) {
          kernels::IncrementalOutcome out;
          core::WallTimer inc_timer;
          res = std::make_shared<const kernels::ComponentsResult>(
              kernels::update_wcc(*prev, merged, v, serving_inc_opts(), &out));
          r.incremental = out.incremental;
          // Unconditional for the same reason as PageRank: fallbacks teach
          // the EWMA the tier's true cost.
          model_.observe_incremental(desc.kind, inc_est.raw_ms,
                                     inc_timer.millis());
          count_incremental(out.incremental);
        }
      }
      if (res == nullptr) {
        res = std::make_shared<const kernels::ComponentsResult>(
            kernels::wcc_label_propagation(v));
      }
      {
        std::lock_guard<std::mutex> lk(warm_mu_);
        if (v.epoch() >= warm_wcc_epoch_ || warm_wcc_ == nullptr) {
          warm_wcc_ = res;
          warm_wcc_epoch_ = v.epoch();
        }
      }
      r.num_components = res->num_components;
      r.largest_component = res->largest_size;
      break;
    }
    case QueryKind::kSubgraphExtract: {
      r.members = kernels::khop_neighborhood(v, {desc.seed}, desc.depth);
      // Arc count inside the neighborhood: one mark load per arc.
      std::vector<std::uint8_t> member(n, 0);
      for (const vid_t u : r.members) member[u] = 1;
      eid_t arcs = 0;
      for (const vid_t u : r.members) {
        v.for_each_out(u, [&](vid_t w, float) { arcs += member[w]; });
      }
      r.subgraph_arcs = arcs;
      // Membership is decided by the adjacency of vertices within the
      // radius and the arc count by adjacency of members, so the member
      // set is a sound dependency footprint.
      if (r.members.size() <= kFootprintCap) {
        r.footprint.global = false;
        r.footprint.verts = r.members;  // khop returns them sorted
      }
      break;
    }
  }
  r.status = QueryStatus::kOk;
  return r;
}

QueryResult QueryScheduler::execute_now(const QueryDesc& desc) {
  {
    std::lock_guard<std::mutex> lk(qmu_);
    ++stats_.submitted;
  }
  const std::uint64_t epoch = snaps_.current_epoch();
  if (epoch == 0) {
    QueryResult r;
    r.status = QueryStatus::kNoSnapshot;
    r.kind = desc.kind;
    {
      std::lock_guard<std::mutex> lk(qmu_);
      ++stats_.no_snapshot;
    }
    obs_count_query(r);
    return r;
  }
  if (desc.use_cache) {
    obs::ScopedSpan span("serve.cache_lookup", desc.trace);
    if (auto hit = cache_.lookup(QueryKey::of(desc, epoch))) {
      QueryResult r = *hit;
      r.cache_hit = true;
      r.wait_ms = 0.0;
      r.exec_ms = 0.0;  // no kernel ran for this caller
      span.set_detail("hit");
      {
        std::lock_guard<std::mutex> lk(qmu_);
        ++stats_.cache_hits;
      }
      obs_count_query(r);
      return r;
    }
    span.set_detail("miss");
  }
  // Admission: lease the snapshot, predict the Fig. 3 cost, gate on the
  // deadline budget. The lease span nests under admission so the trace
  // reads query → admission → snapshot epoch → kernel → engine steps.
  SnapshotRef snap;
  CostEstimate est;
  QueryResult r;
  {
    obs::ScopedSpan adm("serve.admission", desc.trace);
    {
      obs::ScopedSpan lease("serve.snapshot_lease", adm.context());
      snap = snaps_.acquire();
      if (snap) {
        lease.set_detail("epoch=" + std::to_string(snap.epoch()));
      } else {
        lease.set_status(core::StatusCode::kUnavailable);
      }
    }
    if (!snap) {
      adm.set_status(core::StatusCode::kUnavailable);
      r.status = QueryStatus::kNoSnapshot;
      r.kind = desc.kind;
      obs_count_query(r);
      return r;
    }
    est = model_.predict(desc, snap.view().num_vertices(),
                         snap.view().num_arcs());
    if (adm.live()) {
      char detail[64];
      std::snprintf(detail, sizeof(detail), "predicted_ms=%.3f", est.ms);
      adm.set_detail(detail);
    }
    if (desc.deadline_ms > 0.0 && est.ms > desc.deadline_ms) {
      adm.set_status(core::StatusCode::kDeadlineExceeded);
      r.status = QueryStatus::kRejectedCost;
      r.kind = desc.kind;
      r.predicted_ms = est.ms;
      r.epoch = snap.epoch();
      {
        std::lock_guard<std::mutex> lk(qmu_);
        ++stats_.rejected_cost;
      }
      obs_count_query(r);
      return r;
    }
  }
  core::WallTimer timer;
  {
    obs::ScopedSpan span("serve.kernel", desc.trace);
    obs::AmbientScope ambient(span.context());
    try {
      r = run_kernel(desc, snap);
    } catch (const std::exception& e) {
      r.status = QueryStatus::kFailed;
      r.error = e.what();
    }
    span.set_detail(query_kind_name(desc.kind));
    span.set_status(status_code(r.status));
  }
  r.kind = desc.kind;
  r.exec_ms = timer.millis();
  r.predicted_ms = est.ms;
  r.epoch = snap.epoch();
  {
    std::lock_guard<std::mutex> lk(qmu_);
    ++stats_.admitted;
    if (r.ok()) {
      ++stats_.completed;
    } else {
      ++stats_.failed;
    }
  }
  if (r.ok()) {
    if (!r.incremental) model_.observe(desc.kind, est.raw_ms, r.exec_ms);
    if (desc.use_cache) {
      obs::ScopedSpan span("serve.cache_write", desc.trace);
      cache_.insert(QueryKey::of(desc, snap.epoch()),
                    std::make_shared<const QueryResult>(r));
    }
  }
  obs_count_query(r);
  return r;
}

void QueryScheduler::finish(Pending& p, QueryResult&& r) {
  const QueryStatus status = r.status;
  // Account BEFORE resolving the future: a caller unblocked by get() must
  // already see this query reflected in stats(). in_flight_ drops after
  // set_value so drain() cannot return with an unresolved future.
  {
    std::lock_guard<std::mutex> lk(qmu_);
    switch (status) {
      case QueryStatus::kOk:
        ++stats_.completed;
        break;
      case QueryStatus::kDeadlineMiss:
        ++stats_.deadline_misses;
        break;
      case QueryStatus::kNoSnapshot:
        ++stats_.no_snapshot;
        break;
      default:
        ++stats_.failed;
        break;
    }
  }
  obs_count_query(r);
  p.promise.set_value(std::move(r));
  std::lock_guard<std::mutex> lk(qmu_);
  GA_ASSERT(in_flight_ >= 1);
  --in_flight_;
  drain_cv_.notify_all();
}

SchedulerStats QueryScheduler::stats() const {
  std::lock_guard<std::mutex> lk(qmu_);
  return stats_;
}

engine::CounterGroup QueryScheduler::counters() const {
  const SchedulerStats st = stats();
  return {"scheduler",
          {{"submitted", st.submitted},
           {"admitted", st.admitted},
           {"cache_hits", st.cache_hits},
           {"rejected_cost", st.rejected_cost},
           {"rejected_overload", st.rejected_overload},
           {"rejected_backlog", st.rejected_backlog},
           {"no_snapshot", st.no_snapshot},
           {"completed", st.completed},
           {"failed", st.failed},
           {"deadline_misses", st.deadline_misses},
           {"fused_batches", st.batches},
           {"batched_queries", st.batched_queries},
           {"incremental_served", st.incremental_served},
           {"incremental_fallbacks", st.incremental_fallbacks}}};
}

}  // namespace ga::server
