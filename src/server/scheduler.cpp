#include "server/scheduler.hpp"

#include <algorithm>
#include <cstdio>
#include <string_view>

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
constexpr std::size_t kCacheShards = 8;
/// Delta summaries retained for warm-state catch-up; warm results older
/// than this many store epochs fall back to batch recompute.
constexpr std::size_t kMaxDeltaHistory = 32;
/// Most queued BFS queries one multi-source pass answers.
constexpr std::size_t kMaxBfsBatch = 16;
static_assert(kMaxBfsBatch <= engine::kMaxMultiSourceSeeds);
/// The span a query's kernel time is recorded under, whether it ran alone
/// or in a fused pass.
constexpr std::string_view kKernelSpan = "serve.kernel";

/// A serve.* span, opened only under the caller's trace: an untraced query
/// (invalid context) starts no trace of its own and records no span.
class ServeSpan {
 public:
  ServeSpan(std::string_view name, const obs::TraceContext& parent) {
    if (parent.valid()) span_.emplace(name, parent);
  }
  obs::TraceContext context() const {
    return span_ ? span_->context() : obs::TraceContext{};
  }
  bool live() const { return span_ && span_->live(); }
  void set_detail(std::string_view d) {
    if (span_) span_->set_detail(std::string(d));
  }
  void set_status(core::StatusCode s) {
    if (span_) span_->set_status(s);
  }

 private:
  std::optional<obs::ScopedSpan> span_;
};

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
      cache_(opts.cache_capacity, kCacheShards),
      // ThreadPool counts the calling thread, so +1 yields `workers`
      // dedicated task threads even though this object never calls
      // parallel_for on its own pool.
      pool_(std::max(1u, opts.workers) + 1) {
  opts_.workers = std::max(1u, opts_.workers);
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
  SnapshotRef snap;
  CostEstimate est;
  if (auto r = admit(desc, /*queued=*/true, snap, est)) {
    prom.set_value(std::move(*r));
    return fut;
  }
  // The admission lease only priced the query: it leases again when a
  // worker runs it, so a queued query never pins a superseded epoch.
  snap.release();
  auto p = std::make_unique<Pending>();
  p->desc = desc;
  p->promise = std::move(prom);
  p->est = est;
  p->submitted_at = std::chrono::steady_clock::now();
  const std::size_t ci = static_cast<std::size_t>(desc.klass);
  bool paused;
  {
    std::lock_guard<std::mutex> lk(qmu_);
    queued_cost_ms_[ci] += est.ms;
    queues_[ci].push_back(std::move(p));
    paused = paused_;
  }
  if (!paused) {
    pool_.submit([this] { drain_one(); }, pool_priority(desc.klass));
  }
  return fut;
}

QueryResult QueryScheduler::execute_now(const QueryDesc& desc) {
  SnapshotRef snap;
  CostEstimate est;
  if (auto r = admit(desc, /*queued=*/false, snap, est)) return std::move(*r);
  QueryResult r = run(desc, est, snap);
  settle(r);
  return r;
}

std::optional<QueryResult> QueryScheduler::admit(const QueryDesc& desc,
                                                 bool queued,
                                                 SnapshotRef& snap,
                                                 CostEstimate& est) {
  {
    std::lock_guard<std::mutex> lk(qmu_);
    ++stats_.submitted;
  }
  QueryResult r;
  r.kind = desc.kind;
  const std::uint64_t epoch = snaps_.current_epoch();
  if (epoch == 0) {
    r.status = QueryStatus::kNoSnapshot;
    settle(r);
    return r;
  }
  if (desc.use_cache) {
    ServeSpan span("serve.cache_lookup", desc.trace);
    const auto hit = cache_.lookup(QueryKey::of(desc, epoch));
    span.set_detail(hit ? "hit" : "miss");
    if (hit) {
      r = *hit;  // immutable shared entry; copy for the caller
      r.cache_hit = true;
      r.wait_ms = 0.0;
      r.exec_ms = 0.0;  // no kernel ran for this caller
      settle(r);
      return r;
    }
  }
  // Lease the snapshot, predict the Fig. 3 cost, gate on the deadline
  // budget. The lease span nests under admission so the trace reads
  // query → admission → snapshot epoch → kernel → engine steps.
  ServeSpan adm("serve.admission", desc.trace);
  {
    ServeSpan lease("serve.snapshot_lease", adm.context());
    snap = snaps_.acquire();
    // Epochs only advance, so a published epoch always has a snapshot.
    GA_ASSERT(snap);
    if (lease.live()) lease.set_detail("epoch=" + std::to_string(snap.epoch()));
  }
  est = model_.predict(desc, snap.view().num_vertices(),
                       snap.view().num_arcs());
  if (adm.live()) {
    char detail[64];
    std::snprintf(detail, sizeof(detail), "predicted_ms=%.3f", est.ms);
    adm.set_detail(detail);
  }
  r.predicted_ms = est.ms;
  r.epoch = snap.epoch();
  const std::size_t ci = static_cast<std::size_t>(desc.klass);
  {
    std::lock_guard<std::mutex> lk(qmu_);
    r.status = QueryStatus::kOk;  // admitted unless a check below rejects
    if (queued && queues_[ci].size() >= opts_.max_queue_per_class) {
      r.status = QueryStatus::kRejectedBacklog;
    } else if (desc.deadline_ms > 0.0 && est.ms > desc.deadline_ms) {
      r.status = QueryStatus::kRejectedCost;
    } else if (queued && desc.deadline_ms > 0.0) {
      // Work queued at this class or better drains before this query can
      // start; spread across the worker threads it bounds the expected
      // wait.
      double ahead_ms = 0.0;
      for (std::size_t c = 0; c <= ci; ++c) ahead_ms += queued_cost_ms_[c];
      if (ahead_ms / opts_.workers + est.ms > desc.deadline_ms) {
        r.status = QueryStatus::kRejectedOverload;
      }
    }
    if (r.ok()) {
      ++stats_.admitted;
      return std::nullopt;
    }
  }
  adm.set_status(status_code(r.status));
  settle(r);
  return r;
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
      while (deltas_.size() > kMaxDeltaHistory) deltas_.pop_front();
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
      warm_pr_ = {};
      warm_wcc_ = {};
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

void QueryScheduler::drain_one() {
  std::vector<std::unique_ptr<Pending>> group;
  SnapshotRef snap;
  {
    std::lock_guard<std::mutex> lk(qmu_);
    const auto take = [&](std::size_t c,
                          std::deque<std::unique_ptr<Pending>>::iterator it) {
      queued_cost_ms_[c] = std::max(0.0, queued_cost_ms_[c] - (*it)->est.ms);
      group.push_back(std::move(*it));
      ++in_flight_;
      return queues_[c].erase(it);
    };
    for (std::size_t c = 0; c < 3 && group.empty(); ++c) {
      if (!queues_[c].empty()) take(c, queues_[c].begin());
    }
    if (group.empty()) return;  // this task's query joined a fused group
    // Leased under the queue lock, so after every queued query's admission:
    // a query never runs on an epoch older than the one it was admitted at.
    snap = snaps_.acquire();
    // Admission leased a snapshot, and epochs only advance.
    GA_ASSERT(snap);
    // BFS queries fuse only on a flat snapshot, the one layout the
    // multi-source pass reads; on a chained or tiered view each seed runs
    // alone.
    const bool fuse = opts_.enable_batching && snap.view().flat();
    const auto fusable = [&](const Pending& p) {
      return fuse && p.desc.kind == QueryKind::kBfs &&
             p.desc.seed < snap.view().num_vertices();
    };
    if (fusable(*group.front())) {
      for (std::size_t c = 0; c < 3; ++c) {
        auto& q = queues_[c];
        auto it = q.begin();
        while (it != q.end() && group.size() < kMaxBfsBatch) {
          it = fusable(**it) ? take(c, it) : std::next(it);
        }
      }
    }
  }
  std::vector<Pending*> live;
  for (auto& p : group) {
    if (leave_queue(*p)) live.push_back(p.get());
  }
  if (live.size() > 1) {
    run_fused(live, snap);
    return;
  }
  for (Pending* p : live) finish(*p, run(p->desc, p->est, snap));
}

bool QueryScheduler::leave_queue(Pending& p) {
  p.wait_ms = ms_since(p.submitted_at);
  if (p.desc.trace.valid()) {
    // Queue wait was measured outside any scope; attach it retroactively.
    obs::Tracer& tracer = obs::Tracer::global();
    tracer.emit_interval(p.desc.trace, "serve.queue_wait",
                         tracer.now_ms() - p.wait_ms, p.wait_ms);
  }
  if (p.desc.deadline_ms > 0.0 && p.wait_ms > p.desc.deadline_ms) {
    QueryResult r;
    r.status = QueryStatus::kDeadlineMiss;
    r.kind = p.desc.kind;
    r.predicted_ms = p.est.ms;
    finish(p, std::move(r));
    return false;
  }
  return true;
}

QueryResult QueryScheduler::run(const QueryDesc& desc, const CostEstimate& est,
                                const SnapshotRef& snap) {
  QueryResult r;
  core::WallTimer timer;
  {
    ServeSpan span(kKernelSpan, desc.trace);
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
  if (r.ok()) {
    // An incremental serve already fed observe_incremental inside
    // run_kernel; feeding its (much smaller) time into the batch EWMA
    // would poison the batch calibration.
    if (!r.incremental) model_.observe(desc.kind, est.raw_ms, r.exec_ms);
    if (desc.use_cache) {
      ServeSpan span("serve.cache_write", desc.trace);
      cache_.insert(QueryKey::of(desc, snap.epoch()),
                    std::make_shared<const QueryResult>(r));
    }
  }
  return r;
}

void QueryScheduler::run_fused(const std::vector<Pending*>& group,
                               const SnapshotRef& snap) {
  std::vector<vid_t> seeds;
  seeds.reserve(group.size());
  for (const Pending* p : group) seeds.push_back(p->desc.seed);
  QueryResult fail;
  bool failed = false;
  engine::MultiSourceBfsResult ms;
  core::WallTimer timer;
  try {
    // Bit-parallel fused pass; drain_one groups only on flat snapshots.
    ms = engine::multi_source_bfs(snap.view().base(), seeds);
  } catch (const std::exception& e) {
    failed = true;
    fail.status = QueryStatus::kFailed;
    fail.error = e.what();
  }
  const double exec_ms = timer.millis();
  {
    std::lock_guard<std::mutex> lk(qmu_);
    ++stats_.batches;
    stats_.batched_queries += group.size();
  }
  const vid_t n = snap.view().num_vertices();
  for (std::size_t i = 0; i < group.size(); ++i) {
    Pending& p = *group[i];
    QueryResult r = fail;
    if (!failed) {
      r.status = QueryStatus::kOk;
      r.dist.resize(n);
      for (vid_t v = 0; v < n; ++v) r.dist[v] = ms.dist_of(v, i);
      r.reached = ms.reached[i];
      set_bfs_footprint(r);
    }
    r.kind = QueryKind::kBfs;
    r.batched = true;
    r.exec_ms = exec_ms;
    r.predicted_ms = p.est.ms;
    r.epoch = snap.epoch();
    if (p.desc.trace.valid()) {
      // The pass ran outside every member's scope; give each traced member
      // the interval retroactively, as its queue wait.
      obs::Tracer& tracer = obs::Tracer::global();
      tracer.emit_interval(p.desc.trace, kKernelSpan,
                           tracer.now_ms() - exec_ms, exec_ms,
                           obs::BoundResource::kNone, status_code(r.status),
                           "bfs fused=" + std::to_string(group.size()));
    }
    // A fused pass measures k queries at once; per-query calibration only
    // learns from solo executions, so skip observe() here.
    if (r.ok() && p.desc.use_cache) {
      cache_.insert(QueryKey::of(p.desc, snap.epoch()),
                    std::make_shared<const QueryResult>(r));
    }
    finish(p, std::move(r));
  }
}

template <typename R, typename Refine, typename Batch>
std::shared_ptr<const R> QueryScheduler::serve_warm(
    WarmSlot<R>& slot, const QueryDesc& desc, const store::GraphView& v,
    QueryResult& r, Refine refine, Batch batch) {
  // Refinement self-falls-back (shape mismatch, deletes, churn,
  // non-convergence), so the answer is always exact or within batch
  // tolerance.
  std::shared_ptr<const R> prev;
  store::DeltaSummary merged;
  if (desc.allow_incremental) {
    std::lock_guard<std::mutex> lk(warm_mu_);
    if (slot.result != nullptr && slot.epoch <= v.epoch() &&
        merged_delta(slot.epoch, v.epoch(), merged)) {
      prev = slot.result;
    }
  }
  std::shared_ptr<const R> res;
  if (prev != nullptr) {
    const CostEstimate inc_est = model_.predict_incremental(
        desc, v.num_vertices(), v.num_arcs(),
        static_cast<vid_t>(merged.changed_vertices.size()));
    const CostEstimate batch_est =
        model_.predict(desc, v.num_vertices(), v.num_arcs());
    if (inc_est.ms <= batch_est.ms) {
      kernels::IncrementalOutcome out;
      core::WallTimer timer;
      res = std::make_shared<const R>(refine(*prev, merged, &out));
      r.incremental = out.incremental;
      // Observed unconditionally: when the refinement fell back, the timer
      // covers warm attempt + internal batch recompute, so the EWMA learns
      // the tier's true expected cost (including fallback risk) and stops
      // picking a tier that keeps paying double.
      model_.observe_incremental(desc.kind, inc_est.raw_ms, timer.millis());
      std::lock_guard<std::mutex> lk(qmu_);
      ++(out.incremental ? stats_.incremental_served
                         : stats_.incremental_fallbacks);
    }
  }
  if (res == nullptr) res = std::make_shared<const R>(batch());
  {
    std::lock_guard<std::mutex> lk(warm_mu_);
    if (slot.result == nullptr || v.epoch() >= slot.epoch) {
      slot.result = res;
      slot.epoch = v.epoch();
    }
  }
  return res;
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
      const auto res = serve_warm(
          warm_pr_, desc, v, r,
          [&](const kernels::PageRankResult& prev,
              const store::DeltaSummary& delta,
              kernels::IncrementalOutcome* out) {
            return kernels::update_pagerank(prev, delta, v,
                                            serving_pagerank_opts(),
                                            serving_inc_opts(), out);
          },
          [&] { return kernels::pagerank(v, serving_pagerank_opts()); });
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
      const auto res = serve_warm(
          warm_wcc_, desc, v, r,
          [&](const kernels::ComponentsResult& prev,
              const store::DeltaSummary& delta,
              kernels::IncrementalOutcome* out) {
            return kernels::update_wcc(prev, delta, v, serving_inc_opts(),
                                       out);
          },
          [&] { return kernels::wcc_label_propagation(v); });
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

void QueryScheduler::settle(const QueryResult& r) {
  {
    std::lock_guard<std::mutex> lk(qmu_);
    if (r.cache_hit) {
      ++stats_.cache_hits;
    } else {
      switch (r.status) {
        case QueryStatus::kOk: ++stats_.completed; break;
        case QueryStatus::kRejectedCost: ++stats_.rejected_cost; break;
        case QueryStatus::kRejectedOverload: ++stats_.rejected_overload; break;
        case QueryStatus::kRejectedBacklog: ++stats_.rejected_backlog; break;
        case QueryStatus::kDeadlineMiss: ++stats_.deadline_misses; break;
        case QueryStatus::kNoSnapshot: ++stats_.no_snapshot; break;
        case QueryStatus::kFailed: ++stats_.failed; break;
      }
    }
  }
  obs_count_query(r);
}

void QueryScheduler::finish(Pending& p, QueryResult&& r) {
  r.wait_ms = p.wait_ms;
  // Account BEFORE resolving the future: a caller unblocked by get() must
  // already see this query reflected in stats(). in_flight_ drops after
  // set_value so drain() cannot return with an unresolved future.
  settle(r);
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
