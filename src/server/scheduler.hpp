// QueryScheduler: typed queries over immutable snapshots, executed by a
// priority-aware ThreadPool. Per-class FIFO queues (interactive, standard,
// batch) map onto core::TaskPriority; admission control is model-driven —
// the Fig. 3 bounding-resource prediction (ServingCostModel) gates every
// submission, so a query whose predicted cost (or predicted queue wait)
// exceeds its deadline budget is REJECTED with backpressure instead of
// stalling the queue. Both entry points — submit() and execute_now() —
// pass one admission front and execute through one run body; queued BFS
// requests on a flat snapshot are fused into one engine::multi_source_bfs
// pass, and every completed result lands in the epoch-keyed ResultCache.
//
// Incremental serving: each epoch publish delivers the store's
// DeltaSummary through the snapshot listener. The scheduler keeps a
// bounded, contiguous history of summaries plus the last computed
// PageRank/WCC results (one warm slot per kind, served by one warm-tier
// routine), and for each new query lets the cost model choose between
// three serving tiers — cached answer (delta-aware carry-forward in
// ResultCache), incremental refinement of the warm result against the
// merged delta chain (kernels::update_*), or batch recompute. Refinement
// self-falls-back to batch when its preconditions fail (deletes for WCC,
// churn/convergence for PageRank), so answers are always exact-or-
// tolerance-equivalent to batch.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/thread_pool.hpp"
#include "server/cost_model.hpp"
#include "server/result_cache.hpp"
#include "server/snapshot.hpp"

namespace ga::kernels {
struct ComponentsResult;
struct PageRankResult;
}  // namespace ga::kernels

namespace ga::store {
struct DeltaSummary;
}

namespace ga::server {

struct SchedulerOptions {
  /// Dedicated worker threads executing queries (>= 1). Query kernels run
  /// serially inside a worker; concurrency comes from workers x queries.
  unsigned workers = 4;
  /// Per-class pending cap; submissions beyond it get kRejectedBacklog.
  std::size_t max_queue_per_class = 256;
  /// Fuse queued BFS queries on a flat snapshot into one multi-source pass.
  bool enable_batching = true;
  std::size_t cache_capacity = 4096;
  /// Tests: queue submissions without executing until resume() — makes
  /// batching and priority order deterministic.
  bool start_paused = false;
};

struct SchedulerStats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t cache_hits = 0;        // served without touching a worker
  std::uint64_t rejected_cost = 0;
  std::uint64_t rejected_overload = 0;
  std::uint64_t rejected_backlog = 0;
  std::uint64_t no_snapshot = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t deadline_misses = 0;   // admitted but budget expired queued
  std::uint64_t batches = 0;           // fused multi-source passes
  std::uint64_t batched_queries = 0;   // queries served by those passes
  std::uint64_t incremental_served = 0;     // refined from warm state
  std::uint64_t incremental_fallbacks = 0;  // refinement chosen, fell back
};

class QueryScheduler {
 public:
  /// `snaps` must outlive the scheduler.
  explicit QueryScheduler(SnapshotManager& snaps, SchedulerOptions opts = {});
  ~QueryScheduler();

  QueryScheduler(const QueryScheduler&) = delete;
  QueryScheduler& operator=(const QueryScheduler&) = delete;

  /// Admission-checked asynchronous submission. The future always resolves:
  /// cache hits and rejections resolve before submit returns, admitted
  /// queries resolve when a worker completes (or expires) them.
  std::future<QueryResult> submit(const QueryDesc& desc);

  /// Synchronous execution on the calling thread: the same admission front
  /// (cache, cost gate) and run body as submit(), minus the queue and its
  /// backlog and overload checks. Benches use it for cold/hit probes.
  QueryResult execute_now(const QueryDesc& desc);

  /// Blocks until every admitted query has resolved.
  void drain();

  /// start_paused control (see SchedulerOptions).
  void resume();

  SchedulerStats stats() const;
  ResultCache& cache() { return cache_; }
  const ResultCache& cache() const { return cache_; }
  ServingCostModel& cost_model() { return model_; }
  const ServingCostModel& cost_model() const { return model_; }
  engine::CounterGroup counters() const;

 private:
  struct Pending {
    QueryDesc desc;
    std::promise<QueryResult> promise;
    CostEstimate est;
    std::chrono::steady_clock::time_point submitted_at;
    double wait_ms = 0.0;  // set when the query leaves the queue
  };

  /// Last result of one warm-tier kind and the store epoch it answers.
  template <typename R>
  struct WarmSlot {
    std::shared_ptr<const R> result;
    std::uint64_t epoch = 0;
  };

  /// The admission front both entry points share: epoch-0 check, cache
  /// lookup, snapshot lease, cost prediction, deadline test — plus the
  /// backlog and overload checks when the query is `queued`. Returns the
  /// query's (already counted) result when it ends here; otherwise counts
  /// the admission, fills `snap` and `est`, and returns nullopt.
  std::optional<QueryResult> admit(const QueryDesc& desc, bool queued,
                                   SnapshotRef& snap, CostEstimate& est);
  /// Worker task body: pop one query (with every fusable BFS behind it on
  /// a flat snapshot) and execute it.
  void drain_one();
  /// Records a query's queue wait and settles an expired budget as a
  /// deadline miss; false when the query was settled.
  bool leave_queue(Pending& p);
  /// The run body every query that executes alone goes through: kernel
  /// span, run_kernel, result header, calibration, cache write.
  QueryResult run(const QueryDesc& desc, const CostEstimate& est,
                  const SnapshotRef& snap);
  /// One bit-parallel pass answering 2..kMaxBfsBatch BFS queries on a
  /// flat snapshot.
  void run_fused(const std::vector<Pending*>& group, const SnapshotRef& snap);
  /// Runs the kernel for `desc` against `snap`, filling payload fields.
  QueryResult run_kernel(const QueryDesc& desc, const SnapshotRef& snap);
  /// The warm tier of PageRank and WCC: refine `slot` over the merged
  /// delta chain when it is fresh enough and the cost model predicts that
  /// beats `batch()`, else recompute; then advance the slot.
  template <typename R, typename Refine, typename Batch>
  std::shared_ptr<const R> serve_warm(WarmSlot<R>& slot, const QueryDesc& desc,
                                      const store::GraphView& v,
                                      QueryResult& r, Refine refine,
                                      Batch batch);
  /// Counts a query's outcome in stats and the metrics registry.
  void settle(const QueryResult& r);
  /// Async completion: settle, resolve the promise, leave in_flight_.
  void finish(Pending& p, QueryResult&& r);
  /// Epoch listener body: maintains the contiguous delta history + warm
  /// incremental state, then routes the delta to the cache's delta-aware
  /// invalidation.
  void on_epoch_published(std::uint64_t epoch, const store::GraphView& view);
  /// Merges the summary chain covering store epochs (from, to] into `out`.
  /// Returns false when the retained history does not reach back to
  /// `from` (warm state too stale → batch). warm_mu_ must be held.
  bool merged_delta(std::uint64_t from, std::uint64_t to,
                    store::DeltaSummary& out) const;
  static core::TaskPriority pool_priority(QueryClass c) {
    return static_cast<core::TaskPriority>(c);
  }

  SnapshotManager& snaps_;
  SchedulerOptions opts_;
  ServingCostModel model_;
  ResultCache cache_;

  mutable std::mutex qmu_;
  std::condition_variable drain_cv_;
  std::deque<std::unique_ptr<Pending>> queues_[3];  // by QueryClass
  double queued_cost_ms_[3] = {0.0, 0.0, 0.0};
  std::size_t in_flight_ = 0;
  bool paused_ = false;
  SchedulerStats stats_;

  // Warm incremental state, keyed by STORE epoch (view.epoch()) — distinct
  // from the manager's publish epoch: the store numbers graph versions,
  // the manager numbers publications. deltas_ holds a contiguous run of
  // summaries ending at last_store_epoch_; any non-contiguous publish
  // clears it (and the warm results), so a merge over it is always exact.
  mutable std::mutex warm_mu_;
  std::uint64_t last_store_epoch_ = 0;
  bool saw_publish_ = false;
  std::deque<std::shared_ptr<const store::DeltaSummary>> deltas_;
  WarmSlot<kernels::PageRankResult> warm_pr_;
  WarmSlot<kernels::ComponentsResult> warm_wcc_;

  // Declared last: destroyed first, so worker tasks (which borrow every
  // member above) are joined before any state they touch goes away.
  core::ThreadPool pool_;
};

}  // namespace ga::server
