// The Fig. 2 streaming→batch coupling: a StreamProcessor applies updates
// to a dynamic graph, keeps incremental metrics hot, and when a local
// metric change crosses a trigger threshold, uses the modified vertices as
// SEEDS into a subgraph extraction and runs a batch analytic over the
// extracted subgraph — producing alerts and/or property write-backs
// exactly as the paper's canonical flow describes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/dynamic_graph.hpp"
#include "kernels/incremental.hpp"
#include "resilience/ingest_queue.hpp"
#include "resilience/retry.hpp"
#include "store/epoch_log.hpp"
#include "store/versioned_store.hpp"
#include "streaming/incremental_triangles.hpp"
#include "streaming/topk_tracker.hpp"
#include "streaming/update_stream.hpp"

namespace ga::streaming {

struct Alert {
  std::int64_t ts = 0;
  vid_t seed = 0;
  std::string reason;
  double metric = 0.0;
  vid_t subgraph_vertices = 0;   // size of the extracted neighborhood
  double analytic_result = 0.0;  // batch analytic output on the subgraph
  /// True when the full re-analytic missed its deadline or kept failing and
  /// analytic_result came from the incremental approximation instead.
  bool degraded = false;
};

struct TriggerPolicy {
  /// Fire when one edge insert closes at least this many new triangles
  /// (sudden local densification).
  std::uint64_t triangle_delta_threshold = 8;
  /// Fire when a component merge creates a component at least this large.
  vid_t component_size_threshold = 0;  // 0 = disabled
  /// Fire when the degree top-k membership changes.
  bool fire_on_topk_change = false;
  /// Depth of the seed neighborhood extracted on fire.
  std::uint32_t extraction_depth = 2;
};

/// Batch analytic run on each extracted subgraph: receives the subgraph
/// and the seed's local id within it, returns a scalar result.
using SubgraphAnalytic =
    std::function<double(const graph::CSRGraph&, vid_t seed_local)>;

struct StreamStats {
  std::uint64_t inserts = 0;
  std::uint64_t deletes = 0;
  std::uint64_t property_updates = 0;
  std::uint64_t queries = 0;
  std::uint64_t triggers = 0;
  std::uint64_t epoch_publications = 0;  // snapshots pushed to the publisher
  // Resilience counters for the trigger path (extraction + re-analytic).
  std::uint64_t retries = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t degraded = 0;        // alerts served by the fallback metric
  std::uint64_t dropped_alerts = 0;  // extraction/analytic failed outright
};

class StreamProcessor {
 public:
  StreamProcessor(graph::DynamicGraph& g, TriggerPolicy policy,
                  std::size_t topk = 10);

  /// Set the batch analytic run on trigger (default: average degree).
  void set_analytic(SubgraphAnalytic analytic);

  /// Route the trigger path (extraction + analytic) through a deadline +
  /// retry stage executor (stages "trigger_extract" / "trigger_analytic").
  /// When the full analytic exhausts its retries or misses its deadline,
  /// the alert degrades to the incremental approximation already kept hot
  /// (the seed's component size from StreamingComponents by default; override
  /// with set_degraded_analytic, e.g. a warm update_pagerank rank).
  void set_stage_executor(resilience::StageExecutor* executor,
                          resilience::StageOptions stage_opts = {});

  /// Fallback metric for degraded alerts: fn(seed) -> approximate result.
  void set_degraded_analytic(std::function<double(vid_t)> fn);

  /// Route versioned graph views to a downstream consumer (typically
  /// server::AnalyticsServer::publisher()) every `every_n_updates`
  /// structural updates and after every trigger fire. The first publish
  /// seeds an embedded VersionedGraphStore from the dynamic graph (one
  /// O(|E|) snapshot); every later publish seals the accumulated delta
  /// batch and ships an O(Δ) overlay view — the store's compactor decides
  /// when a full fold is worth it. Keeps the serving layer's epoch fresh
  /// without this layer depending on the server.
  void set_epoch_publisher(std::function<void(store::GraphView)> fn,
                           std::uint64_t every_n_updates = 1024);

  /// Push the current graph state to the publisher immediately.
  void publish_epoch();

  /// Make every published epoch durable: the log is attached to the
  /// embedded store (appending each sealed epoch pre-publish, driving the
  /// checkpoint cadence post-publish) as soon as the store exists. Not
  /// owned; must outlive the processor. Call before the first publish.
  void set_epoch_log(store::EpochLog* log);

  /// The embedded delta-chain store backing epoch publication; nullptr
  /// until the first publish seeds it. Exposed so harnesses can start the
  /// background compactor or read chain-depth / compaction stats.
  store::VersionedGraphStore* versioned_store() { return versioned_.get(); }
  const store::VersionedGraphStore* versioned_store() const {
    return versioned_.get();
  }

  /// Apply one update; may append to alerts().
  void apply(const Update& u);

  /// Apply a whole stream.
  void apply_all(const std::vector<Update>& stream);

  const std::vector<Alert>& alerts() const { return alerts_; }
  const StreamStats& stats() const { return stats_; }
  IncrementalTriangles& triangles() { return tris_; }
  kernels::StreamingComponents& components() { return cc_; }
  TopKTracker& degree_topk() { return topk_; }

 private:
  void fire(vid_t seed, const std::string& reason, double metric,
            std::int64_t ts);
  /// Folds pending_ into the versioned store (seeding it on first call).
  void sync_store();

  graph::DynamicGraph& g_;
  TriggerPolicy policy_;
  kernels::StreamingComponents cc_;
  IncrementalTriangles tris_;
  TopKTracker topk_;
  SubgraphAnalytic analytic_;
  std::vector<Alert> alerts_;
  StreamStats stats_;
  resilience::StageExecutor* executor_ = nullptr;
  resilience::StageOptions stage_opts_;
  std::function<double(vid_t)> degraded_analytic_;
  std::function<void(store::GraphView)> epoch_publisher_;
  store::EpochLog* epoch_log_ = nullptr;
  std::uint64_t publish_every_n_ = 1024;
  std::uint64_t updates_since_publish_ = 0;
  // Delta capture for O(Δ) epoch publication: pending_ mirrors the exact
  // mutations applied to g_ since the last publish (populated only once a
  // publisher is set); versioned_ is seeded lazily on the first publish.
  std::unique_ptr<store::VersionedGraphStore> versioned_;
  store::DeltaBatch pending_;
};

/// Producer/consumer streaming run with backpressure: a producer thread
/// offers `stream` into a bounded IngestQueue under `qopts` while the
/// calling thread pops and applies — Fig. 2's update stream decoupled from
/// the apply loop so overload sheds or blocks at the queue instead of
/// corrupting the processor.
struct BackpressureReport {
  resilience::QueueStats queue;
  std::size_t applied = 0;
  double seconds = 0.0;
};
BackpressureReport run_with_backpressure(StreamProcessor& proc,
                                         const std::vector<Update>& stream,
                                         const resilience::QueueOptions& qopts);

}  // namespace ga::streaming
