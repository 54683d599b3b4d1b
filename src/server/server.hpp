// AnalyticsServer: the serving layer's front door. Owns the snapshot
// manager and the query scheduler, and exposes the two verbs the rest of
// the system needs: publish(view) for writers (batch pipeline, streaming
// trigger) and submit(query) for readers. The publisher() adapter returns a
// plain std::function so lower layers (pipeline, streaming) can push
// epochs into the server without linking against ga_server — they depend
// only on store::GraphView and std::function.
#pragma once

#include <functional>
#include <future>
#include <string>
#include <vector>

#include "server/scheduler.hpp"
#include "server/snapshot.hpp"

namespace ga::server {

class AnalyticsServer {
 public:
  explicit AnalyticsServer(SchedulerOptions opts = {})
      : scheduler_(snapshots_, opts) {}

  /// Publishes `v` as the next immutable epoch; returns the epoch id.
  /// O(Δ): views share their base CSR with earlier epochs. In-flight
  /// queries keep their leased snapshots; the result cache drops entries
  /// from earlier epochs.
  std::uint64_t publish(store::GraphView v) {
    return snapshots_.publish(std::move(v));
  }
  /// Full-rebuild publication; rvalue only — the hot publish path never
  /// copies CSR arrays.
  std::uint64_t publish(graph::CSRGraph&& g) {
    return snapshots_.publish(std::move(g));
  }

  /// Adapter for layers that publish epochs but must not depend on the
  /// server (streaming triggers, pipeline flows). Views are cheap value
  /// types, so the hand-off moves a couple of shared_ptrs.
  std::function<void(store::GraphView)> publisher() {
    return [this](store::GraphView v) { snapshots_.publish(std::move(v)); };
  }

  std::future<QueryResult> submit(const QueryDesc& desc) {
    return scheduler_.submit(desc);
  }
  QueryResult execute_now(const QueryDesc& desc) {
    return scheduler_.execute_now(desc);
  }
  void drain() { scheduler_.drain(); }
  void resume() { scheduler_.resume(); }

  SnapshotManager& snapshots() { return snapshots_; }
  QueryScheduler& scheduler() { return scheduler_; }

  /// Serving-health counters: snapshots, scheduler, result cache — ready
  /// for engine::format_counter_groups.
  std::vector<engine::CounterGroup> counters() const;

  /// Human-readable health block (what fig2_canonical_flow prints).
  std::string format_health() const;

  /// Publish the serving-health counters into the metrics registry (gauges
  /// named serve.<group>.<counter>), making the health surface a registry
  /// view readable through the one exposition API.
  void publish_metrics(
      obs::MetricsRegistry& reg = obs::MetricsRegistry::global()) const;

  /// publish_metrics + the registry's exposition: text (default) or JSON.
  std::string export_metrics(bool json = false) const;

 private:
  // Scheduler declared after the manager it borrows; destroyed first, so
  // it drains its queries and unhooks its epoch listener while the
  // manager still exists.
  SnapshotManager snapshots_;
  QueryScheduler scheduler_;
};

}  // namespace ga::server
