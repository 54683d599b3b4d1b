// Epoch-versioned immutable snapshot publication — the serving layer's
// answer to the paper's central tension (Fig. 2): batch analytics want a
// frozen CSR while the update stream keeps mutating the persistent graph.
// A writer publishes a new immutable CSRGraph under the next epoch; readers
// lease the current snapshot through RAII SnapshotRef handles and keep
// reading it unperturbed while newer epochs appear. A lease is shared
// ownership of its snapshot, as a GraphView is of its arrays: a superseded
// snapshot is freed when its last lease drops, so a lease can never
// outlive the data it reads — readers never block writers, writers never
// invalidate a running query.
//
// Concurrency contract: publish/acquire take a mutex for pointer motion
// only (no graph copies happen under the lock); graph reads are lock-free
// because snapshots are immutable after publication.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "engine/telemetry.hpp"
#include "graph/csr_graph.hpp"
#include "store/graph_view.hpp"

namespace ga::server {

/// One immutable published graph version. Since the delta-chain refactor
/// the payload is a store::GraphView — usually an O(Δ) delta overlay over
/// a base CSR shared with earlier epochs, occasionally a flat CSR when the
/// store's compactor decided a full rebuild.
class Snapshot {
 public:
  Snapshot(std::uint64_t epoch, store::GraphView v)
      : epoch_(epoch), view_(std::move(v)) {}

  std::uint64_t epoch() const { return epoch_; }
  const store::GraphView& view() const { return view_; }
  /// Flat read path: free on flat views; on a delta-backed view the first
  /// caller pays one cached fold (the read-amplification half of the
  /// store's compaction-policy bargain).
  const graph::CSRGraph& graph() const { return view_.csr(); }

 private:
  std::uint64_t epoch_ = 0;
  store::GraphView view_;
};

/// RAII reader lease on one snapshot. Movable, not copyable. The lease
/// co-owns its snapshot, so the snapshot (and its epoch's CSR arrays)
/// outlives every live ref even if arbitrarily many newer epochs are
/// published meanwhile.
class SnapshotRef {
 public:
  SnapshotRef() = default;
  SnapshotRef(SnapshotRef&&) noexcept = default;
  SnapshotRef& operator=(SnapshotRef&&) noexcept = default;
  SnapshotRef(const SnapshotRef&) = delete;
  SnapshotRef& operator=(const SnapshotRef&) = delete;

  explicit operator bool() const { return snap_ != nullptr; }
  const Snapshot* operator->() const { return snap_.get(); }
  const Snapshot& operator*() const { return *snap_; }
  const store::GraphView& view() const { return snap_->view(); }
  const graph::CSRGraph& graph() const { return snap_->graph(); }
  std::uint64_t epoch() const { return snap_->epoch(); }

  void release() { snap_.reset(); }

 private:
  friend class SnapshotManager;
  explicit SnapshotRef(std::shared_ptr<const Snapshot> snap)
      : snap_(std::move(snap)) {}

  std::shared_ptr<const Snapshot> snap_;
};

struct SnapshotManagerStats {
  std::uint64_t published = 0;    // epochs published so far
  std::uint64_t reclaimed = 0;    // retired snapshots whose memory was freed
  std::uint64_t acquires = 0;     // leases handed out
  std::size_t retired_live = 0;   // superseded snapshots pinned by readers
  std::uint64_t current_epoch = 0;
  /// Unique bytes held across every live epoch (current + reader-pinned
  /// retired), deduplicated by shared base/layer allocation — delta epochs
  /// share their base CSR, so this grows by O(Δ) per pinned epoch.
  std::size_t live_bytes = 0;
  /// Modeled size of one flat CSR of the current content.
  std::size_t flat_bytes = 0;
  /// live_bytes / flat_bytes: 1.0 when a single flat epoch is live.
  double memory_amplification = 0.0;
};

class SnapshotManager {
 public:
  SnapshotManager() = default;

  SnapshotManager(const SnapshotManager&) = delete;
  SnapshotManager& operator=(const SnapshotManager&) = delete;

  /// Publishes `v` as the next epoch and returns that epoch (1-based; epoch
  /// 0 means "nothing published yet"). O(Δ): a view is a couple of
  /// shared_ptrs, no graph data moves. The previous snapshot is retired and
  /// freed once its last lease drops. The epoch listener (if any) runs
  /// after the swap, outside the lock — the result cache hooks it to drop
  /// stale entries.
  std::uint64_t publish(store::GraphView v);

  /// Full-rebuild publication (the legacy path, now the exception: the
  /// store's compactor decides when a flat CSR is worth it). Takes the
  /// graph by rvalue — the hot publish path never copies CSR arrays.
  std::uint64_t publish(graph::CSRGraph&& g) {
    return publish(store::GraphView::of(std::move(g)));
  }

  /// Leases the current snapshot; empty ref when nothing is published yet.
  SnapshotRef acquire();

  std::uint64_t current_epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Called after each publish, outside the lock, with the new epoch and
  /// the published view (single listener). The view carries the store's
  /// DeltaSummary when the epoch was produced by a delta apply — the
  /// scheduler's delta-aware cache invalidation and warm incremental
  /// state both hang off this hook.
  using EpochListener =
      std::function<void(std::uint64_t, const store::GraphView&)>;
  void set_epoch_listener(EpochListener fn);

  SnapshotManagerStats stats() const;
  engine::CounterGroup counters() const;

 private:
  /// Drops the retired epochs whose last lease is gone, counting them as
  /// reclaimed (mu_ held).
  void prune_locked() const;

  mutable std::mutex mu_;
  std::shared_ptr<const Snapshot> current_;
  /// Superseded epochs; expired once no lease holds them.
  mutable std::vector<std::weak_ptr<const Snapshot>> retired_;
  std::atomic<std::uint64_t> epoch_{0};
  mutable std::uint64_t reclaimed_ = 0;
  std::uint64_t acquires_ = 0;
  EpochListener listener_;
};

}  // namespace ga::server
