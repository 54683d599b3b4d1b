#include "server/snapshot.hpp"

#include <chrono>
#include <unordered_set>

namespace ga::server {

std::uint64_t SnapshotManager::publish(store::GraphView v) {
  GA_CHECK(v.valid(), "SnapshotManager::publish: empty view");
  const auto t0 = std::chrono::steady_clock::now();
  EpochListener listener;
  std::uint64_t epoch;
  // Cheap handle copy (shared base + layer pointers) so the listener can
  // read the published view outside the lock without racing a subsequent
  // publish that retires the snapshot.
  const store::GraphView published = v;
  {
    std::lock_guard<std::mutex> lk(mu_);
    epoch = epoch_.load(std::memory_order_relaxed) + 1;
    if (current_ != nullptr) retired_.emplace_back(current_);
    current_ = std::make_shared<const Snapshot>(epoch, std::move(v));
    epoch_.store(epoch, std::memory_order_release);
    prune_locked();
    listener = listener_;
  }
  if (listener) listener(epoch, published);
  if (obs::enabled()) {
    auto& reg = obs::MetricsRegistry::global();
    static obs::Counter& c_pub = reg.counter("snapshot.epochs_published_total");
    static obs::Gauge& g_epoch = reg.gauge("snapshot.current_epoch");
    c_pub.add();
    g_epoch.set(static_cast<double>(epoch));
    reg.histogram("snapshot.publish_us")
        .observe(std::chrono::duration<double, std::micro>(
                     std::chrono::steady_clock::now() - t0)
                     .count());
  }
  return epoch;
}

SnapshotRef SnapshotManager::acquire() {
  if (obs::enabled()) {
    static obs::Counter& c_leases =
        obs::MetricsRegistry::global().counter("snapshot.leases_total");
    c_leases.add();
  }
  std::lock_guard<std::mutex> lk(mu_);
  if (current_ == nullptr) return {};
  ++acquires_;
  return SnapshotRef(current_);
}

void SnapshotManager::prune_locked() const {
  const std::size_t n = retired_.size();
  std::erase_if(retired_, [](const std::weak_ptr<const Snapshot>& s) {
    return s.expired();
  });
  reclaimed_ += n - retired_.size();
}

void SnapshotManager::set_epoch_listener(EpochListener fn) {
  std::lock_guard<std::mutex> lk(mu_);
  listener_ = std::move(fn);
}

SnapshotManagerStats SnapshotManager::stats() const {
  // Retired epochs pinned while they are accounted; a lease that drops
  // meanwhile leaves its snapshot to be freed here, after the lock.
  std::vector<std::shared_ptr<const Snapshot>> pinned;
  std::lock_guard<std::mutex> lk(mu_);
  prune_locked();
  for (const auto& w : retired_) {
    if (auto s = w.lock()) pinned.push_back(std::move(s));
  }
  SnapshotManagerStats st;
  st.published = epoch_.load(std::memory_order_relaxed);
  st.reclaimed = reclaimed_;
  st.acquires = acquires_;
  st.retired_live = pinned.size();
  st.current_epoch = st.published;

  // Unique bytes across live epochs: delta epochs share their base CSR
  // (and older layers), so dedup by allocation identity before summing.
  std::unordered_set<const void*> seen;
  std::size_t live = 0;
  const auto account = [&](const Snapshot& s) {
    const store::GraphView& v = s.view();
    if (seen.insert(v.base_id()).second) live += v.base_bytes();
    for (const auto& layer : v.chain()) {
      if (seen.insert(layer.get()).second) live += layer->bytes();
    }
  };
  if (current_ != nullptr) account(*current_);
  for (const auto& s : pinned) account(*s);
  st.live_bytes = live;
  if (current_ != nullptr) {
    const store::GraphView& v = current_->view();
    st.flat_bytes = (static_cast<std::size_t>(v.num_vertices()) + 1) *
                        sizeof(eid_t) +
                    static_cast<std::size_t>(v.num_arcs()) *
                        (sizeof(vid_t) + (v.weighted() ? sizeof(float) : 0));
    if (st.flat_bytes > 0) {
      st.memory_amplification =
          static_cast<double>(live) / static_cast<double>(st.flat_bytes);
    }
  }
  return st;
}

engine::CounterGroup SnapshotManager::counters() const {
  const SnapshotManagerStats st = stats();
  return {"snapshots",
          {{"epochs_published", st.published},
           {"leases_acquired", st.acquires},
           {"retired_reclaimed", st.reclaimed},
           {"retired_pinned_by_readers", st.retired_live}}};
}

}  // namespace ga::server
