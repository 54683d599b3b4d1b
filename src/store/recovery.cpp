#include "store/recovery.hpp"

#include <chrono>
#include <cstring>
#include <filesystem>
#include <utility>

#include "core/hash.hpp"
#include "obs/metrics.hpp"
#include "store/delta_summary.hpp"

#ifndef _WIN32
#include <sys/stat.h>
#endif

namespace ga::store {

namespace fs = std::filesystem;

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Does the replayed epoch's summary agree with the one the original
/// writer logged? Content comparison at count granularity — a mismatch
/// means the replay diverged from the original seal (or the base image the
/// replay started from differs), which is exactly the invariant the
/// recovery sweep wants violated loudly.
bool summaries_agree(const DeltaSummary& replayed, const DeltaSummary& logged) {
  return replayed.epoch == logged.epoch &&
         replayed.changed_vertices == logged.changed_vertices &&
         replayed.inserted_arcs == logged.inserted_arcs &&
         replayed.deleted_arcs == logged.deleted_arcs &&
         replayed.weight_updates == logged.weight_updates &&
         replayed.property_vertices == logged.property_vertices &&
         replayed.vertex_growth == logged.vertex_growth;
}

/// Inode of the log file a standby's byte cursor refers to (0 when the
/// file is missing or off-POSIX). EpochLog::truncate_below swaps a new
/// file into the log's path, so an inode change is the deterministic
/// "cursor is meaningless now" signal — including when the new file is no
/// shorter than the cursor, where a size probe alone sees nothing wrong.
std::uint64_t log_inode(const std::string& path) {
#ifndef _WIN32
  struct ::stat st;
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<std::uint64_t>(st.st_ino);
#else
  (void)path;
  return 0;
#endif
}

}  // namespace

RecoveredStore recover(const RecoveryOptions& opts) {
  const auto t0 = std::chrono::steady_clock::now();
  RecoveredStore out;
  RecoveryReport& rep = out.report;

  CheckpointImage image;
  GA_CHECK(load_checkpoint(opts.dir, &image),
           "recovery: no checkpoint in " + opts.dir);
  rep.checkpoint_epoch = image.epoch;

  GraphView initial(image.base, {}, image.props, image.epoch,
                    image.base->num_arcs());
  out.store = std::make_unique<VersionedGraphStore>(std::move(initial),
                                                    opts.compaction);

  const std::string log = EpochLog::log_path(opts.dir);
  const auto scan = resilience::scan_records(log, opts.policy);
  for (const auto& rec : scan.records) {
    if (rec.seq <= out.store->epoch()) {
      // Two legal sources of stale records: the crash window between a
      // checkpoint rename and the log truncation (records at or below the
      // checkpoint epoch), and a failed-fsync-then-retry append that
      // framed the same seq twice. Replay is idempotent by seq: skip both.
      ++rep.skipped;
      continue;
    }
    GA_CHECK(rec.seq == out.store->epoch() + 1,
             "recovery: epoch gap — store at " +
                 std::to_string(out.store->epoch()) +
                 " but log record carries seq " + std::to_string(rec.seq));
    DeltaBatch batch;
    DeltaSummary logged;
    decode_epoch_payload(rec.payload.data(), rec.payload.size(), &batch,
                         &logged);
    out.store->apply(batch);
    if (opts.verify_summaries) {
      const auto replayed = out.store->view().delta_summary();
      if (!replayed || !summaries_agree(*replayed, logged)) {
        ++rep.summary_mismatches;
      }
    }
    ++rep.replayed;
  }
  rep.torn_tail = scan.torn_tail;
  rep.torn_bytes = scan.torn_bytes;
  rep.corrupt_records = scan.corrupt_records;
  rep.recovered_epoch = out.store->epoch();

  if (opts.truncate_torn_tail && scan.torn_tail && scan.corrupt_records == 0) {
    fs::resize_file(log, scan.bytes_valid);
  }
  rep.millis = ms_since(t0);

  if (obs::enabled()) {
    auto& reg = obs::MetricsRegistry::global();
    reg.counter("store.recovery.runs_total").add();
    reg.counter("store.recovery.replayed_epochs_total")
        .add(static_cast<double>(rep.replayed));
    reg.counter("store.recovery.skipped_records_total")
        .add(static_cast<double>(rep.skipped));
    reg.counter("store.recovery.torn_bytes_total")
        .add(static_cast<double>(rep.torn_bytes));
    reg.counter("store.recovery.summary_mismatches_total")
        .add(static_cast<double>(rep.summary_mismatches));
    reg.histogram("store.recovery.ms").observe(rep.millis);
  }
  return out;
}

std::uint64_t view_digest(const GraphView& view) {
  std::uint64_t h = core::fnv1a("gaview");
  h = core::hash_combine(h, view.num_vertices());
  h = core::hash_combine(h, view.num_arcs());
  h = core::hash_combine(h, view.directed() ? 1u : 0u);
  for (vid_t u = 0; u < view.num_vertices(); ++u) {
    view.for_each_out(u, [&](vid_t v, float w) {
      std::uint32_t wbits;
      std::memcpy(&wbits, &w, sizeof(wbits));
      h = core::hash_combine(h, (static_cast<std::uint64_t>(v) << 32) | wbits);
    });
    const float p = view.vertex_property_or(u, 0.0f);
    if (p != 0.0f) {
      std::uint32_t pbits;
      std::memcpy(&pbits, &p, sizeof(pbits));
      h = core::hash_combine(h, (static_cast<std::uint64_t>(u) << 32) | pbits);
    }
  }
  return h;
}

EpochLogInfo inspect_epoch_log(const std::string& dir) {
  EpochLogInfo info;
  load_checkpoint(dir, &info);
  const std::string log = EpochLog::log_path(dir);
  if (fs::exists(log)) {
    info.log_bytes = resilience::file_size(log);
    const auto scan = resilience::scan_records(log);
    info.log_records = scan.records.size();
    if (!scan.records.empty()) {
      info.first_seq = scan.records.front().seq;
      info.last_seq = scan.records.back().seq;
    }
    info.torn_tail = scan.torn_tail;
    info.torn_bytes = scan.torn_bytes;
    info.corrupt_records = scan.corrupt_records;
  }
  return info;
}

// --- StandbyReplica ---------------------------------------------------------

StandbyReplica::StandbyReplica(RecoveryOptions opts) : opts_(std::move(opts)) {
  // The standby must never mutate the primary's log: it only reads.
  opts_.truncate_torn_tail = false;
  auto rec = recover(opts_);
  initial_report_ = rec.report;
  store_ = std::move(rec.store);
  // Resume tailing right past the clean prefix the recovery scan consumed.
  // Inode first, scan second: if a swap lands between the two, the stale
  // inode forces a reload on the first tail pass.
  const std::string log = EpochLog::log_path(opts_.dir);
  log_ino_ = log_inode(log);
  const auto scan = resilience::scan_records(log);
  cursor_ = scan.bytes_valid;
}

StandbyReplica::~StandbyReplica() { stop(); }

std::uint64_t StandbyReplica::tail_once() {
  std::lock_guard<std::mutex> lock(mu_);
  GA_CHECK(store_ != nullptr, "standby: already promoted");
  ++stats_.tail_passes;
  const std::string log = EpochLog::log_path(opts_.dir);
  std::uint64_t applied = 0;
  try {
    std::uint64_t size = 0;
    if (fs::exists(log)) size = resilience::file_size(log);
    const std::uint64_t ino = log_inode(log);
    if (size < cursor_ || (log_ino_ != 0 && ino != 0 && ino != log_ino_)) {
      // The primary rewrote the log (checkpoint truncation renames a new
      // file into place). Whether or not the new file is shorter than the
      // cursor, the byte cursor is meaningless in it: full reload from the
      // durable image.
      reload();
      return 0;
    }
    if (log_ino_ == 0) log_ino_ = ino;
    resilience::RecordScanResult scan;
    bool scan_threw = false;
    try {
      scan = resilience::scan_records_from(log, cursor_, opts_.policy);
    } catch (const Error&) {
      scan_threw = true;  // kThrow policy hit a bad CRC at the cursor
    }
    for (auto& rec : scan.records) {
      if (rec.seq <= store_->epoch()) continue;  // covered by the base image
      if (rec.seq != store_->epoch() + 1) {
        // Seq gap: the file was swapped between the size probe and the
        // scan.
        reload();
        return applied;
      }
      DeltaBatch batch;
      DeltaSummary logged;
      decode_epoch_payload(rec.payload.data(), rec.payload.size(), &batch,
                           &logged);
      store_->apply(batch);
      ++applied;
    }
    // A torn frame here usually means the writer is mid-append: leave the
    // cursor at the clean prefix and pick the record up next pass.
    if (!scan_threw) cursor_ = scan.bytes_valid;
    if (scan_threw || scan.corrupt_records > 0 ||
        (scan.torn_tail && scan.records.empty())) {
      // Garbage at the cursor has two explanations: genuine corruption,
      // or a log swap the inode probe raced past — a mid-frame cursor in
      // the new file reads bytes that mimic corruption or a torn frame
      // that never completes, stalling the tail forever. Cross-check
      // against a from-zero scan: a clean prefix that disagrees with the
      // cursor, or durable records beyond the replica's epoch, means the
      // file was swapped. Genuine corruption agrees with the cursor and
      // (correctly) stays stalled rather than reload-spinning.
      const auto full = resilience::scan_records(log);
      if (full.bytes_valid != cursor_ ||
          (!full.records.empty() &&
           full.records.back().seq > store_->epoch())) {
        reload();
        return applied;
      }
    }
  } catch (const Error&) {
    // Checkpoint/log swapped mid-pass (the primary's truncate window) —
    // every read raced a rename. Retry from scratch next pass.
    return applied;
  }
  stats_.epochs_applied += applied;
  if (applied > 0 && obs::enabled()) {
    obs::MetricsRegistry::global()
        .counter("store.standby.tail_epochs_total")
        .add(static_cast<double>(applied));
  }
  return applied;
}

void StandbyReplica::reload() {
  // Caller holds mu_.
  auto rec = recover(opts_);
  store_ = std::move(rec.store);
  const std::string log = EpochLog::log_path(opts_.dir);
  log_ino_ = log_inode(log);
  const auto scan = resilience::scan_records(log);
  cursor_ = scan.bytes_valid;
  ++stats_.reloads;
  if (obs::enabled()) {
    obs::MetricsRegistry::global().counter("store.standby.reloads_total").add();
  }
}

void StandbyReplica::start(std::chrono::milliseconds poll) {
  if (tailer_running_.exchange(true)) return;
  tailer_stop_.store(false);
  tailer_ = std::thread([this, poll] { tailer_main(poll); });
}

void StandbyReplica::stop() {
  if (!tailer_running_.load()) return;
  tailer_stop_.store(true);
  if (tailer_.joinable()) tailer_.join();
  tailer_running_.store(false);
}

void StandbyReplica::tailer_main(std::chrono::milliseconds poll) {
  while (!tailer_stop_.load()) {
    tail_once();
    std::this_thread::sleep_for(poll);
  }
}

GraphView StandbyReplica::view() const {
  std::lock_guard<std::mutex> lock(mu_);
  GA_CHECK(store_ != nullptr, "standby: already promoted");
  return store_->view();
}

std::uint64_t StandbyReplica::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  GA_CHECK(store_ != nullptr, "standby: already promoted");
  return store_->epoch();
}

StandbyStats StandbyReplica::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::unique_ptr<VersionedGraphStore> StandbyReplica::promote(
    std::uint64_t min_epoch) {
  stop();
  // Catch up: the writer's final fsync'd records must all land. Spin until
  // a pass applies nothing AND the floor is reached — the floor guards the
  // promote-races-last-ack window.
  for (;;) {
    const std::uint64_t applied = tail_once();
    std::uint64_t at;
    {
      std::lock_guard<std::mutex> lock(mu_);
      at = store_->epoch();
    }
    if (applied == 0 && at >= min_epoch) break;
    if (applied == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (obs::enabled()) {
    obs::MetricsRegistry::global()
        .counter("store.standby.promotions_total")
        .add();
  }
  return std::move(store_);
}

}  // namespace ga::store
