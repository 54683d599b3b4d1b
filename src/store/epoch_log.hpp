// EpochLog: the durable write-ahead history of a VersionedGraphStore.
//
// Every sealed epoch is appended as one CRC-framed record — the raw
// DeltaBatch op stream plus the DeltaSummary the store derived at seal —
// using the shared record_io framing, fsync'd before apply() acknowledges.
// Periodically the log checkpoints the compacted base: the current
// GraphView is flattened to one CSR image (plus folded properties) written
// tmp → fsync → rename → dir-fsync, and the log is truncated past it.
//
// This is the one durable log of the system: served stores, shard
// processes, and the streaming and pipeline layers (set_epoch_log) all
// write it.
//
// Durability contract (proved by tests/test_recovery.cpp):
//  * acked  ⇒ durable: apply() returns only after the epoch record is
//    fsync'd (the store's durability hook runs pre-publish), so a crash at
//    ANY instant loses zero acknowledged epochs.
//  * durable ⇒ replayable: recovery (store/recovery.hpp) loads the newest
//    checkpoint, replays log records with seq > checkpoint epoch in order
//    (idempotent by seq — the crash window between checkpoint rename and
//    log truncation leaves already-checkpointed records in the log), and
//    truncates any torn tail.
//
// Directory layout:  <dir>/epochs.log     framed epoch records
//                    <dir>/checkpoint.gsc newest durable base image
//
// Thread safety: all methods serialize on an internal mutex; append() is
// called under the store lock via the durability hook, checkpoints come
// from the post-publish hook outside it — the lock order store→log is
// therefore one-way and cannot deadlock.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "resilience/record_io.hpp"
#include "store/graph_view.hpp"

namespace ga::store {

class VersionedGraphStore;
struct DeltaSummary;
struct EpochLogInfo;

/// Deserialized checkpoint: the flat base image recovery resumes from.
struct CheckpointImage {
  std::uint64_t epoch = 0;
  std::shared_ptr<const graph::CSRGraph> base;
  std::shared_ptr<const std::vector<std::pair<vid_t, float>>> props;  // or null
};

/// Load and CRC-verify <dir>/checkpoint.gsc. Returns false when absent;
/// throws ga::Error on a damaged image (magic/CRC/bounds).
bool load_checkpoint(const std::string& dir, CheckpointImage* out);
/// The same checks without building the image: the body streams through a
/// fixed buffer into the CRC, and `info` receives the checkpoint's epoch,
/// file size, vertex and arc counts and has_checkpoint.
bool load_checkpoint(const std::string& dir, EpochLogInfo* info);

/// Payload codec for one epoch record: [u32 batch_len][batch][summary].
/// The summary is logged verbatim so recovery can cross-check the replayed
/// seal against what the writer derived.
void encode_epoch_payload(const DeltaBatch& batch, const DeltaSummary& summary,
                          std::vector<char>* out);
void decode_epoch_payload(const char* data, std::size_t len, DeltaBatch* batch,
                          DeltaSummary* summary);

struct EpochLogOptions {
  std::string dir;
  /// Checkpoint after this many epochs since the last one (0 = manual —
  /// only explicit checkpoint() calls).
  std::uint64_t checkpoint_every = 0;
  /// fdatasync every append before acknowledging (the durability
  /// contract). Off only for benches measuring the sync cost itself.
  bool sync_each_append = true;
};

struct EpochLogStats {
  std::uint64_t appends = 0;
  std::uint64_t bytes_appended = 0;   // framed bytes
  std::uint64_t syncs = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t truncations = 0;
  std::uint64_t truncated_bytes = 0;
  std::uint64_t last_epoch = 0;       // newest appended (or scanned) epoch
  std::uint64_t checkpoint_epoch = 0; // epoch of the newest durable checkpoint
  double last_append_us = 0.0;
  double last_checkpoint_ms = 0.0;
};

class EpochLog {
 public:
  /// Opens (or creates) the log directory. An existing log is scanned so
  /// appends resume at the right epoch — the reopen-after-recovery path.
  explicit EpochLog(EpochLogOptions opts);
  ~EpochLog();
  EpochLog(const EpochLog&) = delete;
  EpochLog& operator=(const EpochLog&) = delete;

  /// Append one sealed epoch; fsync'd before returning (unless
  /// sync_each_append is off). Epochs must arrive contiguously
  /// (last_epoch + 1). Throws on I/O failure or injected kill — the store
  /// then refuses to consume the epoch.
  void append(std::uint64_t epoch, const DeltaBatch& batch,
              const DeltaSummary& summary);

  /// Write a durable checkpoint of `view` (flattened base CSR + folded
  /// properties + epoch) and truncate log records at or below its epoch.
  /// Records newer than the view's epoch — a concurrent writer may have
  /// appended past the captured view — survive the truncation.
  void checkpoint(const GraphView& view);

  /// Epochs appended since the newest checkpoint reached the cadence?
  bool checkpoint_due() const;
  /// checkpoint(view) iff the cadence says so.
  void maybe_checkpoint(const GraphView& view);

  /// fdatasync any unsynced appends (no-op when sync_each_append).
  void flush();

  /// Wire this log into `store`: the durability hook appends every epoch
  /// pre-publish, the post-publish hook drives the checkpoint cadence. If
  /// the directory has no checkpoint yet, the store's current view is
  /// checkpointed immediately so the base itself is durable.
  void attach(VersionedGraphStore& store);

  /// Chaos hook fired at the named kill-points ("log_append_*", "ckpt_*",
  /// "truncate_*" — see resilience::store_kill_points()).
  void set_fault_hook(std::function<void(const char*)> fn);

  EpochLogStats stats() const;
  const EpochLogOptions& options() const { return opts_; }

  static std::string log_path(const std::string& dir);
  static std::string checkpoint_path(const std::string& dir);

 private:
  void hook(const char* stage);
  void open_fd();
  void truncate_below(std::uint64_t epoch);
  void sync_fd();

  EpochLogOptions opts_;
  mutable std::mutex mu_;
  int fd_ = -1;
  bool dirty_ = false;          // unsynced appended bytes
  bool has_checkpoint_ = false; // a durable image exists (loaded or written)
  bool failed_ = false;         // a post-error rollback failed: refuse appends
  EpochLogStats stats_;
  std::function<void(const char*)> fault_hook_;
  std::vector<char> scratch_;  // framed-record staging buffer
};

}  // namespace ga::store
