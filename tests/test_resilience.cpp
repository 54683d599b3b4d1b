// Fault-tolerance suite: record framing, the store epoch log under the
// pipeline's GraphStore (torn tails, corruption policies, the checkpoint
// crash window, and a crash sweep whose recovery must match an uncrashed
// twin's view digest), backpressure queue policy semantics, deterministic
// fault injection, retry/deadline degradation, dead-letter quarantine, and
// the resilient streaming paths (StreamProcessor + CanonicalFlow) with
// their epoch-log hooks.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/prng.hpp"
#include "graph/builder.hpp"
#include "graph/dynamic_graph.hpp"
#include "pipeline/flow.hpp"
#include "pipeline/graph_store.hpp"
#include "pipeline/record.hpp"
#include "resilience/dead_letter.hpp"
#include "resilience/fault_injection.hpp"
#include "resilience/ingest_queue.hpp"
#include "resilience/record_io.hpp"
#include "resilience/retry.hpp"
#include "store/delta.hpp"
#include "store/delta_summary.hpp"
#include "store/epoch_log.hpp"
#include "store/recovery.hpp"
#include "store/versioned_store.hpp"
#include "streaming/trigger.hpp"

namespace ga::resilience {
namespace {

namespace fs = std::filesystem;
using store::DeltaBatch;
using store::DeltaSummary;
using store::EpochLog;
using store::GraphView;
using store::VersionedGraphStore;
using store::view_digest;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/ga_resilience_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::vector<char> read_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

std::vector<char> encoded(const DeltaBatch& batch) {
  std::vector<char> out;
  batch.encode(&out);
  return out;
}

store::RecoveryOptions recovery_opts(
    const std::string& dir, CorruptionPolicy policy = CorruptionPolicy::kStop) {
  store::RecoveryOptions opts;
  opts.dir = dir;
  opts.policy = policy;
  return opts;
}

/// Byte offset of the first payload byte of the `index`-th (0-based)
/// record of a framed log.
std::uint64_t payload_offset(const std::string& path, std::size_t index) {
  const RecordScanResult scan = scan_records(path);
  GA_CHECK(index < scan.records.size(), "payload_offset: no such record");
  std::uint64_t at = 0;
  for (std::size_t i = 0; i < index; ++i) {
    at += recio::frame_size(scan.records[i].payload.size());
  }
  return at + recio::kFrameHeader + recio::kSeqBytes;
}

// --- epoch log records -------------------------------------------------------
// The Wal.* bodies ran on the ingest WAL until it was deleted. Under their
// old names they now check the same properties of the store's EpochLog, the
// one durable log left.

constexpr vid_t kLogVertices = 96;

/// A seeded base graph plus one batch per epoch (batches[i] is epoch i+1)
/// mixing inserts, deletes, weight upserts, vertex growth and property
/// patches.
struct EpochStream {
  graph::CSRGraph base;
  std::vector<DeltaBatch> batches;
};

EpochStream epoch_stream(int epochs, std::uint64_t seed) {
  core::Xoshiro256 rng(seed);
  std::vector<graph::Edge> edges;
  for (int i = 0; i < 240; ++i) {
    const vid_t u = rng.next_vid(kLogVertices);
    const vid_t v = (u + 1 + rng.next_vid(kLogVertices - 1)) % kLogVertices;
    edges.push_back({u, v});
  }
  EpochStream s{graph::build_undirected(std::move(edges), kLogVertices), {}};
  vid_t n = kLogVertices;
  for (int e = 1; e <= epochs; ++e) {
    DeltaBatch b(/*directed=*/false);
    if (e % 5 == 0) {
      b.add_vertices(1);
      ++n;
    }
    for (int i = 0; i < 12; ++i) {
      const vid_t u = rng.next_vid(n);
      const vid_t v = (u + 1 + rng.next_vid(n - 1)) % n;
      if (rng.next_below(4) == 0) {
        b.delete_edge(u, v);
      } else {
        b.insert_edge(u, v, static_cast<float>(1 + rng.next_below(4)));
      }
    }
    if (e % 3 == 0) {
      b.set_vertex_property(rng.next_vid(n), static_cast<float>(e));
    }
    s.batches.push_back(std::move(b));
  }
  return s;
}

store::CompactionPolicy manual_compaction() {
  store::CompactionPolicy pol;
  pol.auto_compact = false;
  return pol;
}

/// Applies every batch of `s` through a store with a log attached, then
/// drops both (the crash). Returns the view digest after each epoch:
/// digests[k] is the uncrashed state at epoch k.
std::vector<std::uint64_t> log_epochs(const EpochStream& s,
                                      const store::EpochLogOptions& opts) {
  EpochLog log(opts);
  VersionedGraphStore st(s.base);
  log.attach(st);
  std::vector<std::uint64_t> digests{view_digest(st.view())};
  for (const DeltaBatch& b : s.batches) {
    st.apply(b);
    digests.push_back(view_digest(st.view()));
  }
  return digests;
}

TEST(Wal, AppendScanRoundTrip) {
  // Moved from the deleted ingest WAL's append + scan onto an EpochLog.
  const std::string dir = fresh_dir("wal_roundtrip");
  const EpochStream s = epoch_stream(60, 3);
  log_epochs(s, {.dir = dir});
  const std::string path = EpochLog::log_path(dir);
  const RecordScanResult scan = scan_records(path);
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.corrupt_records, 0u);
  EXPECT_EQ(scan.bytes_valid, file_size(path));
  ASSERT_EQ(scan.records.size(), s.batches.size());
  for (std::size_t i = 0; i < s.batches.size(); ++i) {
    EXPECT_EQ(scan.records[i].seq, i + 1);
    DeltaBatch batch;
    DeltaSummary summary;
    store::decode_epoch_payload(scan.records[i].payload.data(),
                                scan.records[i].payload.size(), &batch,
                                &summary);
    EXPECT_EQ(encoded(batch), encoded(s.batches[i])) << "epoch " << i + 1;
    EXPECT_EQ(summary.epoch, i + 1);
  }
}

TEST(Wal, MissingFileScansEmpty) {
  // Moved from the deleted ingest WAL's scan onto a missing epochs.log.
  const RecordScanResult scan =
      scan_records(EpochLog::log_path(fresh_dir("wal_missing")));
  EXPECT_TRUE(scan.records.empty());
  EXPECT_FALSE(scan.torn_tail);
}

TEST(Wal, GroupCommitDefersBytesUntilFlush) {
  // Moved from the deleted ingest WAL's group-commit buffer onto EpochLog.
  const std::string dir = fresh_dir("wal_group");
  const EpochStream s = epoch_stream(50, 5);
  EpochLog log({.dir = dir, .sync_each_append = false});
  VersionedGraphStore st(s.base);
  log.attach(st);
  for (const DeltaBatch& b : s.batches) st.apply(b);
  EXPECT_EQ(log.stats().appends, 50u);
  EXPECT_EQ(log.stats().syncs, 0u);  // written, not yet synced
  log.flush();
  EXPECT_EQ(log.stats().syncs, 1u);  // one sync covers every append
  log.flush();
  EXPECT_EQ(log.stats().syncs, 1u);  // nothing left to sync
  EXPECT_EQ(scan_records(EpochLog::log_path(dir)).records.size(), 50u);
}

TEST(Wal, AsyncDrainMatchesSyncByteForByte) {
  // Moved from the deleted ingest WAL's async-vs-sync drain onto EpochLog.
  const std::string dir = fresh_dir("wal_async");
  const EpochStream s = epoch_stream(80, 11);
  log_epochs(s, {.dir = dir + "/synced"});
  log_epochs(s, {.dir = dir + "/deferred", .sync_each_append = false});
  const std::vector<char> synced =
      read_bytes(EpochLog::log_path(dir + "/synced"));
  EXPECT_FALSE(synced.empty());
  EXPECT_EQ(synced, read_bytes(EpochLog::log_path(dir + "/deferred")));
  const RecordScanResult scan =
      scan_records(EpochLog::log_path(dir + "/deferred"));
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.records.size(), s.batches.size());
}

TEST(Wal, TornTailReturnsValidPrefix) {
  // Moved from the deleted ingest WAL's torn-tail scan onto recover().
  const std::string dir = fresh_dir("wal_torn");
  const EpochStream s = epoch_stream(50, 5);
  const auto digests = log_epochs(s, {.dir = dir});
  const std::string path = EpochLog::log_path(dir);
  // Tear off a few bytes: the last frame is incomplete -> torn tail; every
  // preceding epoch survives untouched.
  tear_tail(path, 3);
  const auto rec = store::recover(recovery_opts(dir));
  EXPECT_TRUE(rec.report.torn_tail);
  EXPECT_GT(rec.report.torn_bytes, 0u);
  EXPECT_TRUE(rec.report.status().ok());
  ASSERT_EQ(rec.report.recovered_epoch, s.batches.size() - 1);
  EXPECT_EQ(view_digest(rec.store->view()), digests[s.batches.size() - 1]);
  // recover() cut the torn bytes: the log rescans clean.
  const RecordScanResult again = scan_records(path);
  EXPECT_FALSE(again.torn_tail);
  EXPECT_EQ(again.records.size(), s.batches.size() - 1);
  EXPECT_EQ(again.bytes_valid, file_size(path));
}

TEST(Wal, CrcCorruptionStopsOrThrows) {
  // Moved from the deleted ingest WAL's corruption policies onto recover()'s.
  const std::string dir = fresh_dir("wal_crc");
  const EpochStream s = epoch_stream(20, 7);
  const auto digests = log_epochs(s, {.dir = dir});
  const std::string path = EpochLog::log_path(dir);
  corrupt_byte(path, payload_offset(path, 10));  // first byte of record 11
  EXPECT_THROW(
      store::recover(recovery_opts(dir, CorruptionPolicy::kThrow)),
      ga::Error);
  const auto rec = store::recover(recovery_opts(dir));
  EXPECT_EQ(rec.report.corrupt_records, 1u);
  EXPECT_FALSE(rec.report.torn_tail);
  EXPECT_EQ(rec.report.status().code(), core::StatusCode::kDataLoss);
  ASSERT_EQ(rec.report.recovered_epoch, 10u);  // clean prefix only
  EXPECT_EQ(view_digest(rec.store->view()), digests[10]);
}

// --- record_io: the shared framing under the epoch log ----------------------

std::vector<std::vector<char>> sample_payloads(std::size_t n,
                                               std::uint64_t seed) {
  core::Xoshiro256 rng(seed);
  std::vector<std::vector<char>> out(n);
  for (auto& p : out) {
    p.resize(1 + rng.next_below(64));
    for (char& c : p) c = static_cast<char>(rng.next_below(256));
  }
  return out;
}

TEST(RecordIo, FrameRecordMatchesWalWriterByteForByte) {
  // Moved from the deleted ingest WAL writer's bytes onto EpochLog's.
  const std::string dir = fresh_dir("recio_frame");
  const EpochStream s = epoch_stream(40, 11);
  log_epochs(s, {.dir = dir});
  const std::vector<char> on_disk = read_bytes(EpochLog::log_path(dir));
  // Frame the same epochs by hand: each batch's codec payload with the
  // summary an unlogged twin derives when it applies the batch.
  VersionedGraphStore twin(s.base, manual_compaction());
  std::size_t at = 0;
  for (std::size_t i = 0; i < s.batches.size(); ++i) {
    twin.apply(s.batches[i]);
    std::vector<char> payload;
    store::encode_epoch_payload(s.batches[i], *twin.view().delta_summary(),
                                &payload);
    std::vector<char> frame(recio::frame_size(payload.size()));
    recio::frame_record(frame.data(), i + 1, payload.data(), payload.size());
    ASSERT_LE(at + frame.size(), on_disk.size()) << "record " << i + 1;
    EXPECT_TRUE(std::equal(frame.begin(), frame.end(), on_disk.begin() + at))
        << "record " << i + 1;
    at += frame.size();
  }
  EXPECT_EQ(at, on_disk.size());
}

TEST(RecordIo, ScanFromOffsetResumesAtAFrameBoundary) {
  // Moved from a file the deleted ingest WAL wrote onto frame_record's.
  const std::string path = fresh_dir("recio_offset") + "/log";
  const auto payloads = sample_payloads(30, 13);
  std::uint64_t offset_20 = 0;
  {
    std::vector<char> bytes;
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      if (i == 20) offset_20 = bytes.size();
      const std::size_t at = bytes.size();
      bytes.resize(at + recio::frame_size(payloads[i].size()));
      recio::frame_record(bytes.data() + at, i + 1, payloads[i].data(),
                          payloads[i].size());
    }
    std::ofstream(path, std::ios::binary)
        .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  // A tailer resumes mid-file: only records 21.. come back, and
  // bytes_valid is ABSOLUTE so it feeds straight into the next scan.
  const RecordScanResult scan = scan_records_from(path, offset_20);
  ASSERT_EQ(scan.records.size(), 10u);
  EXPECT_EQ(scan.records.front().seq, 21u);
  EXPECT_EQ(scan.records.back().seq, 30u);
  EXPECT_EQ(scan.bytes_valid, file_size(path));
  EXPECT_FALSE(scan.torn_tail);
  // Scanning from the end yields nothing — the steady-state tail pass.
  const RecordScanResult tail = scan_records_from(path, scan.bytes_valid);
  EXPECT_TRUE(tail.records.empty());
  EXPECT_EQ(tail.bytes_valid, scan.bytes_valid);
}

TEST(RecordIo, ScanOfMissingFileIsEmptyNotAnError) {
  const RecordScanResult scan =
      scan_records(fresh_dir("recio_missing") + "/absent.log");
  EXPECT_TRUE(scan.records.empty());
  EXPECT_EQ(scan.bytes_valid, 0u);
  EXPECT_TRUE(scan.status().ok());
}

TEST(RecordIo, FsyncHelpersAcceptRealPathsAndRejectMissingOnes) {
  const std::string dir = fresh_dir("recio_fsync");
  const std::string path = dir + "/f";
  { std::ofstream(path) << "x"; }
  EXPECT_NO_THROW(fsync_file(path));
  EXPECT_NO_THROW(fsync_dir(dir));
  EXPECT_THROW(fsync_file(dir + "/nope"), ga::Error);
}

// --- epoch-record codec ------------------------------------------------------

struct SealedEpoch {
  DeltaBatch batch;
  DeltaSummary summary;
};

/// One epoch with every op kind the codec carries, applied to a path graph
/// so that every field of its summary is set.
SealedEpoch every_kind_epoch() {
  std::vector<graph::Edge> path;
  for (vid_t v = 0; v + 1 < 8; ++v) path.push_back({v, v + 1});
  VersionedGraphStore st(graph::build_undirected(std::move(path), 8),
                         manual_compaction());
  DeltaBatch b(/*directed=*/false);
  b.add_vertices(2);                // vertex growth: ids 8 and 9
  b.insert_edge(0, 9, 2.5f);        // a new arc
  b.insert_edge(2, 3, 4.0f);        // weight upsert of an existing arc
  b.delete_edge(4, 5);              // a present arc removed
  b.set_vertex_property(6, 0.75f);  // property patch
  st.apply(b);
  return {b, *st.view().delta_summary()};
}

TEST(StoreOp, EncodeDecodeRoundTrip) {
  // Moved from the deleted StoreOp codec onto the epoch-record codec.
  const SealedEpoch e = every_kind_epoch();
  const DeltaSummary& want = e.summary;
  ASSERT_FALSE(want.changed_vertices.empty());
  ASSERT_FALSE(want.inserted_arcs.empty());
  ASSERT_FALSE(want.deleted_arcs.empty());
  ASSERT_GT(want.weight_updates, 0u);
  ASSERT_FALSE(want.property_vertices.empty());
  ASSERT_EQ(want.vertex_growth, 2u);
  std::vector<char> bytes;
  store::encode_epoch_payload(e.batch, want, &bytes);
  DeltaBatch batch;
  DeltaSummary got;
  store::decode_epoch_payload(bytes.data(), bytes.size(), &batch, &got);
  EXPECT_EQ(encoded(batch), encoded(e.batch));
  EXPECT_EQ(batch.num_ops(), e.batch.num_ops());
  EXPECT_EQ(batch.vertex_growth(), 2u);
  EXPECT_EQ(got.epoch, want.epoch);
  EXPECT_EQ(got.changed_vertices, want.changed_vertices);
  EXPECT_EQ(got.inserted_arcs, want.inserted_arcs);
  EXPECT_EQ(got.deleted_arcs, want.deleted_arcs);
  EXPECT_EQ(got.weight_updates, want.weight_updates);
  EXPECT_EQ(got.property_vertices, want.property_vertices);
  EXPECT_EQ(got.vertex_growth, want.vertex_growth);
}

TEST(StoreOp, DecodeRejectsMalformedPayloads) {
  // Moved from the deleted StoreOp decoder onto decode_epoch_payload.
  const SealedEpoch full = every_kind_epoch();
  DeltaSummary heartbeat;
  heartbeat.epoch = 2;
  const auto check = [](const DeltaBatch& batch, const DeltaSummary& summary) {
    std::vector<char> bytes;
    store::encode_epoch_payload(batch, summary, &bytes);
    DeltaBatch b;
    DeltaSummary s;
    EXPECT_NO_THROW(
        store::decode_epoch_payload(bytes.data(), bytes.size(), &b, &s));
    // Truncations at every length fail; a trailing byte fails.
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      EXPECT_THROW(store::decode_epoch_payload(bytes.data(), cut, &b, &s),
                   ga::Error)
          << cut;
    }
    bytes.push_back('\0');
    EXPECT_THROW(
        store::decode_epoch_payload(bytes.data(), bytes.size(), &b, &s),
        ga::Error);
  };
  check(full.batch, full.summary);
  // A heartbeat epoch: every vector of its summary is empty.
  check(DeltaBatch(/*directed=*/false), heartbeat);
}

// --- the pipeline store on the epoch log -------------------------------------
// The DurableStore.* bodies ran on a WAL-backed durable pipeline store (a
// GraphStore plus a log of store ops) until it was deleted together with the
// ingest WAL under it. They now make the pipeline's GraphStore durable the
// way every served store is: set_epoch_log() attaches an EpochLog, every
// view() publishes one epoch, and store::recover() rebuilds the published
// view. The log holds adjacency and weights, not residency timestamps or the
// property table, so states compare by view_digest().

constexpr std::uint32_t kBasePeople = 200;
constexpr std::uint32_t kAddresses = 400;

pipeline::GraphStore base_store() {
  std::vector<pipeline::Entity> ents(kBasePeople);
  for (std::uint32_t i = 0; i < kBasePeople; ++i) {
    ents[i].entity_id = i;
    ents[i].first_name = "f" + std::to_string(i);
    ents[i].last_name = "l" + std::to_string(i % 37);
    ents[i].birth_year = 1950 + i % 50;
    ents[i].credit_score = 400.0 + i;
    std::set<std::uint32_t> addrs{i % kAddresses, (i * 7 + 3) % kAddresses};
    ents[i].addresses.assign(addrs.begin(), addrs.end());
  }
  pipeline::GraphStore store(ents, kAddresses);
  store.properties().add_double_column("risk_score");
  return store;
}

/// Deterministic Fig. 2 op stream over valid person vertices: 5% new
/// people, 90% residency sightings, 5% property writes.
class OpStream {
 public:
  explicit OpStream(std::uint64_t seed) : rng_(seed) {
    for (vid_t v = 0; v < kBasePeople; ++v) people_.push_back(v);
  }

  /// Applies the next `count` ops to `g`, then publishes them as one epoch.
  GraphView publish(pipeline::GraphStore& g, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i, ++applied_) {
      const auto roll = rng_.next_below(100);
      const auto ts = static_cast<std::int64_t>(applied_);
      if (roll < 5) {
        pipeline::Entity e;
        e.entity_id = people_.size();
        e.first_name = "s" + std::to_string(applied_);
        e.last_name = "stream";
        e.birth_year = 1980;
        e.credit_score = 500.0 + static_cast<double>(roll);
        people_.push_back(g.add_person(e, ts));
      } else if (roll < 95) {
        g.add_residency(people_[rng_.next_below(people_.size())],
                        static_cast<std::uint32_t>(rng_.next_below(kAddresses)),
                        ts);
      } else {
        g.properties().doubles("risk_score")[people_[rng_.next_below(
            people_.size())]] = rng_.next_double();
      }
    }
    return g.view();
  }

 private:
  core::Xoshiro256 rng_;
  std::vector<vid_t> people_;
  std::uint64_t applied_ = 0;
};

/// A base_store() with `log` attached (null: no log) and its base
/// published, so the next view() is epoch 1.
pipeline::GraphStore seeded_store(EpochLog* log) {
  pipeline::GraphStore g = base_store();
  g.set_epoch_log(log);
  g.view();
  return g;
}

/// Publishes `epochs` epochs of `ops_per_epoch` ops from OpStream(seed)
/// through a seeded store, then drops the store. Returns the view digest at
/// every publish: digests[0] is the base, digests[k] epoch k.
std::vector<std::uint64_t> publish_epochs(EpochLog* log, std::uint64_t seed,
                                          std::size_t epochs,
                                          std::size_t ops_per_epoch) {
  pipeline::GraphStore g = seeded_store(log);
  std::vector<std::uint64_t> digests{view_digest(g.view())};
  OpStream ops(seed);
  for (std::size_t k = 1; k <= epochs; ++k) {
    const GraphView v = ops.publish(g, ops_per_epoch);
    EXPECT_EQ(v.epoch(), k);
    digests.push_back(view_digest(v));
  }
  return digests;
}

TEST(DurableStore, FreshStoreRecoversIdentically) {
  // Moved from the deleted WAL-backed store onto GraphStore::set_epoch_log.
  const std::string dir = fresh_dir("fresh");
  std::uint64_t digest = 0;
  {
    EpochLog log({.dir = dir});
    digest = view_digest(seeded_store(&log).view());
  }
  const auto rec = store::recover(recovery_opts(dir));
  EXPECT_EQ(view_digest(rec.store->view()), digest);
  EXPECT_EQ(rec.report.replayed, 0u);
  EXPECT_EQ(rec.report.recovered_epoch, 0u);
}

// The acceptance sweep: a 100k-op stream published every 500 ops and
// crashed (log and store dropped) right after the publish at every
// checkpoint boundary and at 17 seeded publish points. Recovery must land
// at exactly that epoch with the uncrashed twin's view digest there.
TEST(DurableStore, CrashRecoverySweep) {
  // Moved from the deleted WAL-backed store's 100k-op crash sweep.
  constexpr std::size_t kEpochs = 200;
  constexpr std::size_t kOpsPerEpoch = 500;
  constexpr std::uint64_t kCheckpointEvery = 20;
  constexpr std::uint64_t kSeed = 11;

  std::set<std::size_t> points;
  for (std::size_t k = kCheckpointEvery; k <= kEpochs; k += kCheckpointEvery) {
    points.insert(k);
  }
  core::Xoshiro256 rng(1234);
  while (points.size() < kEpochs / kCheckpointEvery + 17) {
    points.insert(1 + rng.next_below(kEpochs));
  }

  // The uncrashed twin's digest at every crash point, in one pass.
  std::vector<std::uint64_t> twin(kEpochs + 1);
  {
    pipeline::GraphStore g = seeded_store(nullptr);
    OpStream ops(kSeed);
    for (std::size_t k = 1; k <= kEpochs; ++k) {
      const GraphView v = ops.publish(g, kOpsPerEpoch);
      ASSERT_EQ(v.epoch(), k);
      if (points.count(k) > 0) twin[k] = view_digest(v);
    }
  }

  for (const std::size_t k : points) {
    const std::string dir = fresh_dir("sweep");
    {
      EpochLog log({.dir = dir,
                    .checkpoint_every = kCheckpointEvery,
                    .sync_each_append = false});
      pipeline::GraphStore g = seeded_store(&log);
      OpStream ops(kSeed);
      for (std::size_t e = 1; e <= k; ++e) ops.publish(g, kOpsPerEpoch);
      // Crash: the store and its log are dropped right after publish k.
    }
    const auto rec = store::recover(recovery_opts(dir));
    EXPECT_TRUE(rec.report.status().ok()) << k;
    EXPECT_EQ(rec.report.recovered_epoch, k) << "lost epochs at " << k;
    EXPECT_EQ(rec.report.checkpoint_epoch,
              k / kCheckpointEvery * kCheckpointEvery)
        << k;
    EXPECT_EQ(rec.report.checkpoint_epoch + rec.report.replayed, k) << k;
    EXPECT_EQ(view_digest(rec.store->view()), twin[k])
        << "view digest mismatch at crash point " << k;
    fs::remove_all(dir);
  }
}

// Crash inside the checkpoint window: the checkpoint has been renamed into
// place but the log was not yet truncated. Replay must skip every record
// the checkpoint already contains (never double-apply).
TEST(DurableStore, CheckpointCrashWindowIsIdempotent) {
  // Moved from the deleted WAL-backed store's snapshot-vs-WAL crash window.
  constexpr std::size_t kEpochs = 25;
  const std::string dir = fresh_dir("ckpt_window");
  const std::string path = EpochLog::log_path(dir);
  std::uint64_t digest = 0;
  {
    EpochLog log({.dir = dir, .sync_each_append = false});
    pipeline::GraphStore g = seeded_store(&log);
    OpStream ops(21);
    for (std::size_t k = 1; k <= kEpochs; ++k) ops.publish(g, 20);
    // Save the full pre-checkpoint log, then checkpoint (which truncates
    // it): restoring the saved copy below is exactly the on-disk state of
    // a crash between checkpoint rename and log truncation.
    fs::copy_file(path, path + ".stale");
    log.checkpoint(g.view());
    digest = view_digest(g.view());
  }
  EXPECT_TRUE(scan_records(path).records.empty());
  fs::remove(path);
  fs::rename(path + ".stale", path);
  const auto rec = store::recover(recovery_opts(dir));
  EXPECT_EQ(view_digest(rec.store->view()), digest);
  EXPECT_EQ(rec.report.checkpoint_epoch, kEpochs);
  EXPECT_EQ(rec.report.replayed, 0u);
  EXPECT_EQ(rec.report.skipped, kEpochs);
}

TEST(DurableStore, TornWalTailTruncatesToCleanPrefix) {
  // Moved from the deleted WAL-backed store's torn-WAL recovery.
  constexpr std::size_t kEpochs = 30;
  const std::string dir = fresh_dir("torn");
  const std::string path = EpochLog::log_path(dir);
  std::vector<std::uint64_t> digests;
  {
    EpochLog log({.dir = dir, .sync_each_append = false});
    digests = publish_epochs(&log, 31, kEpochs, 10);
  }
  const RecordScanResult logged = scan_records(path);
  ASSERT_EQ(logged.records.size(), kEpochs);
  tear_tail(path, 5);
  auto rec = store::recover(recovery_opts(dir));
  EXPECT_TRUE(rec.report.torn_tail);
  ASSERT_EQ(rec.report.replayed, kEpochs - 1);
  EXPECT_EQ(view_digest(rec.store->view()), digests[kEpochs - 1]);
  // The torn bytes are gone: reopen the log on the recovered store and
  // publish the lost epoch again from its logged batch.
  {
    EpochLog log({.dir = dir});
    const auto st = std::move(rec.store);
    log.attach(*st);
    DeltaBatch last;
    DeltaSummary summary;
    store::decode_epoch_payload(logged.records.back().payload.data(),
                                logged.records.back().payload.size(), &last,
                                &summary);
    EXPECT_EQ(st->apply(last), kEpochs);
  }
  const auto rec2 = store::recover(recovery_opts(dir));
  EXPECT_FALSE(rec2.report.torn_tail);
  EXPECT_EQ(rec2.report.recovered_epoch, kEpochs);
  EXPECT_EQ(view_digest(rec2.store->view()), digests.back());
}

TEST(DurableStore, CorruptWalRecordStopsReplay) {
  // Moved from the deleted WAL-backed store's corrupt-record recovery.
  constexpr std::size_t kEpochs = 100;
  const std::string dir = fresh_dir("corrupt");
  const std::string path = EpochLog::log_path(dir);
  std::vector<std::uint64_t> digests;
  {
    EpochLog log({.dir = dir, .sync_each_append = false});
    digests = publish_epochs(&log, 41, kEpochs, 4);
  }
  // Bit rot inside record 51's payload: CRC catches it, replay raises
  // (kThrow) or stops at the clean prefix (kStop).
  corrupt_byte(path, payload_offset(path, 50));
  const std::uint64_t bytes = file_size(path);
  EXPECT_THROW(
      store::recover(recovery_opts(dir, CorruptionPolicy::kThrow)),
      ga::Error);
  const auto rec = store::recover(recovery_opts(dir));
  EXPECT_EQ(rec.report.corrupt_records, 1u);
  EXPECT_EQ(rec.report.status().code(), core::StatusCode::kDataLoss);
  EXPECT_EQ(rec.report.replayed, 50u);
  EXPECT_EQ(view_digest(rec.store->view()), digests[50]);
  // Unlike the deleted store, which cut the untrusted suffix, recover()
  // keeps it: data loss is reported, never silently discarded. The log is
  // byte-for-byte as it was, and a rescan still stops at record 51.
  EXPECT_EQ(file_size(path), bytes);
  const RecordScanResult rescan = scan_records(path);
  EXPECT_EQ(rescan.corrupt_records, 1u);
  EXPECT_EQ(rescan.records.size(), 50u);
}

TEST(DurableStore, AutoCheckpointCompactsWal) {
  // Moved from the deleted WAL-backed store's checkpoint cadence.
  const std::string dir = fresh_dir("compact");
  EpochLog log({.dir = dir, .checkpoint_every = 64, .sync_each_append = false});
  publish_epochs(&log, 51, 200, 4);
  // The seed checkpoint of the base, then one per 64 epochs: 64, 128, 192.
  EXPECT_EQ(log.stats().checkpoints, 1u + 3u);
  EXPECT_EQ(log.stats().checkpoint_epoch, 192u);
  // Only the 200 % 64 epochs after the last checkpoint remain in the log.
  EXPECT_EQ(scan_records(EpochLog::log_path(dir)).records.size(), 200u % 64u);
}

// --- IngestQueue backpressure -----------------------------------------------

TEST(IngestQueue, BlockPolicyIsLossless) {
  QueueOptions opts;
  opts.capacity = 8;
  opts.policy = OverflowPolicy::kBlock;
  IngestQueue<int> q(opts);
  constexpr int kN = 2000;
  std::thread producer([&] {
    for (int i = 0; i < kN; ++i) q.push(i);
    q.close();
  });
  std::vector<int> got;
  while (auto v = q.pop()) got.push_back(*v);
  producer.join();
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kN));
  for (int i = 0; i < kN; ++i) EXPECT_EQ(got[i], i);  // FIFO, nothing lost
  const QueueStats s = q.stats();
  EXPECT_EQ(s.accepted, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(s.popped, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(s.shed, 0u);
  EXPECT_LE(s.max_depth, 8u);
}

TEST(IngestQueue, ShedPolicyDropsWhenFullAndCounts) {
  QueueOptions opts;
  opts.capacity = 16;
  opts.policy = OverflowPolicy::kShed;
  IngestQueue<int> q(opts);
  std::uint64_t accepted = 0;
  for (int i = 0; i < 100; ++i) accepted += q.push(i) ? 1 : 0;
  EXPECT_EQ(accepted, 16u);
  const QueueStats s = q.stats();
  EXPECT_EQ(s.shed, 84u);
  EXPECT_EQ(s.accepted, 16u);
  q.close();
  std::size_t drained = 0;
  while (q.pop()) ++drained;
  EXPECT_EQ(drained, 16u);
}

TEST(IngestQueue, SamplePolicyIsDeterministicPerSeed) {
  const auto run = [](std::uint64_t seed) {
    QueueOptions opts;
    opts.capacity = 64;
    opts.policy = OverflowPolicy::kSample;
    opts.sample_keep = 0.5;
    opts.seed = seed;
    opts.high_watermark = 8;
    opts.low_watermark = 2;
    IngestQueue<int> q(opts);
    std::vector<int> kept;
    for (int i = 0; i < 128; ++i) {
      if (q.push(i)) kept.push_back(i);
      // Drain one of every two so the queue hovers around the watermark.
      if (i % 2 == 1) q.pop();
    }
    q.close();
    return std::pair{kept, q.stats().sampled_out};
  };
  const auto [kept_a, out_a] = run(9);
  const auto [kept_b, out_b] = run(9);
  EXPECT_EQ(kept_a, kept_b);  // same seed + offer order => same kept set
  EXPECT_EQ(out_a, out_b);
  EXPECT_GT(out_a, 0u);  // overload actually engaged the sampler
  const auto [kept_c, out_c] = run(10);
  EXPECT_NE(kept_a, kept_c);  // a different seed samples differently
}

TEST(IngestQueue, WatermarkCallbacksFireOnCrossings) {
  QueueOptions opts;
  opts.capacity = 16;
  opts.high_watermark = 12;
  opts.low_watermark = 4;
  IngestQueue<int> q(opts);
  std::vector<bool> events;
  q.set_watermark_callback([&](bool high) { events.push_back(high); });
  for (int i = 0; i < 12; ++i) q.push(i);  // rising crossing at depth 12
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(events[0]);
  for (int i = 0; i < 8; ++i) q.pop();  // falls back to the low watermark
  ASSERT_EQ(events.size(), 2u);
  EXPECT_FALSE(events[1]);
  const QueueStats s = q.stats();
  EXPECT_EQ(s.high_events, 1u);
  EXPECT_EQ(s.low_events, 1u);
}

// --- fault injection + stage executor ---------------------------------------

TEST(FaultInjector, NthAndEveryNMatchDeterministically) {
  FaultPlan plan;
  FaultSpec boom;
  boom.kind = FaultSpec::Kind::kThrow;
  boom.stage = "s";
  boom.nth = 3;
  plan.specs.push_back(boom);
  FaultSpec lag;
  lag.kind = FaultSpec::Kind::kLatency;
  lag.stage = "s";
  lag.every_n = 4;
  lag.latency_ms = 12.5;
  plan.specs.push_back(lag);
  FaultInjector inj(plan);
  for (int round = 0; round < 2; ++round) {
    for (std::uint64_t call = 1; call <= 8; ++call) {
      if (call == 3) {
        EXPECT_THROW(inj.on_call("s"), InjectedFault) << call;
      } else {
        const double ms = inj.on_call("s");
        EXPECT_DOUBLE_EQ(ms, call % 4 == 0 ? 12.5 : 0.0) << call;
      }
      EXPECT_DOUBLE_EQ(inj.on_call("other"), 0.0);  // stage filter holds
    }
    inj.reset();  // second round must replay identically
  }
}

TEST(FaultPlan, ScatteredThrowsAreSeededAndDistinct) {
  const FaultPlan a = FaultPlan::scattered_throws(5, "st", 100, 10);
  const FaultPlan b = FaultPlan::scattered_throws(5, "st", 100, 10);
  const FaultPlan c = FaultPlan::scattered_throws(6, "st", 100, 10);
  ASSERT_EQ(a.specs.size(), 10u);
  std::set<std::uint64_t> nths_a, nths_c;
  for (std::size_t i = 0; i < a.specs.size(); ++i) {
    EXPECT_EQ(a.specs[i].nth, b.specs[i].nth);
    EXPECT_GE(a.specs[i].nth, 1u);
    EXPECT_LE(a.specs[i].nth, 100u);
    nths_a.insert(a.specs[i].nth);
    nths_c.insert(c.specs[i].nth);
  }
  EXPECT_EQ(nths_a.size(), 10u);  // distinct call indices
  EXPECT_NE(nths_a, nths_c);
}

TEST(StageExecutor, RetriesTransientFaultThenSucceeds) {
  FaultPlan plan;
  for (const std::uint64_t n : {1u, 2u}) {
    FaultSpec s;
    s.stage = "flaky";
    s.nth = n;
    plan.specs.push_back(s);
  }
  FaultInjector inj(plan);
  StageExecutor ex(&inj);
  ex.set_sleep_fn([](double) {});
  const auto r = ex.run<int>("flaky", [] { return 7; });
  EXPECT_TRUE(r.ok);
  EXPECT_FALSE(r.degraded);
  EXPECT_EQ(r.value, 7);
  EXPECT_EQ(r.attempts, 3u);
  const StageHealth* h = ex.health_for_stage("flaky");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->failures, 2u);
  EXPECT_EQ(h->retries, 2u);
  EXPECT_EQ(h->degraded, 0u);
}

TEST(StageExecutor, ExhaustionDegradesToFallbackOrFails) {
  FaultPlan plan;
  FaultSpec always;
  always.stage = "down";
  always.every_n = 1;
  plan.specs.push_back(always);
  FaultInjector inj(plan);
  StageExecutor ex(&inj);
  ex.set_sleep_fn([](double) {});
  const auto deg = ex.run<int>(
      "down", [] { return 1; }, [] { return -1; });
  EXPECT_TRUE(deg.ok);
  EXPECT_TRUE(deg.degraded);
  EXPECT_EQ(deg.value, -1);
  const auto dead = ex.run<int>("down", [] { return 1; });
  EXPECT_FALSE(dead.ok);
  const StageHealth* h = ex.health_for_stage("down");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->degraded, 1u);
  EXPECT_EQ(h->exhausted, 1u);
  EXPECT_EQ(h->failures, 6u);  // 3 attempts per call
}

TEST(StageExecutor, VirtualLatencyTripsDeadlineDeterministically) {
  FaultPlan plan;
  FaultSpec lag;
  lag.kind = FaultSpec::Kind::kLatency;
  lag.stage = "slow";
  lag.every_n = 1;
  lag.latency_ms = 1e6;  // virtual: must not actually sleep
  plan.specs.push_back(lag);
  StageOptions opts;
  opts.deadline_ms = 50.0;
  for (int round = 0; round < 2; ++round) {
    FaultInjector inj(plan);
    StageExecutor ex(&inj);
    ex.set_sleep_fn([](double) {});
    const auto t0 = std::chrono::steady_clock::now();
    const auto r = ex.run<int>(
        "slow", [] { return 1; }, [] { return -1; }, opts);
    const double real_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    EXPECT_TRUE(r.ok);
    EXPECT_TRUE(r.degraded);
    EXPECT_TRUE(r.deadline_missed);
    EXPECT_EQ(r.attempts, 1u);  // deadline miss skips straight to fallback
    EXPECT_EQ(r.value, -1);
    EXPECT_LT(real_ms, 10000.0);  // injected latency never really slept
  }
}

TEST(StageExecutor, BackoffScheduleIsExponentialAndCapped) {
  RetryPolicy p;
  p.base_delay_ms = 1.0;
  p.backoff_multiplier = 2.0;
  p.max_delay_ms = 100.0;
  EXPECT_DOUBLE_EQ(StageExecutor::backoff_ms(p, 1), 1.0);
  EXPECT_DOUBLE_EQ(StageExecutor::backoff_ms(p, 2), 2.0);
  EXPECT_DOUBLE_EQ(StageExecutor::backoff_ms(p, 3), 4.0);
  EXPECT_DOUBLE_EQ(StageExecutor::backoff_ms(p, 20), 100.0);
}

// --- dead-letter quarantine -------------------------------------------------

TEST(DeadLetter, BoundedHistogramAndDrain) {
  DeadLetterQueue<int> dlq(4);
  for (int i = 0; i < 6; ++i) {
    dlq.quarantine(i, i % 2 == 0 ? "even" : "odd", i);
  }
  EXPECT_EQ(dlq.size(), 4u);
  EXPECT_EQ(dlq.total_quarantined(), 6u);
  EXPECT_EQ(dlq.dropped_oldest(), 2u);
  EXPECT_EQ(dlq.by_reason().at("even"), 3u);
  EXPECT_EQ(dlq.by_reason().at("odd"), 3u);
  const auto drained = dlq.drain();
  ASSERT_EQ(drained.size(), 4u);
  EXPECT_EQ(drained[0].item, 2);  // oldest two dropped
  EXPECT_TRUE(dlq.empty());
  EXPECT_EQ(dlq.total_quarantined(), 6u);  // totals survive the drain
}

}  // namespace
}  // namespace ga::resilience

// --- resilient streaming paths (different namespaces) -----------------------

namespace ga::streaming {
namespace {

Update ins(vid_t u, vid_t v, std::int64_t ts = 0) {
  return {UpdateKind::kEdgeInsert, u, v, 1.0f, ts};
}

/// Updates that fire a few triangle-densification triggers.
std::vector<Update> trigger_stream() {
  std::vector<Update> s;
  for (vid_t hub = 0; hub < 3; ++hub) {
    const vid_t a = 10 + hub * 10, b = a + 1;
    for (vid_t k = 2; k <= 5; ++k) {
      s.push_back(ins(a, a + k));
      s.push_back(ins(b, a + k));
    }
    s.push_back(ins(a, b, 100 + hub));  // closes 4 triangles -> fires
  }
  return s;
}

TEST(Trigger, DegradedAlertsAreDeterministicUnderFixedPlan) {
  resilience::FaultPlan plan;
  resilience::FaultSpec always;
  always.stage = "trigger_analytic";
  always.every_n = 1;
  plan.specs.push_back(always);

  const auto run = [&] {
    graph::DynamicGraph g(64);
    TriggerPolicy policy;
    policy.triangle_delta_threshold = 3;
    StreamProcessor proc(g, policy);
    resilience::FaultInjector inj(plan);
    resilience::StageExecutor ex(&inj);
    ex.set_sleep_fn([](double) {});
    proc.set_stage_executor(&ex);
    proc.apply_all(trigger_stream());
    std::vector<double> results;
    for (const Alert& a : proc.alerts()) {
      EXPECT_TRUE(a.degraded);
      results.push_back(a.analytic_result);
    }
    EXPECT_EQ(proc.stats().degraded, proc.alerts().size());
    EXPECT_GT(proc.stats().retries, 0u);
    return results;
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a, b);  // chaos replays bit-identically under a fixed plan
  // The degraded metric is the incremental component size of the seed's
  // component: each hub cluster has 6 vertices.
  EXPECT_DOUBLE_EQ(a[0], 6.0);
}

TEST(Trigger, ExecutorWithoutFaultsMatchesPlainPath) {
  const auto stream = trigger_stream();
  graph::DynamicGraph g1(64), g2(64);
  TriggerPolicy policy;
  policy.triangle_delta_threshold = 3;
  StreamProcessor plain(g1, policy), staged(g2, policy);
  resilience::StageExecutor ex;
  staged.set_stage_executor(&ex);
  plain.apply_all(stream);
  staged.apply_all(stream);
  ASSERT_EQ(plain.alerts().size(), staged.alerts().size());
  for (std::size_t i = 0; i < plain.alerts().size(); ++i) {
    EXPECT_DOUBLE_EQ(plain.alerts()[i].analytic_result,
                     staged.alerts()[i].analytic_result);
    EXPECT_FALSE(staged.alerts()[i].degraded);
  }
  EXPECT_EQ(staged.stats().degraded, 0u);
  EXPECT_EQ(staged.stats().dropped_alerts, 0u);
}

TEST(Backpressure, RunWithBackpressureMatchesApplyAll) {
  StreamOptions sopts;
  sopts.count = 3000;
  sopts.delete_fraction = 0.2;
  sopts.seed = 4;
  const auto stream = generate_stream(64, sopts);
  graph::DynamicGraph g1(64), g2(64);
  TriggerPolicy policy;
  policy.triangle_delta_threshold = 1000000;
  StreamProcessor direct(g1, policy), queued(g2, policy);
  direct.apply_all(stream);
  resilience::QueueOptions qopts;
  qopts.capacity = 32;
  const BackpressureReport rep = run_with_backpressure(queued, stream, qopts);
  EXPECT_EQ(rep.applied, stream.size());
  EXPECT_EQ(rep.queue.accepted, stream.size());
  EXPECT_EQ(rep.queue.popped, stream.size());
  EXPECT_LE(rep.queue.max_depth, 32u);
  EXPECT_EQ(direct.stats().inserts, queued.stats().inserts);
  EXPECT_EQ(direct.stats().deletes, queued.stats().deletes);
  EXPECT_EQ(g1.num_edges(), g2.num_edges());
}

// StreamProcessor::set_epoch_log is the streaming layer's durability hook:
// every epoch the processor publishes is logged before the publisher sees
// it, so recovery after the processor is gone rebuilds the last view.
TEST(StreamDurability, EpochLogHookRecoversLastPublishedView) {
  const std::string dir = resilience::fresh_dir("stream_log");
  const auto stream = generate_stream(
      64, {.count = 600, .delete_fraction = 0.2, .seed = 8});
  std::vector<store::GraphView> views;
  {
    store::EpochLog log({.dir = dir, .checkpoint_every = 4});
    graph::DynamicGraph g(64);
    TriggerPolicy policy;
    policy.triangle_delta_threshold = 0;  // publication only via cadence
    StreamProcessor proc(g, policy);
    proc.set_epoch_log(&log);
    proc.set_epoch_publisher(
        [&](store::GraphView v) { views.push_back(std::move(v)); },
        /*every_n_updates=*/32);
    proc.apply_all(stream);
    proc.publish_epoch();
  }  // the processor and its log are dropped
  ASSERT_GE(views.size(), 10u);
  const auto rec = store::recover(resilience::recovery_opts(dir));
  EXPECT_TRUE(rec.report.status().ok());
  EXPECT_EQ(rec.report.recovered_epoch, views.back().epoch());
  EXPECT_GT(rec.report.checkpoint_epoch, 0u);
  EXPECT_GT(rec.report.replayed, 0u);
  EXPECT_EQ(store::view_digest(rec.store->view()),
            store::view_digest(views.back()));
}

}  // namespace
}  // namespace ga::streaming

namespace ga::pipeline {
namespace {

CorpusOptions small_corpus_opts() {
  CorpusOptions opts;
  opts.num_people = 300;
  opts.num_addresses = 120;
  opts.num_rings = 5;
  opts.ring_size = 4;
  opts.seed = 11;
  return opts;
}

RawRecord valid_record(std::uint64_t id, const Corpus& corpus,
                       std::uint64_t salt) {
  core::Xoshiro256 rng(id * 7919 + salt);
  RawRecord rec;
  rec.record_id = 1000000 + id;
  rec.first_name = "Str";
  rec.last_name = "Newcomer" + std::to_string(rng.next_below(100));
  rec.birth_year = 1960 + static_cast<std::uint32_t>(rng.next_below(40));
  rec.address_id =
      static_cast<std::uint32_t>(rng.next_below(corpus.num_addresses));
  rec.credit_score = 500.0;
  rec.ts = static_cast<std::int64_t>(2000000 + id);
  return rec;
}

TEST(RunStream, QuarantinesMalformedRecordsAndIngestsTheRest) {
  const auto corpus = generate_corpus(small_corpus_opts());
  CanonicalFlow flow;
  flow.run_batch(corpus);
  flow.set_stream_resilience(StreamResilienceOptions{});

  std::vector<RawRecord> records;
  for (std::uint64_t i = 0; i < 120; ++i) {
    RawRecord rec = valid_record(i, corpus, 1);
    if (i % 10 == 3) rec.last_name.clear();          // 12x empty-last-name
    if (i % 40 == 7) rec.address_id = 100000;        // 3x bad-address
    if (i % 60 == 11) rec.ssn = "12AB";              // 2x bad-ssn
    records.push_back(rec);
  }
  resilience::QueueOptions qopts;
  qopts.capacity = 16;
  const StreamIngestReport rep = flow.run_stream(records, qopts);
  EXPECT_EQ(rep.ingested, records.size());
  EXPECT_EQ(rep.quarantined, 17u);
  EXPECT_EQ(rep.queue.accepted, records.size());
  const auto& by_reason = flow.dead_letters().by_reason();
  EXPECT_EQ(by_reason.at("empty-last-name"), 12u);
  EXPECT_EQ(by_reason.at("bad-address"), 3u);
  EXPECT_EQ(by_reason.at("bad-ssn"), 2u);
  // Telemetry surfaces the executor stages and the quarantine line.
  const auto health = flow.stream_health();
  ASSERT_GE(health.size(), 2u);
  bool saw_apply = false, saw_dead_letter = false;
  for (const auto& line : health) {
    saw_apply |= line.stage == "health:ingest_apply";
    saw_dead_letter |= line.stage == "health:dead_letter";
  }
  EXPECT_TRUE(saw_apply);
  EXPECT_TRUE(saw_dead_letter);
}

TEST(RunStream, InjectedIngestFaultsRetryAndExhaustDeterministically) {
  const auto corpus = generate_corpus(small_corpus_opts());
  // Scatter unrecoverable bursts: with max_attempts=2, a single nth throw
  // retries transparently; three consecutive calls are needed to drop a
  // record, so use every_n=1 over a sub-stream via a dedicated plan.
  const auto run = [&](const resilience::FaultPlan& plan) {
    CanonicalFlow flow;
    flow.run_batch(corpus);
    resilience::FaultInjector inj(plan);
    StreamResilienceOptions ropts;
    ropts.faults = &inj;
    flow.set_stream_resilience(ropts);
    std::vector<RawRecord> records;
    for (std::uint64_t i = 0; i < 40; ++i) {
      records.push_back(valid_record(i, corpus, 2));
    }
    for (const auto& rec : records) flow.ingest_streaming(rec);
    return std::tuple{flow.streaming_triggers(), flow.streaming_degraded(),
                      flow.streaming_dropped(),
                      flow.dead_letters().total_quarantined(),
                      flow.store().content_digest()};
  };
  // A transient fault on one ingest_apply call: retried, nothing lost.
  resilience::FaultPlan transient;
  resilience::FaultSpec s;
  s.stage = "ingest_apply";
  s.nth = 5;
  transient.specs.push_back(s);
  const auto a = run(transient);
  const auto b = run(transient);
  EXPECT_EQ(a, b);  // deterministic under a fixed plan
  EXPECT_EQ(std::get<2>(a), 0u);  // retry absorbed the transient fault
  EXPECT_EQ(std::get<3>(a), 0u);

  // A permanently failing NORA re-analytic: every threshold test degrades
  // to the co-resident estimate; the store still ingests every record.
  resilience::FaultPlan down;
  resilience::FaultSpec d;
  d.stage = "trigger_nora";
  d.every_n = 1;
  down.specs.push_back(d);
  const auto c = run(down);
  const auto e = run(down);
  EXPECT_EQ(c, e);
  EXPECT_GT(std::get<1>(c), 0u);  // degraded threshold tests happened
  // Degraded mode never writes columns, so the two fault plans end with
  // stores that differ only in the NORA write-backs, not in people/edges.
  EXPECT_EQ(std::get<2>(c), 0u);
}

// CanonicalFlow::set_epoch_log is the flow's durability hook: every epoch
// the flow publishes (here: each streaming NORA trigger) is logged, so
// recovery after the flow is gone rebuilds the last published view.
TEST(FlowDurability, EpochLogHookRecoversLastPublishedView) {
  const std::string dir = resilience::fresh_dir("flow_log");
  const auto corpus = generate_corpus(small_corpus_opts());
  std::vector<store::GraphView> views;
  {
    store::EpochLog log({.dir = dir});
    CanonicalFlow flow;
    flow.run_batch(corpus);
    flow.set_epoch_log(&log);
    flow.set_snapshot_publisher(
        [&](store::GraphView v) { views.push_back(std::move(v)); });
    // A newcomer seen at two addresses of an existing person shares both
    // with them, which is a NORA relationship: the second sighting fires.
    const vid_t people = flow.store().num_people();
    for (vid_t person = 0; person < people && views.size() < 4; ++person) {
      const auto addrs = flow.store().addresses_of(person);
      if (addrs.size() < 2) continue;
      RawRecord rec;
      rec.record_id = 5000000 + 2 * person;
      rec.first_name = "Durable";
      rec.last_name = "Newcomer" + std::to_string(person);
      rec.ssn = std::to_string(900000000 + person);
      rec.birth_year = 1990;
      rec.credit_score = 600.0;
      rec.ts = 3000000 + person;
      rec.address_id = static_cast<std::uint32_t>(addrs[0] - people);
      flow.ingest_streaming(rec);
      ++rec.record_id;
      rec.address_id = static_cast<std::uint32_t>(addrs[1] - people);
      flow.ingest_streaming(rec);
    }
  }  // the flow and its log are dropped
  ASSERT_GE(views.size(), 3u);
  const auto rec = store::recover(resilience::recovery_opts(dir));
  EXPECT_TRUE(rec.report.status().ok());
  EXPECT_EQ(rec.report.recovered_epoch, views.back().epoch());
  EXPECT_GT(rec.report.replayed, 0u);
  EXPECT_EQ(store::view_digest(rec.store->view()),
            store::view_digest(views.back()));
}

}  // namespace
}  // namespace ga::pipeline
