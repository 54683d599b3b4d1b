// Durable epoch log + crash recovery suite: the kill-anywhere sweep
// (every named store kill-point × several occurrence counts), random
// byte-offset tail truncations, the checkpoint-rename/truncation crash
// window, corrupt-record policies, reopen-and-continue after recovery,
// and hot-standby promotion under live writer load (a TSan target).
//
// The invariant proved throughout: a crash at ANY instant loses zero
// acknowledged epochs — recover() comes back at recovered_epoch >= acked
// with a view digest identical to an uncrashed twin replayed to the same
// epoch.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/hash.hpp"
#include "core/prng.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "resilience/fault_injection.hpp"
#include "resilience/record_io.hpp"
#include "server/server.hpp"
#include "store/delta.hpp"
#include "store/delta_summary.hpp"
#include "store/epoch_log.hpp"
#include "store/graph_view.hpp"
#include "store/recovery.hpp"
#include "store/versioned_store.hpp"

namespace ga::store {
namespace {

namespace fs = std::filesystem;
using graph::CSRGraph;

// ---------------------------------------------------------------------------
// Deterministic workload: a seeded base graph plus a fixed sequence of
// churn batches (inserts/deletes/weight upserts, occasional vertex growth
// and property patches). Any prefix of the sequence can be replayed onto
// the base to build the "uncrashed twin" a recovered store must match.

struct Mirror {
  bool directed;
  vid_t n;
  std::map<std::pair<vid_t, vid_t>, float> arcs;

  void insert(vid_t u, vid_t v, float w = 1.0f) {
    arcs[{u, v}] = w;
    if (!directed) arcs[{v, u}] = w;
  }
  void erase(vid_t u, vid_t v) {
    arcs.erase({u, v});
    if (!directed) arcs.erase({v, u});
  }
  bool has(vid_t u, vid_t v) const { return arcs.count({u, v}) > 0; }

  CSRGraph eager() const {
    std::vector<graph::Edge> edges;
    for (const auto& [arc, w] : arcs) {
      if (arc.first < arc.second) edges.push_back(graph::Edge{arc.first, arc.second});
    }
    return graph::build_undirected(std::move(edges), n);
  }
};

constexpr vid_t kVertices = 160;
constexpr int kSeedEdges = 420;
constexpr int kOpsPerEpoch = 36;

struct Workload {
  CSRGraph base;
  std::vector<DeltaBatch> batches;  // batches[i] is epoch i+1
};

Workload make_workload(std::uint64_t seed, int epochs) {
  core::Xoshiro256 rng(seed);
  Mirror m{/*directed=*/false, kVertices, {}};
  for (int i = 0; i < kSeedEdges; ++i) {
    vid_t u = rng.next_vid(m.n);
    vid_t v = rng.next_vid(m.n);
    if (u == v) v = (v + 1) % m.n;
    m.insert(u, v);
  }
  Workload w{m.eager(), {}};
  for (int e = 1; e <= epochs; ++e) {
    DeltaBatch b(/*directed=*/false);
    if (e % 6 == 5) {
      b.add_vertices(2);  // streaming vertex growth crosses the log too
      m.n += 2;
    }
    for (int i = 0; i < kOpsPerEpoch; ++i) {
      vid_t u = rng.next_vid(m.n);
      vid_t v = rng.next_vid(m.n);
      if (u == v) v = (v + 1) % m.n;
      if (m.has(u, v) && rng.next_below(10) < 3) {
        m.erase(u, v);
        b.delete_edge(u, v);
      } else {
        m.insert(u, v);
        b.insert_edge(u, v);
      }
    }
    if (e % 3 == 0) b.set_vertex_property(rng.next_vid(m.n), static_cast<float>(e));
    w.batches.push_back(b);
  }
  return w;
}

CompactionPolicy manual_compaction() {
  CompactionPolicy pol;
  pol.auto_compact = false;
  return pol;
}

/// The uncrashed twin at epoch k: base + batches[0..k).
std::unique_ptr<VersionedGraphStore> twin_at(const Workload& w, std::uint64_t k) {
  auto s = std::make_unique<VersionedGraphStore>(w.base, manual_compaction());
  for (std::uint64_t i = 0; i < k; ++i) s->apply(w.batches[i]);
  return s;
}

std::uint64_t twin_digest(const Workload& w, std::uint64_t k) {
  return view_digest(twin_at(w, k)->view());
}

RecoveryOptions dir_opts(const std::string& dir) {
  RecoveryOptions o;
  o.dir = dir;
  o.compaction = manual_compaction();
  return o;
}

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("ga_recovery_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

// ---------------------------------------------------------------------------
// Crash harness: run the workload through a store with an attached log,
// with a one-shot kill planted at a named stage. An InjectedFault escaping
// apply() is the simulated process death — everything in memory is
// abandoned and only the directory survives for recovery.

struct CrashRun {
  std::uint64_t acked = 0;        // epochs whose apply() returned
  std::uint64_t stage_calls = 0;  // times the planted stage was reached
  bool crashed = false;
};

CrashRun run_to_crash(const Workload& w, const std::string& dir,
                      const std::string& stage = "", std::uint64_t nth = 1,
                      std::uint64_t checkpoint_every = 4,
                      bool final_checkpoint = true) {
  resilience::FaultInjector inj(stage.empty()
                                    ? resilience::FaultPlan{}
                                    : resilience::FaultPlan::kill_at(stage, nth));
  CrashRun r;
  try {
    VersionedGraphStore store(w.base, manual_compaction());
    EpochLog log({.dir = dir, .checkpoint_every = checkpoint_every});
    const auto hook = [&](const char* s) {
      if (stage == s) ++r.stage_calls;
      inj.on_call(s);
    };
    store.set_fault_hook(hook);
    log.set_fault_hook(hook);
    log.attach(store);
    for (const DeltaBatch& b : w.batches) {
      store.apply(b);
      ++r.acked;
    }
    if (final_checkpoint) {
      store.compact_now();  // reaches the compact_* kill-points
      log.checkpoint(store.view());
    }
  } catch (const resilience::InjectedFault&) {
    r.crashed = true;
  }
  return r;
}

bool is_compaction_stage(const std::string& stage) {
  return stage.rfind("compact_", 0) == 0;
}

/// The sweep invariant at one crash site: recovery succeeds, loses no
/// acked epoch, and matches the uncrashed twin bit-for-bit at whatever
/// epoch it recovered to.
void verify_crash_site(const Workload& w, const std::string& dir,
                       std::uint64_t acked) {
  if (!fs::exists(EpochLog::checkpoint_path(dir))) {
    // Killed before the attach-time checkpoint: nothing was ever durable,
    // but nothing was ever acknowledged either.
    EXPECT_EQ(acked, 0u);
    return;
  }
  auto rec = recover(dir_opts(dir));
  EXPECT_TRUE(rec.report.status().ok()) << rec.report.status().message();
  EXPECT_EQ(rec.report.summary_mismatches, 0u);
  ASSERT_GE(rec.report.recovered_epoch, acked) << "acked epoch lost";
  ASSERT_LE(rec.report.recovered_epoch, w.batches.size());
  EXPECT_EQ(rec.store->epoch(), rec.report.recovered_epoch);
  EXPECT_EQ(view_digest(rec.store->view()),
            twin_digest(w, rec.report.recovered_epoch));
}

// ---------------------------------------------------------------------------
// EpochLog basics

TEST(EpochLog, AppendRequiresContiguousEpochs) {
  const std::string dir = fresh_dir("contiguous");
  const Workload w = make_workload(3, 4);
  VersionedGraphStore store(w.base, manual_compaction());
  EpochLog log({.dir = dir});
  log.attach(store);
  EXPECT_EQ(log.stats().checkpoint_epoch, 0u);  // attach checkpoints the base
  store.apply(w.batches[0]);
  EXPECT_EQ(log.stats().last_epoch, 1u);
  // A gap (epoch 5 after 1) is a wiring bug, not a crash artifact.
  DeltaSummary summary;
  summary.epoch = 5;
  EXPECT_THROW(log.append(5, w.batches[1], summary), Error);
  fs::remove_all(dir);
}

TEST(EpochLog, ReopenResumesAtTheLoggedEpoch) {
  const std::string dir = fresh_dir("reopen");
  const Workload w = make_workload(5, 6);
  {
    VersionedGraphStore store(w.base, manual_compaction());
    EpochLog log({.dir = dir, .checkpoint_every = 0});
    log.attach(store);
    for (int i = 0; i < 3; ++i) store.apply(w.batches[i]);
    EXPECT_EQ(log.stats().appends, 3u);
  }
  EpochLog log({.dir = dir, .checkpoint_every = 0});
  EXPECT_EQ(log.stats().last_epoch, 3u);
  EXPECT_EQ(log.stats().checkpoint_epoch, 0u);
  fs::remove_all(dir);
}

// A failed write or fdatasync with the process still alive must restore
// the log to a frame boundary: otherwise the torn frame buries every
// later acked append behind bytes no recovery scan can cross, and a
// retry would frame a duplicate seq.
TEST(EpochLog, FailedAppendRestoresFrameBoundary) {
  const std::string dir = fresh_dir("append_rollback");
  const Workload w = make_workload(41, 4);
  VersionedGraphStore store(w.base, manual_compaction());
  EpochLog log({.dir = dir});
  log.attach(store);
  store.apply(w.batches[0]);
  const std::uint64_t good = resilience::file_size(EpochLog::log_path(dir));

  // A ga::Error from the sync-stage hook stands in for a failed fdatasync
  // AFTER the frame bytes hit the file (an InjectedFault would model a
  // process kill instead, which runs no rollback by design).
  log.set_fault_hook([](const char* s) {
    if (std::string_view(s) == "log_append_sync") {
      throw Error("injected sync failure");
    }
  });
  EXPECT_THROW(store.apply(w.batches[1]), Error);
  EXPECT_EQ(store.epoch(), 1u);  // the epoch was never acked
  EXPECT_EQ(resilience::file_size(EpochLog::log_path(dir)), good);

  // The retry succeeds and the log scans clean: one record per epoch.
  log.set_fault_hook(nullptr);
  store.apply(w.batches[1]);
  store.apply(w.batches[2]);
  const auto scan = resilience::scan_records(EpochLog::log_path(dir));
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_EQ(scan.records[1].seq, 2u);
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.corrupt_records, 0u);

  auto rec = recover(dir_opts(dir));
  EXPECT_EQ(rec.report.recovered_epoch, 3u);
  EXPECT_EQ(view_digest(rec.store->view()), twin_digest(w, 3));
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Clean round trip: recover an uncrashed directory, serve from it

TEST(Recovery, RoundTripRecoversExactStateAndServes) {
  const std::string dir = fresh_dir("roundtrip");
  const Workload w = make_workload(11, 16);
  const CrashRun r = run_to_crash(w, dir);
  ASSERT_FALSE(r.crashed);
  ASSERT_EQ(r.acked, 16u);

  auto rec = recover(dir_opts(dir));
  EXPECT_TRUE(rec.report.status().ok());
  EXPECT_EQ(rec.report.recovered_epoch, 16u);
  EXPECT_FALSE(rec.report.torn_tail);
  // recovered = checkpoint base + contiguous replay on top.
  EXPECT_EQ(rec.report.checkpoint_epoch + rec.report.replayed, 16u);
  const std::uint64_t twin = twin_digest(w, 16);
  EXPECT_EQ(view_digest(rec.store->view()), twin);

  // Double recovery is idempotent: same epoch, same digest.
  auto rec2 = recover(dir_opts(dir));
  EXPECT_EQ(rec2.report.recovered_epoch, 16u);
  EXPECT_EQ(view_digest(rec2.store->view()), twin);

  // Re-publish through the serving layer: the server answers queries on
  // the recovered view exactly as on the twin.
  server::AnalyticsServer recovered_srv;
  server::AnalyticsServer twin_srv;
  recovered_srv.publish(rec.store->view());
  twin_srv.publish(twin_at(w, 16)->view());
  server::QueryDesc q;
  q.kind = server::QueryKind::kBfs;
  q.seed = 0;
  const auto a = recovered_srv.execute_now(q);
  const auto b = twin_srv.execute_now(q);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.reached, b.reached);
  EXPECT_EQ(a.dist, b.dist);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// The tentpole: kill anywhere, lose nothing acked

TEST(Recovery, KillAnywhereSweepLosesNoAckedEpoch) {
  const Workload w = make_workload(17, 16);
  for (const char* stage : resilience::store_kill_points()) {
    for (const std::uint64_t nth : {std::uint64_t{1}, std::uint64_t{2},
                                    std::uint64_t{5}}) {
      const std::string label =
          std::string(stage) + "#" + std::to_string(nth);
      SCOPED_TRACE(label);
      const std::string dir = fresh_dir("sweep_" + label);
      const CrashRun r = run_to_crash(w, dir, stage, nth);
      if (r.stage_calls >= nth && !is_compaction_stage(stage)) {
        // The planted occurrence was reached, so the process must have
        // died there (compaction faults are absorbed by design: a failed
        // fold leaves the store intact).
        EXPECT_TRUE(r.crashed);
      }
      verify_crash_site(w, dir, r.acked);
      fs::remove_all(dir);
    }
  }
}

// The nastiest window: checkpoint renamed durable, crash before the log
// is truncated past it. Replay must skip the already-checkpointed records
// (idempotence by epoch seq), not double-apply them.
TEST(Recovery, CrashBetweenCheckpointRenameAndTruncation) {
  const std::string dir = fresh_dir("ckpt_window");
  const Workload w = make_workload(23, 16);
  // truncate_begin #1 is the attach-time checkpoint (nothing to cut);
  // #2 is the cadence checkpoint at epoch 4, right after its rename.
  const CrashRun r = run_to_crash(w, dir, "truncate_begin", 2);
  ASSERT_TRUE(r.crashed);
  // The kill fires inside epoch 4's apply() (post-publish checkpoint), so
  // that apply never returned: 3 acked, epoch 4 durable on disk anyway.
  ASSERT_EQ(r.acked, 3u);

  auto rec = recover(dir_opts(dir));
  EXPECT_TRUE(rec.report.status().ok());
  EXPECT_EQ(rec.report.checkpoint_epoch, 4u);
  EXPECT_EQ(rec.report.skipped, 4u);  // epochs 1..4 still in the log
  EXPECT_EQ(rec.report.recovered_epoch, 4u);
  EXPECT_EQ(view_digest(rec.store->view()), twin_digest(w, 4));
  fs::remove_all(dir);
}

// A failed-fsync-then-retry writer (before rollback existed) could frame
// the same seq twice. Replay must skip the duplicate, not hard-fail.
TEST(Recovery, ReplayToleratesDuplicateSeqRecords) {
  const Workload w = make_workload(43, 6);
  const std::string dir = fresh_dir("dup_seq");
  run_to_crash(w, dir, "", 1, /*checkpoint_every=*/0,
               /*final_checkpoint=*/false);
  const std::string path = EpochLog::log_path(dir);
  const auto scan = resilience::scan_records(path);
  ASSERT_EQ(scan.records.size(), 6u);

  // Splice a byte-identical copy of epoch 3's frame right after itself.
  std::uint64_t start = 0;
  for (int i = 0; i < 2; ++i) {
    start += resilience::recio::frame_size(scan.records[i].payload.size());
  }
  const std::uint64_t dup_len =
      resilience::recio::frame_size(scan.records[2].payload.size());
  std::vector<char> bytes(resilience::file_size(path));
  {
    std::ifstream is(path, std::ios::binary);
    is.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(is.good());
  }
  bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(start + dup_len),
               bytes.begin() + static_cast<std::ptrdiff_t>(start),
               bytes.begin() + static_cast<std::ptrdiff_t>(start + dup_len));
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(os.good());
  }

  auto rec = recover(dir_opts(dir));
  EXPECT_TRUE(rec.report.status().ok());
  EXPECT_EQ(rec.report.skipped, 1u);  // the duplicate, counted not applied
  EXPECT_EQ(rec.report.replayed, 6u);
  EXPECT_EQ(rec.report.recovered_epoch, 6u);
  EXPECT_EQ(view_digest(rec.store->view()), twin_digest(w, 6));
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Reopen-and-continue: recovery is a working store, not a read-only dump

TEST(Recovery, ReopenAfterCrashContinuesTheEpochSequence) {
  const std::string dir = fresh_dir("continue");
  const Workload w = make_workload(31, 16);
  const CrashRun r = run_to_crash(w, dir, "log_append_begin", 9);
  ASSERT_TRUE(r.crashed);
  ASSERT_EQ(r.acked, 8u);

  auto rec = recover(dir_opts(dir));
  ASSERT_EQ(rec.report.recovered_epoch, 8u);

  // Reattach a fresh log handle and run the rest of the workload.
  EpochLog log({.dir = dir, .checkpoint_every = 4});
  log.attach(*rec.store);
  for (std::size_t i = rec.report.recovered_epoch; i < w.batches.size(); ++i) {
    rec.store->apply(w.batches[i]);
  }
  EXPECT_EQ(rec.store->epoch(), 16u);
  EXPECT_EQ(view_digest(rec.store->view()), twin_digest(w, 16));

  // And the continued directory recovers to the full sequence.
  auto rec2 = recover(dir_opts(dir));
  EXPECT_EQ(rec2.report.recovered_epoch, 16u);
  EXPECT_EQ(view_digest(rec2.store->view()), twin_digest(w, 16));
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Torn tails at arbitrary byte offsets: whatever survives is a clean
// prefix of acked history

TEST(Recovery, RandomTailTruncationSweepKeepsAPrefix) {
  const Workload w = make_workload(29, 16);
  const std::string pristine = fresh_dir("tear_pristine");
  // Manual cadence: the attach checkpoint holds epoch 0 and the log keeps
  // all 16 records, so tears can land anywhere in real history.
  const CrashRun base = run_to_crash(w, pristine, "", 1, /*checkpoint_every=*/0,
                                     /*final_checkpoint=*/false);
  ASSERT_EQ(base.acked, 16u);
  const std::string log_name = EpochLog::log_path(pristine);
  const std::uint64_t log_size = resilience::file_size(log_name);
  ASSERT_GT(log_size, 0u);

  core::Xoshiro256 rng(77);
  for (int i = 0; i < 18; ++i) {
    SCOPED_TRACE("tear " + std::to_string(i));
    const std::string dir = fresh_dir("tear_case");
    fs::copy(pristine, dir,
             fs::copy_options::overwrite_existing | fs::copy_options::recursive);
    const std::uint64_t cut = 1 + rng.next_below(log_size);
    resilience::tear_tail(EpochLog::log_path(dir), cut);

    auto rec = recover(dir_opts(dir));
    EXPECT_TRUE(rec.report.status().ok());
    EXPECT_LE(rec.report.recovered_epoch, 16u);
    EXPECT_EQ(view_digest(rec.store->view()),
              twin_digest(w, rec.report.recovered_epoch));

    // Recovery truncated the torn tail, so a second pass sees a clean log
    // and lands on the identical epoch.
    auto rec2 = recover(dir_opts(dir));
    EXPECT_FALSE(rec2.report.torn_tail);
    EXPECT_EQ(rec2.report.recovered_epoch, rec.report.recovered_epoch);
    fs::remove_all(dir);
  }
  fs::remove_all(pristine);
}

// ---------------------------------------------------------------------------
// Corruption is data loss, never silent

TEST(Recovery, CorruptRecordReportsDataLoss) {
  const Workload w = make_workload(37, 8);
  const std::string dir = fresh_dir("corrupt");
  run_to_crash(w, dir, "", 1, /*checkpoint_every=*/0, /*final_checkpoint=*/false);
  // Flip a payload byte of the FIRST record (frame header 8B + seq 8B).
  resilience::corrupt_byte(EpochLog::log_path(dir), 20);

  auto rec = recover(dir_opts(dir));  // default kStop
  EXPECT_FALSE(rec.report.status().ok());
  EXPECT_GE(rec.report.corrupt_records, 1u);
  // The prefix before the damage (here: just the checkpoint base) still
  // stands, digest-consistent.
  EXPECT_EQ(rec.report.recovered_epoch, 0u);
  EXPECT_EQ(view_digest(rec.store->view()), twin_digest(w, 0));

  RecoveryOptions strict;
  strict.dir = dir;
  strict.policy = resilience::CorruptionPolicy::kThrow;
  EXPECT_THROW(recover(strict), Error);

  // An EpochLog refuses to append onto a corrupt history.
  EXPECT_THROW(EpochLog({.dir = dir}), Error);
  fs::remove_all(dir);
}

// Checkpoint header rot: the length field is bounded before it sizes an
// allocation, and the CRC covers the header fields — both fail as
// ga::Error, never as a multi-GB std::bad_alloc or a silently wrong
// checkpoint epoch. Header layout: magic[0,8) epoch[8,16) nbytes[16,24)
// crc[24,28) body[28,...).
TEST(Recovery, BitRottedCheckpointHeaderFailsClosed) {
  const Workload w = make_workload(47, 6);
  const std::string dir = fresh_dir("ckpt_rot_len");
  run_to_crash(w, dir);  // ends with a durable checkpoint
  // Flip a high byte of nbytes: the bounds check rejects it pre-alloc.
  resilience::corrupt_byte(EpochLog::checkpoint_path(dir), 22, 0x7f);
  CheckpointImage img;
  EXPECT_THROW(load_checkpoint(dir, &img), Error);
  fs::remove_all(dir);

  const std::string dir2 = fresh_dir("ckpt_rot_epoch");
  run_to_crash(w, dir2);
  // Flip the low byte of epoch: still a plausible image, but the CRC
  // covers the header, so the load fails instead of mis-aiming replay.
  resilience::corrupt_byte(EpochLog::checkpoint_path(dir2), 8);
  EXPECT_THROW(load_checkpoint(dir2, &img), Error);
  fs::remove_all(dir2);
}

// ---------------------------------------------------------------------------
// Checkpoint bytes. The writer streams the body from the CSR and property
// arrays and the loader reads it back into them; the file format is the
// one the buffered encoder below wrote: the whole body staged in one
// vector, then magic, epoch, body length, CRC and body.

template <typename T>
void ref_put(std::vector<char>* out, const T& v) {
  const auto* p = reinterpret_cast<const char*>(&v);
  out->insert(out->end(), p, p + sizeof(T));
}

template <typename T>
void ref_put_vec(std::vector<char>* out, const std::vector<T>& v) {
  ref_put(out, static_cast<std::uint64_t>(v.size()));
  const auto* p = reinterpret_cast<const char*>(v.data());
  out->insert(out->end(), p, p + v.size() * sizeof(T));
}

std::vector<char> reference_checkpoint(const GraphView& view) {
  const auto flat = view.flatten();
  std::vector<char> body;
  ref_put(&body, static_cast<std::uint8_t>(flat->directed() ? 1 : 0));
  ref_put_vec(&body, flat->offsets());
  ref_put_vec(&body, flat->targets());
  ref_put_vec(&body, flat->weights());
  const auto props = view.flatten_props();
  if (props) {
    ref_put_vec(&body, *props);
  } else {
    ref_put(&body, std::uint64_t{0});
  }
  const std::uint64_t epoch = view.epoch();
  const std::uint64_t nbytes = body.size();
  std::uint32_t crc = core::crc32(&epoch, sizeof(epoch));
  crc = core::crc32(&nbytes, sizeof(nbytes), crc);
  crc = core::crc32(body.data(), body.size(), crc);
  std::vector<char> file = {'G', 'A', 'E', 'P', 'C', 'K', 'P', '2'};
  ref_put(&file, epoch);
  ref_put(&file, nbytes);
  ref_put(&file, crc);
  file.insert(file.end(), body.begin(), body.end());
  return file;
}

std::vector<char> read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const char* data, std::size_t len) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(data, static_cast<std::streamsize>(len));
}

/// Checkpoints `view` into a fresh directory and returns the directory.
std::string checkpoint_of(const GraphView& view, const std::string& name) {
  const std::string dir = fresh_dir(name);
  EpochLog({.dir = dir}).checkpoint(view);
  return dir;
}

TEST(Checkpoint, BytesMatchReferenceEncoder) {
  // An undirected unweighted kron graph.
  const GraphView kron = GraphView::of(
      graph::make_rmat({.scale = 9, .edge_factor = 8, .seed = 3}));
  // A directed weighted graph, at a non-zero epoch.
  auto arcs = graph::rmat_edges({.scale = 8, .edge_factor = 4, .seed = 5});
  graph::randomize_weights(arcs, 0.5f, 2.0f, 5);
  graph::BuildOptions directed;
  directed.directed = true;
  directed.keep_weights = true;
  const GraphView weighted =
      GraphView::of(graph::build_csr(std::move(arcs), 256, directed), 7);
  // A delta-chained view whose layers carry property patches.
  const Workload w = make_workload(83, 7);
  const auto chained_store = twin_at(w, 7);
  const GraphView chained = chained_store->view();
  ASSERT_EQ(chained.chain_depth(), 7u);
  ASSERT_NE(chained.flatten_props(), nullptr);

  const std::pair<const char*, const GraphView*> cases[] = {
      {"kron", &kron}, {"directed_weighted", &weighted}, {"chained", &chained}};
  for (const auto& [name, view] : cases) {
    SCOPED_TRACE(name);
    const std::string dir = checkpoint_of(*view, std::string("ckpt_") + name);
    EXPECT_EQ(read_file(EpochLog::checkpoint_path(dir)),
              reference_checkpoint(*view));

    CheckpointImage img;
    ASSERT_TRUE(load_checkpoint(dir, &img));
    const auto flat = view->flatten();
    EXPECT_EQ(img.epoch, view->epoch());
    EXPECT_EQ(img.base->directed(), flat->directed());
    EXPECT_EQ(img.base->offsets(), flat->offsets());
    EXPECT_EQ(img.base->targets(), flat->targets());
    EXPECT_EQ(img.base->weights(), flat->weights());
    const auto props = view->flatten_props();
    ASSERT_EQ(img.props == nullptr, props == nullptr);
    if (props) {
      EXPECT_EQ(*img.props, *props);
    }
    fs::remove_all(dir);
  }
}

// Every flipped byte (two masks) and every truncation of a small image
// fails as ga::Error: never std::bad_alloc from a damaged count, and never
// a returned image. The image fills every array the body holds.
TEST(Checkpoint, EveryFlippedOrTruncatedByteFailsClosed) {
  graph::BuildOptions directed;
  directed.directed = true;
  directed.keep_weights = true;
  VersionedGraphStore store(
      graph::build_csr({{0, 1, 0.5f, 0}, {1, 2, 1.5f, 0}, {2, 0, 2.5f, 0},
                        {3, 4, 3.5f, 0}, {4, 5, 4.5f, 0}, {5, 3, 5.5f, 0}},
                       8, directed),
      manual_compaction());
  DeltaBatch batch(/*directed=*/true);
  batch.insert_edge(6, 7, 6.5f);
  batch.delete_edge(4, 5);
  batch.set_vertex_property(2, 0.25f);
  batch.set_vertex_property(7, -1.0f);
  store.apply(batch);
  const GraphView view = store.view();
  const std::string dir = checkpoint_of(view, "ckpt_sweep");
  const std::string path = EpochLog::checkpoint_path(dir);
  const std::vector<char> good = read_file(path);
  ASSERT_EQ(good, reference_checkpoint(view));

  CheckpointImage img;
  for (std::size_t i = 0; i < good.size(); ++i) {
    for (const unsigned char mask : {0x01, 0xff}) {
      std::vector<char> bad = good;
      bad[i] = static_cast<char>(bad[i] ^ mask);
      write_file(path, bad.data(), bad.size());
      EXPECT_THROW(load_checkpoint(dir, &img), Error)
          << "byte " << i << " mask " << int{mask};
    }
  }
  for (std::size_t len = 0; len < good.size(); ++len) {
    write_file(path, good.data(), len);
    EXPECT_THROW(load_checkpoint(dir, &img), Error) << "length " << len;
  }

  write_file(path, good.data(), good.size());
  ASSERT_TRUE(load_checkpoint(dir, &img));
  EXPECT_EQ(img.epoch, 1u);
  GraphView loaded(img.base, {}, img.props, img.epoch, img.base->num_arcs());
  EXPECT_EQ(view_digest(loaded), view_digest(view));
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Standby vs. log swap: a checkpoint truncation rewrites the log file. If
// the standby lags by more than the truncated prefix, the new file is no
// SHORTER than its byte cursor — a size probe alone sees nothing wrong,
// the cursor points mid-frame, and before the swap-detection fix the tail
// stalled forever (a hung failover).

TEST(Recovery, StandbyReloadsWhenTruncationOutpacesItsCursor) {
  const int kEpochs = 20;
  const Workload w = make_workload(67, kEpochs);
  const std::string dir = fresh_dir("standby_lag");

  VersionedGraphStore primary(w.base, manual_compaction());
  EpochLog log({.dir = dir, .checkpoint_every = 0});  // manual checkpoints
  log.attach(primary);
  for (int i = 0; i < 2; ++i) primary.apply(w.batches[i]);

  StandbyReplica standby(dir_opts(dir));
  ASSERT_EQ(standby.epoch(), 2u);
  const std::uint64_t cursor = resilience::file_size(EpochLog::log_path(dir));

  for (int i = 2; i < 4; ++i) primary.apply(w.batches[i]);
  const GraphView v4 = primary.view();
  for (int i = 4; i < kEpochs; ++i) primary.apply(w.batches[i]);
  // Checkpoint epoch 4: the truncation cuts 4 frames but 16 survive, so
  // the rewritten log is LONGER than the standby's 2-frame cursor.
  log.checkpoint(v4);
  ASSERT_GE(resilience::file_size(EpochLog::log_path(dir)), cursor);

  standby.tail_once();
  EXPECT_GE(standby.stats().reloads, 1u);
  EXPECT_EQ(standby.epoch(), static_cast<std::uint64_t>(kEpochs));
  EXPECT_EQ(view_digest(standby.view()), twin_digest(w, kEpochs));

  auto promoted = standby.promote(kEpochs);  // must not hang
  ASSERT_TRUE(promoted != nullptr);
  EXPECT_EQ(promoted->epoch(), static_cast<std::uint64_t>(kEpochs));
  fs::remove_all(dir);
}

// Same stall, but the swap preserves the log's inode (content overwrite
// instead of rename), so only the garbage-at-cursor cross-check against a
// from-zero scan can detect it.
TEST(Recovery, StandbyDetectsInPlaceLogSwapViaGarbageCursor) {
  const int kEpochs = 20;
  const Workload w = make_workload(71, kEpochs);

  // "Before" image: checkpoint@0 + all 20 records.
  const std::string before = fresh_dir("swap_before");
  run_to_crash(w, before, "", 1, /*checkpoint_every=*/0,
               /*final_checkpoint=*/false);

  // "After" image: checkpoint@4, records 5..20 — what the primary's
  // checkpoint truncation leaves behind.
  const std::string after = fresh_dir("swap_after");
  fs::copy(before, after,
           fs::copy_options::overwrite_existing | fs::copy_options::recursive);
  {
    EpochLog log({.dir = after, .checkpoint_every = 0});
    log.checkpoint(twin_at(w, 4)->view());
  }

  // The watched dir starts at the 2-epoch prefix of "before".
  const std::string dir = fresh_dir("swap_watch");
  fs::copy(before, dir,
           fs::copy_options::overwrite_existing | fs::copy_options::recursive);
  const auto pre = resilience::scan_records(EpochLog::log_path(before));
  ASSERT_EQ(pre.records.size(), static_cast<std::size_t>(kEpochs));
  std::uint64_t two_frames = 0;
  for (int i = 0; i < 2; ++i) {
    two_frames += resilience::recio::frame_size(pre.records[i].payload.size());
  }
  fs::resize_file(EpochLog::log_path(dir), two_frames);

  StandbyReplica standby(dir_opts(dir));
  ASSERT_EQ(standby.epoch(), 2u);

  // Swap in the "after" state WITHOUT changing the log's inode. The new
  // log is longer than the standby's cursor, which now points mid-frame.
  fs::copy_file(EpochLog::checkpoint_path(after), EpochLog::checkpoint_path(dir),
                fs::copy_options::overwrite_existing);
  std::vector<char> new_log(resilience::file_size(EpochLog::log_path(after)));
  {
    std::ifstream is(EpochLog::log_path(after), std::ios::binary);
    is.read(new_log.data(), static_cast<std::streamsize>(new_log.size()));
    ASSERT_TRUE(is.good());
  }
  {
    std::ofstream os(EpochLog::log_path(dir),
                     std::ios::binary | std::ios::trunc);
    os.write(new_log.data(), static_cast<std::streamsize>(new_log.size()));
    ASSERT_TRUE(os.good());
  }
  ASSERT_GE(resilience::file_size(EpochLog::log_path(dir)), two_frames);

  // One pass: the cursor reads garbage, the from-zero cross-check
  // disagrees, and the standby reloads instead of stalling.
  standby.tail_once();
  EXPECT_GE(standby.stats().reloads, 1u);
  EXPECT_EQ(standby.epoch(), static_cast<std::uint64_t>(kEpochs));
  EXPECT_EQ(view_digest(standby.view()), twin_digest(w, kEpochs));
  fs::remove_all(before);
  fs::remove_all(after);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Hot standby: tail the log under live writer load, then promote.
// run_sanitizers.sh runs this under TSan.

TEST(Recovery, StandbyPromotionUnderLiveWriterLoad) {
  const int kEpochs = 40;
  const Workload w = make_workload(91, kEpochs);
  const std::string dir = fresh_dir("standby");

  VersionedGraphStore primary(w.base, manual_compaction());
  EpochLog log({.dir = dir, .checkpoint_every = 8});
  log.attach(primary);  // checkpoint@0 exists: the standby can construct

  StandbyReplica standby(dir_opts(dir));
  EXPECT_EQ(standby.epoch(), 0u);
  standby.start(std::chrono::milliseconds(1));

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> reads{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const GraphView v = standby.view();  // leased mid-tail: must be safe
      std::uint64_t acc = 0;
      for (vid_t u = 0; u < 4 && u < v.num_vertices(); ++u) {
        v.for_each_out(u, [&](vid_t t, float) { acc += t; });
      }
      reads.fetch_add(1 + (acc & 0), std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  std::thread writer([&] {
    for (const DeltaBatch& b : w.batches) {
      primary.apply(b);
      std::this_thread::sleep_for(std::chrono::microseconds(400));
    }
  });
  writer.join();
  const std::uint64_t acked = primary.epoch();
  ASSERT_EQ(acked, static_cast<std::uint64_t>(kEpochs));
  done.store(true);
  reader.join();
  EXPECT_GT(reads.load(), 0u);

  // Promote: final catch-up to the writer's last-acked epoch, then the
  // replica hands its store over.
  auto promoted = standby.promote(acked);
  ASSERT_TRUE(promoted != nullptr);
  EXPECT_FALSE(standby.running());
  EXPECT_EQ(promoted->epoch(), acked);
  EXPECT_EQ(view_digest(promoted->view()), view_digest(primary.view()));
  EXPECT_GE(standby.stats().tail_passes, 1u);

  // The promoted store serves immediately.
  server::AnalyticsServer serving;
  serving.publish(promoted->view());
  server::QueryDesc q;
  q.kind = server::QueryKind::kBfs;
  q.seed = 0;
  EXPECT_TRUE(serving.execute_now(q).ok());
  fs::remove_all(dir);
}

// Promotion mid-stream: the standby only needs the durable prefix; a
// promote(min_epoch) issued while the writer is still appending blocks
// until that floor is durable, never past what was acked.
TEST(Recovery, PromoteWhileWriterStillAppending) {
  const int kEpochs = 32;
  const Workload w = make_workload(53, kEpochs);
  const std::string dir = fresh_dir("promote_race");

  VersionedGraphStore primary(w.base, manual_compaction());
  EpochLog log({.dir = dir, .checkpoint_every = 6});
  log.attach(primary);

  StandbyReplica standby(dir_opts(dir));
  standby.start(std::chrono::milliseconds(1));

  std::thread writer([&] {
    for (const DeltaBatch& b : w.batches) primary.apply(b);
  });
  // Half the stream is the promotion floor; the writer keeps going.
  auto promoted = standby.promote(kEpochs / 2);
  writer.join();

  ASSERT_TRUE(promoted != nullptr);
  const std::uint64_t at = promoted->epoch();
  EXPECT_GE(at, static_cast<std::uint64_t>(kEpochs / 2));
  EXPECT_LE(at, static_cast<std::uint64_t>(kEpochs));
  EXPECT_EQ(view_digest(promoted->view()), twin_digest(w, at));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace ga::store
