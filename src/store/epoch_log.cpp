#include "store/epoch_log.hpp"

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#include "obs/metrics.hpp"
#include "resilience/fault_injection.hpp"
#include "store/delta_summary.hpp"
#include "store/versioned_store.hpp"

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

namespace ga::store {

namespace fs = std::filesystem;

namespace {

// 'GAEPCKP2': version 2 moved the header fields (epoch, nbytes) under the
// CRC so header bit rot fails closed instead of mis-aiming recovery.
constexpr char kCheckpointMagic[8] = {'G', 'A', 'E', 'P', 'C', 'K', 'P', '2'};

double us_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

template <typename T>
void put(std::vector<char>* out, const T& v) {
  const auto* p = reinterpret_cast<const char*>(&v);
  out->insert(out->end(), p, p + sizeof(T));
}

template <typename T>
void put_vec(std::vector<char>* out, const std::vector<T>& v) {
  put(out, static_cast<std::uint64_t>(v.size()));
  const auto* p = reinterpret_cast<const char*>(v.data());
  out->insert(out->end(), p, p + v.size() * sizeof(T));
}

template <typename T>
T get(const char* data, std::size_t len, std::size_t* at) {
  GA_CHECK(*at + sizeof(T) <= len, "epoch log: truncated payload");
  T v;
  std::memcpy(&v, data + *at, sizeof(T));
  *at += sizeof(T);
  return v;
}

template <typename T>
std::vector<T> get_vec(const char* data, std::size_t len, std::size_t* at) {
  const auto count = get<std::uint64_t>(data, len, &*at);
  GA_CHECK(count <= (len - *at) / sizeof(T), "epoch log: vector past payload");
  std::vector<T> v(count);
  // memcpy must not see the null data() of an empty vector.
  if (count > 0) {
    std::memcpy(static_cast<void*>(v.data()), data + *at, count * sizeof(T));
  }
  *at += count * sizeof(T);
  return v;
}

}  // namespace

// --- epoch record payload codec --------------------------------------------

void encode_epoch_payload(const DeltaBatch& batch, const DeltaSummary& summary,
                          std::vector<char>* out) {
  std::vector<char> batch_bytes;
  batch.encode(&batch_bytes);
  put(out, static_cast<std::uint32_t>(batch_bytes.size()));
  out->insert(out->end(), batch_bytes.begin(), batch_bytes.end());
  put(out, summary.epoch);
  put(out, summary.weight_updates);
  put(out, summary.vertex_growth);
  put_vec(out, summary.changed_vertices);
  put_vec(out, summary.inserted_arcs);
  put_vec(out, summary.deleted_arcs);
  put_vec(out, summary.property_vertices);
}

void decode_epoch_payload(const char* data, std::size_t len, DeltaBatch* batch,
                          DeltaSummary* summary) {
  std::size_t at = 0;
  const auto batch_len = get<std::uint32_t>(data, len, &at);
  GA_CHECK(batch_len <= len - at, "epoch log: batch bytes past payload");
  *batch = DeltaBatch::decode(data + at, batch_len);
  at += batch_len;
  summary->epoch = get<std::uint64_t>(data, len, &at);
  summary->weight_updates = get<eid_t>(data, len, &at);
  summary->vertex_growth = get<vid_t>(data, len, &at);
  summary->changed_vertices = get_vec<vid_t>(data, len, &at);
  summary->inserted_arcs = get_vec<std::pair<vid_t, vid_t>>(data, len, &at);
  summary->deleted_arcs = get_vec<std::pair<vid_t, vid_t>>(data, len, &at);
  summary->property_vertices = get_vec<vid_t>(data, len, &at);
  GA_CHECK(at == len, "epoch log: trailing bytes in epoch payload");
}

// --- checkpoint image -------------------------------------------------------
//
// Body: [u8 directed], then offsets, targets, weights and props, each as
// [u64 count][count elements]. Both directions stream it between the file
// and the CSR and property arrays where they sit, so neither holds a
// second copy of the image.

namespace {

using PropVec = std::vector<std::pair<vid_t, float>>;

// The CRC starts over the header fields, not just the body, so bit rot in
// epoch or nbytes fails closed at load.
std::uint32_t header_crc(std::uint64_t epoch, std::uint64_t nbytes) {
  return core::crc32(&nbytes, sizeof(nbytes),
                     core::crc32(&epoch, sizeof(epoch)));
}

// Calls fn(data, bytes) on each piece of the body, in file order. An empty
// array contributes its count alone.
template <typename Fn>
void for_each_body_piece(const graph::CSRGraph& g, const PropVec& props,
                         Fn fn) {
  const std::uint8_t directed = g.directed() ? 1 : 0;
  fn(&directed, sizeof(directed));
  const auto array = [&](const auto& v) {
    const auto count = static_cast<std::uint64_t>(v.size());
    fn(&count, sizeof(count));
    if (!v.empty()) fn(v.data(), v.size() * sizeof(v.front()));
  };
  array(g.offsets());
  array(g.targets());
  array(g.weights());
  array(props);
}

// Reads a body into its arrays and folds every byte into a running CRC.
// Each count is bounded by the body bytes left before it sizes an
// allocation, so a damaged count fails as ga::Error, not std::bad_alloc.
struct BodyReader {
  std::istream& is;
  std::uint64_t left;  // body bytes not yet read
  std::uint32_t crc;
  const std::string& dir;

  void read(void* dst, std::uint64_t bytes) {
    GA_CHECK(bytes <= left,
             "epoch log: checkpoint body overruns its length in " + dir);
    is.read(static_cast<char*>(dst), static_cast<std::streamsize>(bytes));
    GA_CHECK(is.good(), "epoch log: truncated checkpoint body in " + dir);
    crc = core::crc32(dst, bytes, crc);
    left -= bytes;
  }

  template <typename T>
  T get() {
    T v{};
    read(&v, sizeof(T));
    return v;
  }

  template <typename T>
  std::vector<T> get_vec() {
    const auto count = get<std::uint64_t>();
    GA_CHECK(count <= left / sizeof(T),
             "epoch log: vector past checkpoint body in " + dir);
    std::vector<T> v(count);
    if (count > 0) read(v.data(), count * sizeof(T));
    return v;
  }
};

}  // namespace

bool load_checkpoint(const std::string& dir, CheckpointImage* out) {
  const std::string path = EpochLog::checkpoint_path(dir);
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) return false;
  char magic[sizeof(kCheckpointMagic)];
  is.read(magic, sizeof(magic));
  GA_CHECK(is.good() && std::memcmp(magic, kCheckpointMagic, sizeof(magic)) == 0,
           "epoch log: bad checkpoint magic in " + dir);
  std::uint64_t epoch = 0, nbytes = 0;
  std::uint32_t crc = 0;
  is.read(reinterpret_cast<char*>(&epoch), sizeof(epoch));
  is.read(reinterpret_cast<char*>(&nbytes), sizeof(nbytes));
  is.read(reinterpret_cast<char*>(&crc), sizeof(crc));
  GA_CHECK(is.good(), "epoch log: truncated checkpoint header in " + dir);
  // Bound the length field against the file first, since it bounds every
  // count in the body: a bit-rotted nbytes must fail like any other
  // corruption. A rotted-but-plausible length still fails closed below —
  // the CRC covers the header fields too.
  constexpr std::uint64_t kHeaderBytes =
      sizeof(kCheckpointMagic) + sizeof(epoch) + sizeof(nbytes) + sizeof(crc);
  const std::uint64_t fsize = resilience::file_size(path);
  GA_CHECK(fsize >= kHeaderBytes && nbytes <= fsize - kHeaderBytes,
           "epoch log: checkpoint length field exceeds file in " + dir);

  BodyReader body{is, nbytes, header_crc(epoch, nbytes), dir};
  const bool directed = body.get<std::uint8_t>() != 0;
  auto offsets = body.get_vec<eid_t>();
  auto targets = body.get_vec<vid_t>();
  auto weights = body.get_vec<float>();
  auto props = body.get_vec<PropVec::value_type>();
  GA_CHECK(body.left == 0, "epoch log: trailing bytes in checkpoint body");
  GA_CHECK(body.crc == crc, "epoch log: checkpoint CRC mismatch in " + dir);

  out->epoch = epoch;
  out->base = std::make_shared<const graph::CSRGraph>(
      std::move(offsets), std::move(targets), std::move(weights), directed);
  out->props = props.empty()
                   ? nullptr
                   : std::make_shared<const PropVec>(std::move(props));
  return true;
}

// --- EpochLog ---------------------------------------------------------------

std::string EpochLog::log_path(const std::string& dir) {
  return dir + "/epochs.log";
}
std::string EpochLog::checkpoint_path(const std::string& dir) {
  return dir + "/checkpoint.gsc";
}

EpochLog::EpochLog(EpochLogOptions opts) : opts_(std::move(opts)) {
  GA_CHECK(!opts_.dir.empty(), "epoch log: empty directory");
  fs::create_directories(opts_.dir);

  // Resume state from an existing directory (the reopen-after-recovery
  // path): checkpoint epoch from the image header, last epoch from the log
  // tail. A torn tail is cut off now — those bytes were never
  // acknowledged, and appending after them would bury new records behind
  // an unscannable frame.
  CheckpointImage image;
  if (load_checkpoint(opts_.dir, &image)) {
    has_checkpoint_ = true;
    stats_.checkpoint_epoch = image.epoch;
    stats_.last_epoch = image.epoch;
  }
  const auto scan = resilience::scan_records(log_path(opts_.dir));
  GA_CHECK(scan.corrupt_records == 0,
           "epoch log: corrupt record in " + log_path(opts_.dir) +
               " — run recovery with an explicit policy first");
  if (scan.torn_tail) {
    fs::resize_file(log_path(opts_.dir), scan.bytes_valid);
  }
  if (!scan.records.empty()) {
    stats_.last_epoch = std::max(stats_.last_epoch, scan.records.back().seq);
  }
  open_fd();
}

EpochLog::~EpochLog() {
  try {
    flush();
  } catch (...) {
    // Destructor flush is best-effort; a crash here is the torn-tail case
    // recovery is built to handle.
  }
#ifndef _WIN32
  if (fd_ >= 0) ::close(fd_);
#endif
}

void EpochLog::hook(const char* stage) {
  if (fault_hook_) fault_hook_(stage);
}

void EpochLog::open_fd() {
#ifndef _WIN32
  if (fd_ >= 0) ::close(fd_);
  fd_ = ::open(log_path(opts_.dir).c_str(), O_WRONLY | O_APPEND | O_CREAT,
               0644);
  GA_CHECK(fd_ >= 0, "epoch log: cannot open " + log_path(opts_.dir));
#endif
}

void EpochLog::sync_fd() {
#ifndef _WIN32
  GA_CHECK(::fdatasync(fd_) == 0,
           "epoch log: fdatasync failed for " + log_path(opts_.dir));
#endif
}

void EpochLog::append(std::uint64_t epoch, const DeltaBatch& batch,
                      const DeltaSummary& summary) {
  const auto t0 = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  GA_CHECK(!failed_,
           "epoch log: unusable after a failed append rollback in " +
               log_path(opts_.dir));
  hook("log_append_begin");
  GA_CHECK(epoch == stats_.last_epoch + 1,
           "epoch log: non-contiguous epoch " + std::to_string(epoch) +
               " after " + std::to_string(stats_.last_epoch));

  std::vector<char> payload;
  encode_epoch_payload(batch, summary, &payload);
  GA_CHECK(payload.size() <= resilience::recio::kMaxPayload,
           "epoch log: oversized epoch record");
  scratch_.resize(resilience::recio::frame_size(payload.size()));
  const std::size_t frame = resilience::recio::frame_record(
      scratch_.data(), epoch, payload.data(), payload.size());

#ifndef _WIN32
  const auto base = ::lseek(fd_, 0, SEEK_END);
  GA_CHECK(base >= 0, "epoch log: lseek failed for " + log_path(opts_.dir));
#endif
  const bool was_dirty = dirty_;
  try {
    hook("log_append_write");
#ifndef _WIN32
    const auto written = ::write(fd_, scratch_.data(), frame);
    GA_CHECK(written == static_cast<ssize_t>(frame),
             "epoch log: short write to " + log_path(opts_.dir));
#endif
    dirty_ = true;
    if (opts_.sync_each_append) {
      hook("log_append_sync");
      sync_fd();
      dirty_ = false;
      ++stats_.syncs;
    }
  } catch (const resilience::InjectedFault&) {
    // A simulated kill: a dead process runs no cleanup, and recovery must
    // cope with exactly the bytes the crash left behind.
    throw;
  } catch (...) {
    // Real I/O failure (short write, failed fdatasync) with the process
    // still alive: cut the file back to the pre-append frame boundary so
    // the torn frame cannot bury later acked appends behind an
    // unscannable prefix, and so a retry cannot frame a duplicate seq.
    // If the rollback itself fails the log is permanently unusable —
    // refusing future appends beats acking epochs recovery cannot reach.
    dirty_ = was_dirty;
#ifndef _WIN32
    if (::ftruncate(fd_, base) != 0) failed_ = true;
#endif
    throw;
  }
  ++stats_.appends;
  stats_.bytes_appended += frame;
  stats_.last_epoch = epoch;
  stats_.last_append_us = us_since(t0);
  if (obs::enabled()) {
    auto& reg = obs::MetricsRegistry::global();
    reg.counter("store.log.appends_total").add();
    reg.counter("store.log.bytes_total").add(static_cast<double>(frame));
    reg.histogram("store.log.append_us").observe(stats_.last_append_us);
  }
}

void EpochLog::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!dirty_ || fd_ < 0) return;
  sync_fd();
  dirty_ = false;
  ++stats_.syncs;
}

bool EpochLog::checkpoint_due() const {
  std::lock_guard<std::mutex> lock(mu_);
  return opts_.checkpoint_every > 0 &&
         stats_.last_epoch - stats_.checkpoint_epoch >= opts_.checkpoint_every;
}

void EpochLog::maybe_checkpoint(const GraphView& view) {
  if (checkpoint_due()) checkpoint(view);
}

void EpochLog::checkpoint(const GraphView& view) {
  const auto t0 = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  // A concurrent writer can race two maybe_checkpoint calls; the one
  // carrying the older view must not regress the durable image.
  if (has_checkpoint_ && view.epoch() <= stats_.checkpoint_epoch) return;
  hook("ckpt_begin");

  // The flattened base image. flatten() on a compacted view is a cache
  // load; on a deep chain it pays the fold the compactor would have.
  const auto flat = view.flatten();
  const auto props = view.flatten_props();
  const PropVec no_props;
  const PropVec& prop_vec = props ? *props : no_props;
  const std::uint64_t ck_epoch = view.epoch();
  std::uint64_t nbytes = 0;
  for_each_body_piece(*flat, prop_vec,
                      [&](const void*, std::size_t bytes) { nbytes += bytes; });
  std::uint32_t crc = header_crc(ck_epoch, nbytes);
  for_each_body_piece(*flat, prop_vec,
                      [&](const void* data, std::size_t bytes) {
                        crc = core::crc32(data, bytes, crc);
                      });

  // tmp → fsync → rename → dir-fsync: a crash at any point leaves either
  // the old checkpoint or the new one, never a partial image, and the
  // rename can't vanish on power loss once the directory entry is synced.
  const std::string final_path = checkpoint_path(opts_.dir);
  const std::string tmp = final_path + ".tmp";
  hook("ckpt_write");
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    GA_CHECK(os.good(), "epoch log: cannot open " + tmp);
    os.write(kCheckpointMagic, sizeof(kCheckpointMagic));
    os.write(reinterpret_cast<const char*>(&ck_epoch), sizeof(ck_epoch));
    os.write(reinterpret_cast<const char*>(&nbytes), sizeof(nbytes));
    os.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
    for_each_body_piece(*flat, prop_vec,
                        [&](const void* data, std::size_t bytes) {
                          os.write(static_cast<const char*>(data),
                                   static_cast<std::streamsize>(bytes));
                        });
    os.flush();
    GA_CHECK(os.good(), "epoch log: checkpoint write failed: " + tmp);
  }
  hook("ckpt_sync");
  resilience::fsync_file(tmp);
  hook("ckpt_rename");
  fs::rename(tmp, final_path);
  hook("ckpt_dirsync");
  resilience::fsync_dir(opts_.dir);

  has_checkpoint_ = true;
  stats_.checkpoint_epoch = view.epoch();
  ++stats_.checkpoints;

  truncate_below(view.epoch());

  stats_.last_checkpoint_ms = us_since(t0) / 1000.0;
  if (obs::enabled()) {
    auto& reg = obs::MetricsRegistry::global();
    reg.counter("store.log.checkpoints_total").add();
    reg.histogram("store.log.checkpoint_ms").observe(stats_.last_checkpoint_ms);
  }
}

// Drop log records with seq <= epoch (they are covered by the durable
// checkpoint) while preserving any newer suffix a concurrent writer may
// have appended past the captured view. Same staging discipline as the
// checkpoint itself: suffix → tmp → fsync → rename → dir-fsync. A crash
// anywhere in the window leaves either the old log (recovery skips the
// already-checkpointed prefix by seq) or the new one.
void EpochLog::truncate_below(std::uint64_t epoch) {
  hook("truncate_begin");
  const std::string path = log_path(opts_.dir);
  const auto scan = resilience::scan_records(path);
  std::uint64_t cut = 0;
  for (const auto& rec : scan.records) {
    if (rec.seq > epoch) break;
    cut += resilience::recio::frame_size(rec.payload.size());
  }
  if (cut == 0) {
    hook("truncate_done");
    return;
  }

  std::vector<char> suffix;
  {
    std::ifstream is(path, std::ios::binary | std::ios::ate);
    GA_CHECK(is.good(), "epoch log: cannot reopen " + path);
    const auto end = static_cast<std::uint64_t>(is.tellg());
    suffix.resize(end - cut);
    is.seekg(static_cast<std::streamoff>(cut));
    if (!suffix.empty()) {
      is.read(suffix.data(), static_cast<std::streamsize>(suffix.size()));
      GA_CHECK(is.good(), "epoch log: suffix read failed: " + path);
    }
  }
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    GA_CHECK(os.good(), "epoch log: cannot open " + tmp);
    if (!suffix.empty()) {
      os.write(suffix.data(), static_cast<std::streamsize>(suffix.size()));
    }
    os.flush();
    GA_CHECK(os.good(), "epoch log: truncate write failed: " + tmp);
  }
  resilience::fsync_file(tmp);
  hook("truncate_swap");
  fs::rename(tmp, path);
  resilience::fsync_dir(opts_.dir);
  open_fd();  // fd_ pointed at the renamed-over inode
  hook("truncate_done");

  ++stats_.truncations;
  stats_.truncated_bytes += cut;
  if (obs::enabled()) {
    auto& reg = obs::MetricsRegistry::global();
    reg.counter("store.log.truncations_total").add();
    reg.counter("store.log.truncated_bytes_total").add(static_cast<double>(cut));
  }
}

void EpochLog::attach(VersionedGraphStore& store) {
  store.set_durability_hook(
      [this](std::uint64_t epoch, const DeltaBatch& batch,
             const DeltaSummary& summary) { append(epoch, batch, summary); });
  store.set_post_publish_hook(
      [this](const GraphView& view) { maybe_checkpoint(view); });
  // A log without a checkpoint has no base to replay onto: seed one from
  // the store's current view before the first epoch lands.
  if (!has_checkpoint_) checkpoint(store.view());
}

void EpochLog::set_fault_hook(std::function<void(const char*)> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  fault_hook_ = std::move(fn);
}

EpochLogStats EpochLog::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace ga::store
