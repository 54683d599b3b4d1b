// Length-prefixed, CRC-framed message protocol between the dist
// coordinator and its shard processes.
//
// A message on the wire is one record in the shared record_io framing —
//   [u32 payload_len][u32 crc][u64 seq][u16 type][body bytes]
// — the same discipline the epoch log writes to disk, carried over an
// AF_UNIX stream socket instead of a file. The CRC-32 covers
// [seq][type][body]; seq is a per-direction message counter, so a dropped
// or duplicated frame surfaces as a sequence gap even when its CRC is
// intact. A peer killed mid-send leaves a torn frame, which the reader
// reports as kUnavailable (the crash artifact fail-over reacts to), while
// a CRC mismatch on a complete frame is kDataLoss — exactly the epoch
// log's torn-tail / corruption split.
//
// MsgChannel is strictly request/reply per direction and not thread-safe;
// the coordinator serializes access per shard (queries vs heartbeats take
// a per-shard mutex).
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/common.hpp"
#include "core/status.hpp"

namespace ga::dist {

enum class MsgType : std::uint16_t {
  kError = 0,        // body: string (shard-side exception text)
  // -- lifecycle --
  kInit,             // cold start: identity + owner map + base sub-CSR
  kInitRecover,      // respawn: identity + owner map; rebuild from epoch log
  kInitAck,          // body: u64 epoch, u32 n, u64 arcs
  kApplyEpoch,       // body: u64 epoch, encoded DeltaBatch
  kApplyAck,         // body: u64 epoch (shard's epoch after apply)
  // -- scatter/gather kernel rounds --
  kBfsInit,          // body: u64 epoch, u32 source
  kWccInit,          // body: u64 epoch
  kStep,             // body: inbox pairs (u32 vertex, u32 value)
  kStepReply,        // body: outbox pairs + u64 active_next
  kPrInit,           // body: u64 epoch, f64 damping
  kPrInitReply,      // body: u64 dangling_owned, ghost id vec
  kPrExports,        // body: export id vec (owned ids other shards ghost)
  kPrScatter,        // body: empty
  kPrScatterReply,   // body: f64 vec aligned with the export list
  kPrApply,          // body: f64 dangling, f64 vec aligned with ghost list
  kPrApplyReply,     // body: f64 local L1 delta
  kGatherDist,       // body: empty — reply owned (vertex, dist) pairs
  kGatherLabels,     // body: empty — reply owned (vertex, label) pairs
  kGatherRanks,      // body: empty — reply owned (vertex, rank) pairs
  kGatherReply,
  kFetchArcs,        // body: empty — reply the shard's sub-CSR + props
  kArcsReply,
  // -- health --
  kHeartbeat,        // body: empty
  kHeartbeatReply,   // body: u64 epoch
  kStatus,           // body: empty
  kStatusReply,      // body: shard counters (see ShardServer)
  kShutdown,         // body: empty
  kShutdownAck,
};

const char* msg_type_name(MsgType t);

struct Message {
  MsgType type = MsgType::kError;
  std::uint64_t seq = 0;
  std::vector<char> body;
};

/// Append-only POD serializer for message bodies. Same single-architecture
/// contract as the DeltaBatch codec: coordinator and shards always run on
/// one host.
class ByteWriter {
 public:
  template <typename T>
  void put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* p = reinterpret_cast<const char*>(&v);
    buf_.insert(buf_.end(), p, p + sizeof(T));
  }
  template <typename T>
  void put_vec(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    put(static_cast<std::uint64_t>(v.size()));
    const auto* p = reinterpret_cast<const char*>(v.data());
    buf_.insert(buf_.end(), p, p + v.size() * sizeof(T));
  }
  void put_str(const std::string& s) {
    put(static_cast<std::uint64_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  void put_bytes(const void* data, std::size_t len) {
    const auto* p = static_cast<const char*>(data);
    buf_.insert(buf_.end(), p, p + len);
  }

  std::span<const char> bytes() const { return buf_; }
  std::vector<char> take() { return std::move(buf_); }

 private:
  std::vector<char> buf_;
};

/// Bounds-checked reader over a received body; throws ga::Error on a
/// truncated or oversized field (the sender is in-tree, so that is a bug
/// or corruption, not bad user input — callers reply kError).
class ByteReader {
 public:
  ByteReader(const char* data, std::size_t len) : data_(data), len_(len) {}
  explicit ByteReader(const std::vector<char>& v)
      : ByteReader(v.data(), v.size()) {}

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    GA_CHECK(at_ + sizeof(T) <= len_, "dist message: truncated field");
    T v;
    std::memcpy(&v, data_ + at_, sizeof(T));
    at_ += sizeof(T);
    return v;
  }
  template <typename T>
  std::vector<T> get_vec() {
    const auto count = get<std::uint64_t>();
    GA_CHECK(count <= (len_ - at_) / sizeof(T),
             "dist message: vector length past payload");
    std::vector<T> v(count);
    // memcpy must not see the null data() of an empty vector.
    if (count > 0) std::memcpy(v.data(), data_ + at_, count * sizeof(T));
    at_ += count * sizeof(T);
    return v;
  }
  std::string get_str() {
    const auto count = get<std::uint64_t>();
    GA_CHECK(count <= len_ - at_, "dist message: string length past payload");
    std::string s(data_ + at_, count);
    at_ += count;
    return s;
  }

  std::size_t remaining() const { return len_ - at_; }
  bool done() const { return at_ == len_; }

 private:
  const char* data_;
  std::size_t len_;
  std::size_t at_ = 0;
};

/// One endpoint of a coordinator<->shard stream. Owns the fd; move-only.
class MsgChannel {
 public:
  MsgChannel() = default;
  explicit MsgChannel(int fd) : fd_(fd) {}
  ~MsgChannel() { close(); }
  MsgChannel(const MsgChannel&) = delete;
  MsgChannel& operator=(const MsgChannel&) = delete;
  MsgChannel(MsgChannel&& o) noexcept { *this = std::move(o); }
  MsgChannel& operator=(MsgChannel&& o) noexcept {
    if (this != &o) {
      close();
      fd_ = o.fd_;
      send_seq_ = o.send_seq_;
      recv_seq_ = o.recv_seq_;
      stats_ = o.stats_;
      o.fd_ = -1;
    }
    return *this;
  }

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void close();
  /// Shut down both directions without releasing the fd: a blocked peer
  /// sharing the socket wakes with EOF. The in-process "kill -9".
  void shutdown_both();

  /// Frame and write one message; blocks until fully written. kUnavailable
  /// on a broken pipe / reset (peer died).
  core::Status send(MsgType type, std::span<const char> body = {});
  core::Status send(MsgType type, const ByteWriter& w) {
    return send(type, w.bytes());
  }

  /// Read one message. timeout_ms < 0 waits forever. kDeadlineExceeded on
  /// timeout, kUnavailable on EOF/reset (incl. a torn frame — the peer
  /// died mid-send), kDataLoss on CRC mismatch, kInternal on a seq gap.
  core::Status recv(Message* out, int timeout_ms);

  /// recv + type check: a kError reply surfaces as kInternal carrying the
  /// shard's exception text; any other unexpected type is kInternal too.
  core::StatusOr<Message> expect(MsgType want, int timeout_ms);

  /// Connected AF_UNIX stream pair: (coordinator end, shard end).
  static std::pair<MsgChannel, MsgChannel> make_pair();

  struct IoStats {
    std::uint64_t msgs_sent = 0, msgs_recv = 0;
    std::uint64_t bytes_sent = 0, bytes_recv = 0;
  };
  const IoStats& io_stats() const { return stats_; }

 private:
  core::Status read_exact(char* dst, std::size_t len, int timeout_ms);

  int fd_ = -1;
  std::uint64_t send_seq_ = 0;  // last sent; wire seq starts at 1
  std::uint64_t recv_seq_ = 0;  // last received
  IoStats stats_;
  std::vector<char> scratch_;   // framed send buffer, reused across calls
};

}  // namespace ga::dist
