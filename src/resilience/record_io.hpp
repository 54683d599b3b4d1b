// Shared CRC-framed record I/O. A record is
//   [u32 payload_len][u32 crc][u64 seq][payload bytes]
// where the CRC-32 (core/hash.hpp) covers the sequence number and the
// payload. The store's epoch log (store/epoch_log.hpp) writes these frames
// to disk and the dist message channel (dist/message.hpp) to a socket;
// every scan shares one torn-tail / corruption contract:
//
//  * A frame that extends past end-of-file is a TORN TAIL — the expected
//    artifact of a crash mid-append. The valid prefix is returned and the
//    torn byte count reported so the caller can truncate it.
//  * A complete frame whose CRC mismatches is CORRUPTION (bit rot or a
//    fault-injection test). Policy kStop ends the scan there and reports
//    it; kThrow raises ga::Error.
//
// Also home to the POSIX durability helpers (fsync_file / fsync_dir) and
// the deterministic file-fault helpers the chaos harnesses use.
#pragma once

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/common.hpp"
#include "core/hash.hpp"
#include "core/status.hpp"

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

namespace ga::resilience {

namespace recio {
inline constexpr std::size_t kFrameHeader =
    sizeof(std::uint32_t) * 2;  // len + crc
inline constexpr std::size_t kSeqBytes = sizeof(std::uint64_t);
inline constexpr std::size_t kMaxPayload = 0x7fffffffu;

/// Total on-disk bytes of one framed record.
inline constexpr std::size_t frame_size(std::size_t payload_len) {
  return kFrameHeader + kSeqBytes + payload_len;
}

/// Frame one record into `dst` (which must hold frame_size(len) bytes):
/// memcpy the [seq][payload] span, CRC it in one pass, then prepend the
/// header. Returns the framed byte count.
inline std::size_t frame_record(char* dst, std::uint64_t seq,
                                const void* payload, std::size_t len) {
  GA_ASSERT(len <= kMaxPayload);
  std::memcpy(dst + kFrameHeader, &seq, kSeqBytes);
  if (len > 0) std::memcpy(dst + kFrameHeader + kSeqBytes, payload, len);
  const std::uint32_t crc = core::crc32(dst + kFrameHeader, kSeqBytes + len);
  const auto len32 = static_cast<std::uint32_t>(len);
  std::memcpy(dst, &len32, sizeof(len32));
  std::memcpy(dst + sizeof(len32), &crc, sizeof(crc));
  return frame_size(len);
}

/// CRC over [seq][payload] exactly as frame_record stores it. For callers
/// that assemble the payload in place (the dist message channel builds
/// frames directly in its send buffer) or verify a frame read off a socket
/// rather than a file.
inline std::uint32_t frame_crc(std::uint64_t seq, const void* payload,
                               std::size_t len) {
  std::uint32_t crc = core::crc32(&seq, kSeqBytes);
  return core::crc32(payload, len, crc);
}

/// Parsed [u32 len][u32 crc] prefix of one frame. `hdr` must point at
/// kFrameHeader readable bytes.
struct FrameHeader {
  std::uint32_t len = 0;
  std::uint32_t crc = 0;
};
inline FrameHeader parse_frame_header(const char* hdr) {
  FrameHeader h;
  std::memcpy(&h.len, hdr, sizeof(h.len));
  std::memcpy(&h.crc, hdr + sizeof(h.len), sizeof(h.crc));
  return h;
}
}  // namespace recio

/// One recovered record: sequence number plus raw payload bytes.
struct FramedRecord {
  std::uint64_t seq = 0;
  std::vector<char> payload;
};

enum class CorruptionPolicy : std::uint8_t {
  kStop,   // report and stop the scan at the first bad CRC
  kThrow,  // raise ga::Error
};

struct RecordScanResult {
  std::vector<FramedRecord> records;  // valid prefix, in append order
  std::uint64_t bytes_valid = 0;      // absolute end offset of the clean prefix
  bool torn_tail = false;             // incomplete frame at end of file
  std::uint64_t torn_bytes = 0;       // bytes past the clean prefix
  std::uint64_t corrupt_records = 0;  // CRC mismatches (kStop: 1, then stop)

  /// Unified-status view of the scan. A torn tail is OK (the expected
  /// crash artifact — the prefix is intact); a CRC mismatch is data loss.
  core::Status status() const {
    if (corrupt_records > 0) {
      return core::Status::DataLoss(std::to_string(corrupt_records) +
                                    " corrupt record(s)");
    }
    return core::Status::Ok();
  }
};

/// Scan framed records starting at byte `offset` (a frame boundary — 0 or
/// the bytes_valid of a previous scan). A missing file yields an empty
/// result; bytes_valid comes back absolute, so tailers can feed it straight
/// back in as the next offset.
inline RecordScanResult scan_records_from(
    const std::string& path, std::uint64_t offset,
    CorruptionPolicy policy = CorruptionPolicy::kStop) {
  RecordScanResult out;
  out.bytes_valid = offset;
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) {
    out.bytes_valid = 0;
    return out;  // no log yet: empty history
  }
  is.seekg(0, std::ios::end);
  const auto end = static_cast<std::uint64_t>(is.tellg());
  GA_CHECK(offset <= end, "scan_records: offset past end of " + path);
  is.seekg(static_cast<std::streamoff>(offset));

  std::uint64_t at = offset;
  while (at < end) {
    if (end - at < recio::kFrameHeader + recio::kSeqBytes) {
      out.torn_tail = true;
      break;
    }
    std::uint32_t len = 0, crc = 0;
    std::uint64_t seq = 0;
    is.read(reinterpret_cast<char*>(&len), sizeof(len));
    is.read(reinterpret_cast<char*>(&crc), sizeof(crc));
    is.read(reinterpret_cast<char*>(&seq), sizeof(seq));
    if (!is.good() || end - at - recio::kFrameHeader - recio::kSeqBytes < len) {
      out.torn_tail = true;
      break;
    }
    std::vector<char> payload(len);
    if (len > 0) {
      is.read(payload.data(), static_cast<std::streamsize>(len));
      if (!is.good()) {
        out.torn_tail = true;
        break;
      }
    }
    std::uint32_t actual = core::crc32(&seq, recio::kSeqBytes);
    actual = core::crc32(payload.data(), payload.size(), actual);
    if (actual != crc) {
      ++out.corrupt_records;
      if (policy == CorruptionPolicy::kThrow) {
        throw Error("record_io: CRC mismatch at offset " + std::to_string(at) +
                    " in " + path);
      }
      break;  // kStop: everything from here on is untrusted
    }
    at += recio::frame_size(len);
    out.records.push_back(FramedRecord{seq, std::move(payload)});
  }
  out.bytes_valid = at;
  out.torn_bytes = end - at;
  return out;
}

/// Scan a whole log file into records.
inline RecordScanResult scan_records(
    const std::string& path, CorruptionPolicy policy = CorruptionPolicy::kStop) {
  return scan_records_from(path, 0, policy);
}

// --- POSIX durability helpers ----------------------------------------------
// An ofstream flush only reaches the OS page cache; surviving power loss
// needs fsync on the file AND — after a rename-into-place — on the parent
// directory, or the new directory entry itself can vanish.

/// fsync an existing file by path. Throws ga::Error on failure.
inline void fsync_file(const std::string& path) {
#ifndef _WIN32
  const int fd = ::open(path.c_str(), O_RDONLY);
  GA_CHECK(fd >= 0, "fsync_file: cannot open " + path);
  const int rc = ::fsync(fd);
  ::close(fd);
  GA_CHECK(rc == 0, "fsync_file: fsync failed for " + path);
#else
  (void)path;  // no-op stub off POSIX; tests only run on Linux
#endif
}

/// fsync a directory so renames/creates inside it are durable.
inline void fsync_dir(const std::string& dir) {
#ifndef _WIN32
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  GA_CHECK(fd >= 0, "fsync_dir: cannot open " + dir);
  const int rc = ::fsync(fd);
  ::close(fd);
  GA_CHECK(rc == 0, "fsync_dir: fsync failed for " + dir);
#else
  (void)dir;
#endif
}

// --- deterministic file-fault helpers (chaos harness) -----------------------

/// Remove the last `bytes` bytes of a file (simulates a crash mid-append).
inline void tear_tail(const std::string& path, std::uint64_t bytes) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  GA_CHECK(!ec, "tear_tail: cannot stat " + path);
  GA_CHECK(bytes <= size, "tear_tail: larger than file");
  std::filesystem::resize_file(path, size - bytes);
}

/// XOR one byte at `offset` (simulates bit rot; CRC must catch it).
inline void corrupt_byte(const std::string& path, std::uint64_t offset,
                         unsigned char xor_mask = 0x40) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  GA_CHECK(f.good(), "corrupt_byte: cannot open " + path);
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.read(&c, 1);
  GA_CHECK(f.good(), "corrupt_byte: offset past end of " + path);
  c = static_cast<char>(static_cast<unsigned char>(c) ^ xor_mask);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&c, 1);
  GA_CHECK(f.good(), "corrupt_byte: write failed: " + path);
}

inline std::uint64_t file_size(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  GA_CHECK(!ec, "file_size: cannot stat " + path);
  return size;
}

}  // namespace ga::resilience
