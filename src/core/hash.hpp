// Hashing helpers used by dedup blocking keys, anomaly-kernel key tables,
// the edge-dedup hash sets, and the record_io frame CRCs.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace ga::core {

/// 64-bit finalizer (Murmur3 fmix64): good avalanche for integer keys.
constexpr std::uint64_t mix64(std::uint64_t k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdULL;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ULL;
  k ^= k >> 33;
  return k;
}

/// Order-dependent combine (Boost-style, 64-bit constants).
constexpr std::uint64_t hash_combine(std::uint64_t seed, std::uint64_t v) {
  return seed ^ (mix64(v) + 0x9e3779b97f4a7c15ULL + (seed << 12) + (seed >> 4));
}

/// FNV-1a over a byte string: stable across runs (unlike std::hash).
constexpr std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Canonical undirected-edge key: order-independent pair hash input.
constexpr std::uint64_t edge_key(std::uint32_t u, std::uint32_t v) {
  const std::uint64_t lo = u < v ? u : v;
  const std::uint64_t hi = u < v ? v : u;
  return (hi << 32) | lo;
}

namespace detail {
/// CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) slice-by-8 lookup
/// tables, built at compile time so the header stays dependency-free.
/// Table 0 is the classic byte-at-a-time table; tables 1..7 advance a byte
/// through 1..7 further zero bytes, letting the hot loop fold 8 input
/// bytes per iteration — every epoch-log append and dist message CRCs its
/// whole frame, so this is on the durable write path.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_crc32_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    for (std::size_t j = 1; j < 8; ++j) {
      t[j][i] = t[0][t[j - 1][i] & 0xFFu] ^ (t[j - 1][i] >> 8);
    }
  }
  return t;
}
inline constexpr std::array<std::array<std::uint32_t, 256>, 8> kCrc32Tables =
    make_crc32_tables();
}  // namespace detail

/// CRC-32 over a byte range. `seed` lets callers chain ranges:
/// crc32(b, crc32(a)) == crc32(a ++ b). Matches zlib's crc32.
inline std::uint32_t crc32(const void* data, std::size_t len,
                           std::uint32_t seed = 0) {
  const auto& t = detail::kCrc32Tables;
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  while (len >= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);  // unaligned-safe 8-byte load
    c ^= static_cast<std::uint32_t>(w);
    const auto hi = static_cast<std::uint32_t>(w >> 32);
    c = t[7][c & 0xFFu] ^ t[6][(c >> 8) & 0xFFu] ^ t[5][(c >> 16) & 0xFFu] ^
        t[4][c >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    p += 8;
    len -= 8;
  }
  while (len-- > 0) {
    c = detail::kCrc32Tables[0][(c ^ *p++) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

inline std::uint32_t crc32(std::string_view s, std::uint32_t seed = 0) {
  return crc32(s.data(), s.size(), seed);
}

}  // namespace ga::core
