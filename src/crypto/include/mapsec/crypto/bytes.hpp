// Byte-buffer utilities shared by every mapsec crypto primitive.
//
// All primitives in mapsec::crypto operate on `Bytes` (a plain
// std::vector<std::uint8_t>) or std::span views of it. This header also
// provides the constant-time comparison used wherever secrets are compared
// (MAC tags, PINs, boot-image digests) and explicit big-/little-endian
// load/store helpers so the wire formats are unambiguous.
#pragma once

#include <cstdint>
#include <cstddef>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace mapsec::crypto {

/// Owning byte buffer used throughout the library.
using Bytes = std::vector<std::uint8_t>;

/// Read-only view over bytes; every primitive accepts this.
using ConstBytes = std::span<const std::uint8_t>;

/// Build a Bytes buffer from the raw characters of a string (no encoding).
Bytes to_bytes(std::string_view s);

/// Render bytes as lowercase hex.
std::string to_hex(ConstBytes data);

/// Parse lowercase/uppercase hex (whitespace ignored). Throws
/// std::invalid_argument on odd length or non-hex characters.
Bytes from_hex(std::string_view hex);

/// Constant-time equality: runtime depends only on the lengths, never on
/// the contents. Use for every comparison involving secret material.
bool ct_equal(ConstBytes a, ConstBytes b);

/// Secure wipe: zeroes through explicit_bzero, which the compiler cannot
/// elide as a dead store.
void secure_wipe(std::uint8_t* data, std::size_t len);
void secure_wipe(Bytes& data);

/// Concatenate buffers.
Bytes cat(ConstBytes a, ConstBytes b);
Bytes cat(ConstBytes a, ConstBytes b, ConstBytes c);
Bytes cat(ConstBytes a, ConstBytes b, ConstBytes c, ConstBytes d);

/// XOR `src` into `dst` (lengths must match).
void xor_into(std::span<std::uint8_t> dst, ConstBytes src);

// ---- endian helpers -------------------------------------------------------

constexpr std::uint32_t load_be32(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

constexpr void store_be32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

constexpr std::uint64_t load_be64(const std::uint8_t* p) {
  return (std::uint64_t{load_be32(p)} << 32) | load_be32(p + 4);
}

constexpr void store_be64(std::uint8_t* p, std::uint64_t v) {
  store_be32(p, static_cast<std::uint32_t>(v >> 32));
  store_be32(p + 4, static_cast<std::uint32_t>(v));
}

constexpr std::uint32_t load_le32(const std::uint8_t* p) {
  return std::uint32_t{p[0]} | (std::uint32_t{p[1]} << 8) |
         (std::uint32_t{p[2]} << 16) | (std::uint32_t{p[3]} << 24);
}

constexpr void store_le32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

constexpr std::uint64_t load_le64(const std::uint8_t* p) {
  return std::uint64_t{load_le32(p)} | (std::uint64_t{load_le32(p + 4)} << 32);
}

constexpr void store_le64(std::uint8_t* p, std::uint64_t v) {
  store_le32(p, static_cast<std::uint32_t>(v));
  store_le32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

// The complementary shift is masked so n = 0 stays defined (a shift by 32
// is undefined behaviour); compilers still emit a single rotate.
constexpr std::uint32_t rotl32(std::uint32_t x, unsigned n) {
  return (x << n) | (x >> ((32 - n) & 31));
}

constexpr std::uint32_t rotr32(std::uint32_t x, unsigned n) {
  return (x >> n) | (x << ((32 - n) & 31));
}

/// FNV-1a over a byte string; the hash functor for every hashed
/// byte-keyed index in the tree (MontCache moduli, the server's
/// session-id cache).
struct BytesHash {
  std::size_t operator()(const Bytes& b) const noexcept {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::uint8_t byte : b) {
      h ^= byte;
      h *= 0x100000001b3ull;
    }
    return static_cast<std::size_t>(h);
  }
};

/// Shorter first, equal lengths by memcmp; the order of every ordered
/// byte-keyed index (the base SessionCache). An explicit size-then-memcmp
/// compare: std::vector's three-way compare, inlined at -O3, makes GCC 12
/// warn -Wstringop-overread on its memcmp bound.
struct BytesLess {
  bool operator()(const Bytes& a, const Bytes& b) const noexcept {
    if (a.size() != b.size()) return a.size() < b.size();
    return !a.empty() && std::memcmp(a.data(), b.data(), a.size()) < 0;
  }
};

}  // namespace mapsec::crypto

