#include "mapsec/crypto/bytes.hpp"

#include <string.h>  // explicit_bzero

#include <cctype>
#include <stdexcept>

namespace mapsec::crypto {

Bytes to_bytes(std::string_view s) { return Bytes(s.begin(), s.end()); }

std::string to_hex(ConstBytes data) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(data.size() * 2);
  for (std::uint8_t b : data) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

namespace {
int hex_nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
}  // namespace

Bytes from_hex(std::string_view hex) {
  Bytes out;
  out.reserve(hex.size() / 2);
  int hi = -1;
  for (char c : hex) {
    if (std::isspace(static_cast<unsigned char>(c))) continue;
    const int v = hex_nibble(c);
    if (v < 0) throw std::invalid_argument("from_hex: non-hex character");
    if (hi < 0) {
      hi = v;
    } else {
      out.push_back(static_cast<std::uint8_t>((hi << 4) | v));
      hi = -1;
    }
  }
  if (hi >= 0) throw std::invalid_argument("from_hex: odd number of digits");
  return out;
}

bool ct_equal(ConstBytes a, ConstBytes b) {
  if (a.size() != b.size()) return false;
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) diff |= a[i] ^ b[i];
  return diff == 0;
}

void secure_wipe(std::uint8_t* data, std::size_t len) {
  explicit_bzero(data, len);
}

void secure_wipe(Bytes& data) { secure_wipe(data.data(), data.size()); }

Bytes cat(ConstBytes a, ConstBytes b) {
  Bytes out;
  out.reserve(a.size() + b.size());
  out.insert(out.end(), a.begin(), a.end());
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

Bytes cat(ConstBytes a, ConstBytes b, ConstBytes c) {
  Bytes out = cat(a, b);
  out.insert(out.end(), c.begin(), c.end());
  return out;
}

Bytes cat(ConstBytes a, ConstBytes b, ConstBytes c, ConstBytes d) {
  Bytes out = cat(a, b, c);
  out.insert(out.end(), d.begin(), d.end());
  return out;
}

void xor_into(std::span<std::uint8_t> dst, ConstBytes src) {
  if (dst.size() != src.size())
    throw std::invalid_argument("xor_into: length mismatch");
  for (std::size_t i = 0; i < dst.size(); ++i) dst[i] ^= src[i];
}

}  // namespace mapsec::crypto
