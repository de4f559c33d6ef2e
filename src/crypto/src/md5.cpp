#include "mapsec/crypto/md5.hpp"

#include <cstring>

namespace mapsec::crypto {

namespace {

// The four RFC 1321 round functions. F and G are written in their
// select forms (b ? c : d and d ? b : c), equal bit for bit to the
// textbook (b & c) | (~b & d) and (b & d) | (c & ~d).
constexpr std::uint32_t F(std::uint32_t b, std::uint32_t c, std::uint32_t d) {
  return d ^ (b & (c ^ d));
}
constexpr std::uint32_t G(std::uint32_t b, std::uint32_t c, std::uint32_t d) {
  return c ^ (d & (b ^ c));
}
constexpr std::uint32_t H(std::uint32_t b, std::uint32_t c, std::uint32_t d) {
  return b ^ c ^ d;
}
constexpr std::uint32_t I(std::uint32_t b, std::uint32_t c, std::uint32_t d) {
  return c ^ (b | ~d);
}

// One MD5 operation: a = b + ((a + Fn(b,c,d) + x + t) <<< s). The caller
// rotates the register roles instead of moving values between them.
template <std::uint32_t (*Fn)(std::uint32_t, std::uint32_t, std::uint32_t)>
inline void step(std::uint32_t& a, std::uint32_t b, std::uint32_t c,
                 std::uint32_t d, std::uint32_t x, std::uint32_t t,
                 unsigned s) {
  a = b + rotl32(a + Fn(b, c, d) + x + t, s);
}

}  // namespace

void Md5::reset() {
  h_ = {0x67452301u, 0xefcdab89u, 0x98badcfeu, 0x10325476u};
  buf_len_ = 0;
  total_len_ = 0;
}

// The 64 operations fully unrolled, with the additive constants
// T[i] = floor(2^32 * |sin(i + 1)|), message-word indices and shift
// amounts of RFC 1321 written in place.
void Md5::process_block(const std::uint8_t* block) {
  std::uint32_t m[16];
  for (int i = 0; i < 16; ++i) m[i] = load_le32(block + 4 * i);

  std::uint32_t a = h_[0], b = h_[1], c = h_[2], d = h_[3];
  // Round 1: F(b,c,d) = (b & c) | (~b & d); message words in order.
  step<F>(a, b, c, d, m[0], 0xd76aa478, 7);
  step<F>(d, a, b, c, m[1], 0xe8c7b756, 12);
  step<F>(c, d, a, b, m[2], 0x242070db, 17);
  step<F>(b, c, d, a, m[3], 0xc1bdceee, 22);
  step<F>(a, b, c, d, m[4], 0xf57c0faf, 7);
  step<F>(d, a, b, c, m[5], 0x4787c62a, 12);
  step<F>(c, d, a, b, m[6], 0xa8304613, 17);
  step<F>(b, c, d, a, m[7], 0xfd469501, 22);
  step<F>(a, b, c, d, m[8], 0x698098d8, 7);
  step<F>(d, a, b, c, m[9], 0x8b44f7af, 12);
  step<F>(c, d, a, b, m[10], 0xffff5bb1, 17);
  step<F>(b, c, d, a, m[11], 0x895cd7be, 22);
  step<F>(a, b, c, d, m[12], 0x6b901122, 7);
  step<F>(d, a, b, c, m[13], 0xfd987193, 12);
  step<F>(c, d, a, b, m[14], 0xa679438e, 17);
  step<F>(b, c, d, a, m[15], 0x49b40821, 22);

  // Round 2: G(b,c,d) = (b & d) | (c & ~d); word (5i + 1) mod 16.
  step<G>(a, b, c, d, m[1], 0xf61e2562, 5);
  step<G>(d, a, b, c, m[6], 0xc040b340, 9);
  step<G>(c, d, a, b, m[11], 0x265e5a51, 14);
  step<G>(b, c, d, a, m[0], 0xe9b6c7aa, 20);
  step<G>(a, b, c, d, m[5], 0xd62f105d, 5);
  step<G>(d, a, b, c, m[10], 0x02441453, 9);
  step<G>(c, d, a, b, m[15], 0xd8a1e681, 14);
  step<G>(b, c, d, a, m[4], 0xe7d3fbc8, 20);
  step<G>(a, b, c, d, m[9], 0x21e1cde6, 5);
  step<G>(d, a, b, c, m[14], 0xc33707d6, 9);
  step<G>(c, d, a, b, m[3], 0xf4d50d87, 14);
  step<G>(b, c, d, a, m[8], 0x455a14ed, 20);
  step<G>(a, b, c, d, m[13], 0xa9e3e905, 5);
  step<G>(d, a, b, c, m[2], 0xfcefa3f8, 9);
  step<G>(c, d, a, b, m[7], 0x676f02d9, 14);
  step<G>(b, c, d, a, m[12], 0x8d2a4c8a, 20);

  // Round 3: H(b,c,d) = b ^ c ^ d; word (3i + 5) mod 16.
  step<H>(a, b, c, d, m[5], 0xfffa3942, 4);
  step<H>(d, a, b, c, m[8], 0x8771f681, 11);
  step<H>(c, d, a, b, m[11], 0x6d9d6122, 16);
  step<H>(b, c, d, a, m[14], 0xfde5380c, 23);
  step<H>(a, b, c, d, m[1], 0xa4beea44, 4);
  step<H>(d, a, b, c, m[4], 0x4bdecfa9, 11);
  step<H>(c, d, a, b, m[7], 0xf6bb4b60, 16);
  step<H>(b, c, d, a, m[10], 0xbebfbc70, 23);
  step<H>(a, b, c, d, m[13], 0x289b7ec6, 4);
  step<H>(d, a, b, c, m[0], 0xeaa127fa, 11);
  step<H>(c, d, a, b, m[3], 0xd4ef3085, 16);
  step<H>(b, c, d, a, m[6], 0x04881d05, 23);
  step<H>(a, b, c, d, m[9], 0xd9d4d039, 4);
  step<H>(d, a, b, c, m[12], 0xe6db99e5, 11);
  step<H>(c, d, a, b, m[15], 0x1fa27cf8, 16);
  step<H>(b, c, d, a, m[2], 0xc4ac5665, 23);

  // Round 4: I(b,c,d) = c ^ (b | ~d); word 7i mod 16.
  step<I>(a, b, c, d, m[0], 0xf4292244, 6);
  step<I>(d, a, b, c, m[7], 0x432aff97, 10);
  step<I>(c, d, a, b, m[14], 0xab9423a7, 15);
  step<I>(b, c, d, a, m[5], 0xfc93a039, 21);
  step<I>(a, b, c, d, m[12], 0x655b59c3, 6);
  step<I>(d, a, b, c, m[3], 0x8f0ccc92, 10);
  step<I>(c, d, a, b, m[10], 0xffeff47d, 15);
  step<I>(b, c, d, a, m[1], 0x85845dd1, 21);
  step<I>(a, b, c, d, m[8], 0x6fa87e4f, 6);
  step<I>(d, a, b, c, m[15], 0xfe2ce6e0, 10);
  step<I>(c, d, a, b, m[6], 0xa3014314, 15);
  step<I>(b, c, d, a, m[13], 0x4e0811a1, 21);
  step<I>(a, b, c, d, m[4], 0xf7537e82, 6);
  step<I>(d, a, b, c, m[11], 0xbd3af235, 10);
  step<I>(c, d, a, b, m[2], 0x2ad7d2bb, 15);
  step<I>(b, c, d, a, m[9], 0xeb86d391, 21);

  h_[0] += a;
  h_[1] += b;
  h_[2] += c;
  h_[3] += d;
}

void Md5::update(ConstBytes data) {
  total_len_ += data.size();
  std::size_t off = 0;
  if (buf_len_ > 0) {
    const std::size_t take = std::min(kBlockSize - buf_len_, data.size());
    std::memcpy(buf_.data() + buf_len_, data.data(), take);
    buf_len_ += take;
    off += take;
    if (buf_len_ == kBlockSize) {
      process_block(buf_.data());
      buf_len_ = 0;
    }
  }
  while (off + kBlockSize <= data.size()) {
    process_block(data.data() + off);
    off += kBlockSize;
  }
  if (off < data.size()) {
    std::memcpy(buf_.data(), data.data() + off, data.size() - off);
    buf_len_ = data.size() - off;
  }
}

void Md5::finish_into(std::uint8_t* out) {
  const std::uint64_t bit_len = total_len_ * 8;
  buf_[buf_len_++] = 0x80;
  if (buf_len_ > 56) {
    std::memset(buf_.data() + buf_len_, 0, kBlockSize - buf_len_);
    process_block(buf_.data());
    buf_len_ = 0;
  }
  std::memset(buf_.data() + buf_len_, 0, 56 - buf_len_);
  store_le64(buf_.data() + 56, bit_len);
  process_block(buf_.data());
  buf_len_ = 0;

  for (int i = 0; i < 4; ++i) store_le32(out + 4 * i, h_[i]);
}

Bytes Md5::finish() {
  Bytes digest(kDigestSize);
  finish_into(digest.data());
  return digest;
}

Bytes Md5::hash(ConstBytes data) {
  Md5 h;
  h.update(data);
  return h.finish();
}

void Md5::hash_into(ConstBytes data, std::uint8_t* out) {
  Md5 h;
  h.update(data);
  h.finish_into(out);
}

}  // namespace mapsec::crypto
