// Known-answer and property tests for the hash / MAC / checksum primitives.
#include <gtest/gtest.h>

#include <random>
#include <string>

#include "mapsec/crypto/bytes.hpp"
#include "mapsec/crypto/crc32.hpp"
#include "mapsec/crypto/hmac.hpp"
#include "mapsec/crypto/md5.hpp"
#include "mapsec/crypto/rng.hpp"
#include "mapsec/crypto/sha1.hpp"
#include "mapsec/crypto/sha256.hpp"

namespace mapsec::crypto {
namespace {

// A rotate by zero is the identity. Evaluated at compile time, so an
// undefined shift by 32 inside the rotate fails the build.
static_assert(rotr32(0x80000001u, 0) == 0x80000001u);
static_assert(rotl32(0x80000001u, 0) == 0x80000001u);
static_assert(rotr32(0x80000001u, 1) == 0xC0000000u);
static_assert(rotl32(0x80000001u, 1) == 0x00000003u);

TEST(Sha1Test, Fips180Vectors) {
  EXPECT_EQ(to_hex(Sha1::hash(to_bytes(""))),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(to_hex(Sha1::hash(to_bytes("abc"))),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(to_hex(Sha1::hash(to_bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1Test, MillionAs) {
  Sha1 h;
  const Bytes chunk(1000, static_cast<std::uint8_t>('a'));
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(h.finish()), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Md5Test, Rfc1321Vectors) {
  EXPECT_EQ(to_hex(Md5::hash(to_bytes(""))),
            "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(to_hex(Md5::hash(to_bytes("a"))),
            "0cc175b9c0f1b6a831c399e269772661");
  EXPECT_EQ(to_hex(Md5::hash(to_bytes("abc"))),
            "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(to_hex(Md5::hash(to_bytes("message digest"))),
            "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(to_hex(Md5::hash(to_bytes("abcdefghijklmnopqrstuvwxyz"))),
            "c3fcd3d76192e4007dfb496cca67e13b");
  EXPECT_EQ(to_hex(Md5::hash(to_bytes(
                "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz012345678"
                "9"))),
            "d174ab98d277d9f5a5611c2c9f419d9f");
}

TEST(Sha256Test, Fips180Vectors) {
  EXPECT_EQ(to_hex(Sha256::hash(to_bytes(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(to_hex(Sha256::hash(to_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(to_hex(Sha256::hash(to_bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, EmptySpanAfterPartialBlockIsANoOp) {
  // A default-constructed span has a null data(); updating with it while
  // a partial block is buffered must leave the digest untouched.
  Sha256 h;
  h.update(to_bytes("abc"));
  h.update(ConstBytes{});
  EXPECT_EQ(h.finish(), Sha256::hash(to_bytes("abc")));
}

// Streaming in arbitrary chunk sizes must equal the one-shot digest.
class HashStreamingTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HashStreamingTest, ChunkedEqualsOneShot) {
  const std::size_t chunk = GetParam();
  SimTrng rng(42);
  const Bytes msg = rng.bytes(1789);

  Sha1 s1;
  Md5 m5;
  Sha256 s256;
  for (std::size_t off = 0; off < msg.size(); off += chunk) {
    const std::size_t n = std::min(chunk, msg.size() - off);
    const ConstBytes piece{msg.data() + off, n};
    s1.update(piece);
    m5.update(piece);
    s256.update(piece);
  }
  EXPECT_EQ(s1.finish(), Sha1::hash(msg));
  EXPECT_EQ(m5.finish(), Md5::hash(msg));
  EXPECT_EQ(s256.finish(), Sha256::hash(msg));
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, HashStreamingTest,
                         ::testing::Values(1, 3, 7, 63, 64, 65, 128, 1000));

// Length-boundary sweep: messages straddling the 55/56/64-byte padding
// edges are where padding bugs live.
class HashPaddingBoundaryTest : public ::testing::TestWithParam<std::size_t> {
};

TEST_P(HashPaddingBoundaryTest, DigestsStableAcrossSplitPoints) {
  const std::size_t len = GetParam();
  const Bytes msg(len, 0xA5);
  const Bytes ref1 = Sha1::hash(msg);
  const Bytes ref2 = Md5::hash(msg);
  const Bytes ref3 = Sha256::hash(msg);
  // Split at every position: same digest.
  for (std::size_t split : {std::size_t{0}, len / 2, len}) {
    Sha1 a;
    Md5 b;
    Sha256 c;
    a.update({msg.data(), split});
    a.update({msg.data() + split, len - split});
    b.update({msg.data(), split});
    b.update({msg.data() + split, len - split});
    c.update({msg.data(), split});
    c.update({msg.data() + split, len - split});
    EXPECT_EQ(a.finish(), ref1) << "len=" << len << " split=" << split;
    EXPECT_EQ(b.finish(), ref2);
    EXPECT_EQ(c.finish(), ref3);
  }
}

INSTANTIATE_TEST_SUITE_P(PaddingEdges, HashPaddingBoundaryTest,
                         ::testing::Values(54, 55, 56, 57, 63, 64, 65, 119,
                                           120, 127, 128, 129));

// ---- MD5 against its textbook loop form -----------------------------------

// The RFC 1321 compression written as one loop that picks the round
// function, message index and shift at run time: the oracle for Md5's
// unrolled rounds.
Bytes md5_reference(ConstBytes msg) {
  static constexpr std::uint32_t kK[64] = {
      0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a,
      0xa8304613, 0xfd469501, 0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be,
      0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821, 0xf61e2562, 0xc040b340,
      0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
      0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8,
      0x676f02d9, 0x8d2a4c8a, 0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c,
      0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70, 0x289b7ec6, 0xeaa127fa,
      0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
      0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92,
      0xffeff47d, 0x85845dd1, 0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1,
      0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391};
  static constexpr unsigned kS[4][4] = {
      {7, 12, 17, 22}, {5, 9, 14, 20}, {4, 11, 16, 23}, {6, 10, 15, 21}};

  Bytes padded(msg.begin(), msg.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0x00);
  std::uint8_t len_le[8];
  store_le64(len_le, std::uint64_t{msg.size()} * 8);
  padded.insert(padded.end(), len_le, len_le + 8);

  std::uint32_t h[4] = {0x67452301u, 0xefcdab89u, 0x98badcfeu, 0x10325476u};
  for (std::size_t off = 0; off < padded.size(); off += 64) {
    std::uint32_t m[16];
    for (int i = 0; i < 16; ++i) m[i] = load_le32(padded.data() + off + 4 * i);
    std::uint32_t a = h[0], b = h[1], c = h[2], d = h[3];
    for (int i = 0; i < 64; ++i) {
      std::uint32_t f;
      int g;
      if (i < 16) {
        f = (b & c) | (~b & d);
        g = i;
      } else if (i < 32) {
        f = (d & b) | (~d & c);
        g = (5 * i + 1) % 16;
      } else if (i < 48) {
        f = b ^ c ^ d;
        g = (3 * i + 5) % 16;
      } else {
        f = c ^ (b | ~d);
        g = (7 * i) % 16;
      }
      f = f + a + kK[i] + m[g];
      a = d;
      d = c;
      c = b;
      b = b + rotl32(f, kS[i / 16][i % 4]);
    }
    h[0] += a;
    h[1] += b;
    h[2] += c;
    h[3] += d;
  }
  Bytes digest(16);
  for (int i = 0; i < 4; ++i) store_le32(digest.data() + 4 * i, h[i]);
  return digest;
}

TEST(Md5OracleTest, EveryLengthUpTo300MatchesLoopForm) {
  std::mt19937 gen(0x3D5);
  for (std::size_t len = 0; len <= 300; ++len) {
    Bytes msg(len);
    for (auto& b : msg) b = static_cast<std::uint8_t>(gen());
    EXPECT_EQ(Md5::hash(msg), md5_reference(msg)) << "len=" << len;
  }
}

TEST(Md5OracleTest, RandomSplitsMatchLoopForm) {
  std::mt19937 gen(0x3D6);
  for (int trial = 0; trial < 200; ++trial) {
    Bytes msg(gen() % 1000);
    for (auto& b : msg) b = static_cast<std::uint8_t>(gen());
    Md5 h;
    std::size_t off = 0;
    while (off < msg.size()) {
      const std::size_t take =
          std::min<std::size_t>(gen() % 150, msg.size() - off);
      h.update({msg.data() + off, take});
      off += take;
    }
    EXPECT_EQ(h.finish(), md5_reference(msg)) << "len=" << msg.size();
  }
}

TEST(HmacTest, Rfc2202Sha1Vectors) {
  const Bytes key1(20, 0x0b);
  EXPECT_EQ(to_hex(HmacSha1::mac(key1, to_bytes("Hi There"))),
            "b617318655057264e28bc0b6fb378c8ef146be00");

  EXPECT_EQ(to_hex(HmacSha1::mac(to_bytes("Jefe"),
                                 to_bytes("what do ya want for nothing?"))),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");

  const Bytes key3(20, 0xaa);
  const Bytes data3(50, 0xdd);
  EXPECT_EQ(to_hex(HmacSha1::mac(key3, data3)),
            "125d7342b9ac11cd91a39af48aa17b4f63f175d3");
}

TEST(HmacTest, Rfc2202Md5Vectors) {
  const Bytes key1(16, 0x0b);
  EXPECT_EQ(to_hex(HmacMd5::mac(key1, to_bytes("Hi There"))),
            "9294727a3638bb1c13f48ef8158bfc9d");
  EXPECT_EQ(to_hex(HmacMd5::mac(to_bytes("Jefe"),
                                to_bytes("what do ya want for nothing?"))),
            "750c783e6ab0b503eaa86e310a5db738");
}

TEST(HmacTest, Rfc4231Sha256Vector) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(
      to_hex(HmacSha256::mac(key, to_bytes("Hi There"))),
      "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, LongKeyIsHashedFirst) {
  // RFC 2202 test case 6: 80-byte key (> block size).
  const Bytes key(80, 0xaa);
  EXPECT_EQ(to_hex(HmacSha1::mac(
                key, to_bytes("Test Using Larger Than Block-Size Key - Hash "
                              "Key First"))),
            "aa4ae5e15272d00e95705637ce8a3b55ed402112");
}

TEST(HmacTest, VerifyAcceptsCorrectRejectsWrong) {
  const Bytes key = to_bytes("secret");
  const Bytes msg = to_bytes("message");
  Bytes tag = HmacSha1::mac(key, msg);
  EXPECT_TRUE(HmacSha1::verify(key, msg, tag));
  tag[0] ^= 1;
  EXPECT_FALSE(HmacSha1::verify(key, msg, tag));
  EXPECT_FALSE(HmacSha1::verify(key, to_bytes("messagf"),
                                HmacSha1::mac(key, msg)));
}

TEST(Crc32Test, CheckValue) {
  EXPECT_EQ(crc32(to_bytes("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(to_bytes("")), 0u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const Bytes msg = to_bytes("the quick brown fox jumps over the lazy dog");
  std::uint32_t running = 0;
  running = crc32_update(running, ConstBytes{msg.data(), 10});
  running = crc32_update(running, ConstBytes{msg.data() + 10, msg.size() - 10});
  EXPECT_EQ(running, crc32(msg));
}

TEST(Crc32Test, LinearityUnderXor) {
  // The WEP-breaking property: crc(a xor b) == crc(a) xor crc(b) xor crc(0).
  SimTrng rng(7);
  for (int trial = 0; trial < 16; ++trial) {
    const Bytes a = rng.bytes(64);
    const Bytes b = rng.bytes(64);
    Bytes axb(64);
    for (int i = 0; i < 64; ++i)
      axb[static_cast<std::size_t>(i)] =
          a[static_cast<std::size_t>(i)] ^ b[static_cast<std::size_t>(i)];
    const Bytes zero(64, 0);
    EXPECT_EQ(crc32(axb), crc32(a) ^ crc32(b) ^ crc32(zero));
  }
}

TEST(CtEqualTest, Behaviour) {
  EXPECT_TRUE(ct_equal(to_bytes("abc"), to_bytes("abc")));
  EXPECT_FALSE(ct_equal(to_bytes("abc"), to_bytes("abd")));
  EXPECT_FALSE(ct_equal(to_bytes("abc"), to_bytes("ab")));
  EXPECT_TRUE(ct_equal({}, {}));
}

TEST(HexTest, RoundTrip) {
  const Bytes data = from_hex("00ff10AB");
  EXPECT_EQ(data, (Bytes{0x00, 0xff, 0x10, 0xab}));
  EXPECT_EQ(to_hex(data), "00ff10ab");
  EXPECT_THROW(from_hex("abc"), std::invalid_argument);
  EXPECT_THROW(from_hex("zz"), std::invalid_argument);
}

}  // namespace
}  // namespace mapsec::crypto
