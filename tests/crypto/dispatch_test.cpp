// Differential tests for the runtime ISA dispatch layer: every primitive
// the dispatcher covers is swept over randomized inputs (sizes 0..~4 KiB,
// random keys/nonces/AAD, several modulus widths) and must produce
// byte-identical output under the accelerated and forced-scalar backends.
// KATs re-run under both backends pin the pair to the standards, not just
// to each other. On hardware without any ISA kernels both arms select the
// scalar backend and the comparisons degenerate to self-consistency.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "mapsec/crypto/aes.hpp"
#include "mapsec/crypto/bignum.hpp"
#include "mapsec/crypto/ccm.hpp"
#include "mapsec/crypto/cipher.hpp"
#include "mapsec/crypto/crc32.hpp"
#include "mapsec/crypto/dispatch.hpp"
#include "mapsec/crypto/hmac.hpp"
#include "mapsec/crypto/modexp.hpp"
#include "mapsec/crypto/mont_cache.hpp"
#include "mapsec/crypto/rng.hpp"
#include "mapsec/crypto/rsa.hpp"
#include "mapsec/crypto/sha1.hpp"
#include "mapsec/crypto/sha256.hpp"

namespace mapsec::crypto {
namespace {

// Pins the dispatch mode for one scope and restores the previous mode on
// exit (so the suite behaves identically under MAPSEC_FORCE_SCALAR=1 runs
// apart from which backend the "accelerated" arm resolves to).
class ScopedBackend {
 public:
  explicit ScopedBackend(bool scalar)
      : prior_(dispatch::scalar_forced()) {
    dispatch::force_scalar(scalar);
  }
  ~ScopedBackend() { dispatch::force_scalar(prior_); }

 private:
  bool prior_;
};

Bytes random_bytes(std::mt19937& rng, std::size_t n) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

// Run `fn` once under the forced-scalar backend and once under the
// auto-selected backend, returning both results.
template <typename Fn>
auto both_backends(Fn&& fn) {
  ScopedBackend scalar_scope(true);
  auto scalar = fn();
  dispatch::force_scalar(false);
  auto accel = fn();
  return std::pair(std::move(scalar), std::move(accel));
}

TEST(DispatchTest, CapabilitiesReportsEveryPrimitiveAndHonoursForce) {
  const auto caps = dispatch::capabilities();
  std::vector<std::string> names;
  for (const auto& p : caps.primitives) names.push_back(p.primitive);
  EXPECT_NE(std::find(names.begin(), names.end(), "aes"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "sha1"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "sha256"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "crc32"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "modexp-cios"),
            names.end());

  ScopedBackend scalar_scope(true);
  const auto forced = dispatch::capabilities();
  EXPECT_TRUE(forced.forced_scalar);
  for (const auto& p : forced.primitives) {
    EXPECT_EQ(p.backend, "scalar") << p.primitive;
    EXPECT_FALSE(p.accelerated) << p.primitive;
  }
  EXPECT_NE(dispatch::capabilities_summary().find("forced_scalar=on"),
            std::string::npos);
}

TEST(DispatchTest, AesBlockMatchesScalarAllKeySizes) {
  std::mt19937 rng(0xA15u);
  for (const std::size_t key_len : {16u, 24u, 32u}) {
    for (int iter = 0; iter < 200; ++iter) {
      const Bytes key = random_bytes(rng, key_len);
      const Bytes pt = random_bytes(rng, 16);
      const auto [s, a] = both_backends([&] {
        const Aes aes(key);
        Bytes ct(16), rt(16);
        aes.encrypt_block(pt.data(), ct.data());
        aes.decrypt_block(ct.data(), rt.data());
        EXPECT_EQ(rt, pt);
        return ct;
      });
      ASSERT_EQ(s, a) << "key_len=" << key_len << " iter=" << iter;
    }
  }
}

TEST(DispatchTest, AesKatBothBackends) {
  // FIPS-197 C.1: the same known answer must come out of both backends.
  const Bytes key = {0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
                     0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f};
  const Bytes pt = {0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77,
                    0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff};
  const Bytes expect = {0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30,
                        0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4, 0xc5, 0x5a};
  const auto [s, a] = both_backends([&] {
    const Aes aes(key);
    Bytes ct(16);
    aes.encrypt_block(pt.data(), ct.data());
    return ct;
  });
  EXPECT_EQ(s, expect);
  EXPECT_EQ(a, expect);
}

TEST(DispatchTest, CtrCryptMatchesScalarAcrossSizes) {
  std::mt19937 rng(0xC7Cu);
  for (int iter = 0; iter < 120; ++iter) {
    const std::size_t n = rng() % 4097;
    const Bytes key = random_bytes(rng, 16);
    const Bytes ctr = random_bytes(rng, 16);
    const Bytes data = random_bytes(rng, n);
    const auto [s, a] = both_backends([&] {
      const BlockCipherAdapter<Aes> cipher{Aes(key)};
      return ctr_crypt(cipher, ctr, data);
    });
    ASSERT_EQ(s, a) << "n=" << n;
  }
}

TEST(DispatchTest, CbcMacMatchesScalarAcrossSizes) {
  std::mt19937 rng(0xCBCu);
  for (int iter = 0; iter < 120; ++iter) {
    const std::size_t n = rng() % 4097;
    const Bytes key = random_bytes(rng, 16);
    const Bytes data = random_bytes(rng, n);
    const auto [s, a] = both_backends([&] {
      const BlockCipherAdapter<Aes> cipher{Aes(key)};
      return cbc_mac(cipher, data);
    });
    ASSERT_EQ(s, a) << "n=" << n;
  }
}

TEST(DispatchTest, CbcRoundTripMatchesScalarAcrossSizes) {
  std::mt19937 rng(0xCBDu);
  for (int iter = 0; iter < 120; ++iter) {
    const std::size_t n = rng() % 4097;
    const Bytes key = random_bytes(rng, 16);
    const Bytes iv = random_bytes(rng, 16);
    const Bytes pt = random_bytes(rng, n);
    const auto [s, a] = both_backends([&] {
      const BlockCipherAdapter<Aes> cipher{Aes(key)};
      Bytes ct = cbc_encrypt(cipher, iv, pt);
      const Bytes rt = cbc_decrypt(cipher, iv, ct);
      EXPECT_EQ(rt, pt);
      return ct;
    });
    ASSERT_EQ(s, a) << "n=" << n;
  }
}

TEST(DispatchTest, CcmSealOpenMatchesScalarAcrossSizes) {
  std::mt19937 rng(0xCC3u);
  for (int iter = 0; iter < 100; ++iter) {
    const std::size_t n = rng() % 4097;
    const std::size_t aad_len = rng() % 64;
    const Bytes key = random_bytes(rng, 16);
    const Bytes nonce = random_bytes(rng, kCcmNonceLen);
    const Bytes aad = random_bytes(rng, aad_len);
    const Bytes pt = random_bytes(rng, n);
    const std::size_t tag_len = std::vector<std::size_t>{4, 8, 16}[rng() % 3];
    const std::size_t flip = rng();
    const auto [s, a] = both_backends([&] {
      const BlockCipherAdapter<Aes> cipher{Aes(key)};
      Bytes sealed = ccm_seal(cipher, nonce, aad, pt, tag_len);
      const auto opened = ccm_open(cipher, nonce, aad, sealed, tag_len);
      EXPECT_TRUE(opened.has_value());
      EXPECT_EQ(*opened, pt);
      // One flipped bit, in the ciphertext or the tag, fails the open.
      Bytes tampered = sealed;
      tampered[flip % tampered.size()] ^= 0x01;
      EXPECT_FALSE(ccm_open(cipher, nonce, aad, tampered, tag_len));
      return sealed;
    });
    ASSERT_EQ(s, a) << "n=" << n << " aad=" << aad_len << " tag=" << tag_len;
  }
}

TEST(DispatchTest, HashesMatchScalarAcrossSizesAndSplits) {
  std::mt19937 rng(0x5AAu);
  for (int iter = 0; iter < 150; ++iter) {
    const std::size_t n = rng() % 4097;
    const Bytes data = random_bytes(rng, n);
    // Random split exercises the buffered-partial-block path too.
    const std::size_t split = n == 0 ? 0 : rng() % n;
    const auto [s1, a1] = both_backends([&] {
      Sha1 h;
      h.update(ConstBytes(data).subspan(0, split));
      h.update(ConstBytes(data).subspan(split));
      return h.finish();
    });
    ASSERT_EQ(s1, a1) << "sha1 n=" << n;
    const auto [s2, a2] = both_backends([&] {
      Sha256 h;
      h.update(ConstBytes(data).subspan(0, split));
      h.update(ConstBytes(data).subspan(split));
      return h.finish();
    });
    ASSERT_EQ(s2, a2) << "sha256 n=" << n;
  }
}

TEST(DispatchTest, ShaKatBothBackends) {
  // FIPS 180 "abc" vectors under both backends.
  const Bytes abc = {'a', 'b', 'c'};
  const Bytes sha1_expect = {0xa9, 0x99, 0x3e, 0x36, 0x47, 0x06, 0x81,
                             0x6a, 0xba, 0x3e, 0x25, 0x71, 0x78, 0x50,
                             0xc2, 0x6c, 0x9c, 0xd0, 0xd8, 0x9d};
  const Bytes sha256_expect = {
      0xba, 0x78, 0x16, 0xbf, 0x8f, 0x01, 0xcf, 0xea, 0x41, 0x41, 0x40,
      0xde, 0x5d, 0xae, 0x22, 0x23, 0xb0, 0x03, 0x61, 0xa3, 0x96, 0x17,
      0x7a, 0x9c, 0xb4, 0x10, 0xff, 0x61, 0xf2, 0x00, 0x15, 0xad};
  const auto [s1, a1] = both_backends([&] { return Sha1::hash(abc); });
  EXPECT_EQ(s1, sha1_expect);
  EXPECT_EQ(a1, sha1_expect);
  const auto [s2, a2] = both_backends([&] { return Sha256::hash(abc); });
  EXPECT_EQ(s2, sha256_expect);
  EXPECT_EQ(a2, sha256_expect);
}

TEST(DispatchTest, HmacMatchesScalar) {
  std::mt19937 rng(0x43Au);
  for (int iter = 0; iter < 60; ++iter) {
    const Bytes key = random_bytes(rng, rng() % 100);
    const Bytes msg = random_bytes(rng, rng() % 4097);
    const auto [s, a] = both_backends([&] {
      HmacSha1 mac(key);
      mac.update(msg);
      return mac.finish();
    });
    ASSERT_EQ(s, a);
  }
}

TEST(DispatchTest, Crc32MatchesScalarAcrossSizes) {
  std::mt19937 rng(0xC3Cu);
  // Dense small sizes (fold-entry boundaries at 16/32/48/64 bytes), then
  // random large ones, including streamed updates.
  for (std::size_t n = 0; n < 160; ++n) {
    const Bytes data = random_bytes(rng, n);
    const auto [s, a] = both_backends([&] { return crc32(data); });
    ASSERT_EQ(s, a) << "n=" << n;
  }
  for (int iter = 0; iter < 80; ++iter) {
    const std::size_t n = rng() % 4097;
    const Bytes data = random_bytes(rng, n);
    const std::size_t split = n == 0 ? 0 : rng() % n;
    const auto [s, a] = both_backends([&] {
      std::uint32_t c = crc32_update(0, ConstBytes(data).subspan(0, split));
      return crc32_update(c, ConstBytes(data).subspan(split));
    });
    ASSERT_EQ(s, a) << "n=" << n;
  }
}

TEST(DispatchTest, Crc32Kat) {
  // The classic check value: CRC-32("123456789") = 0xCBF43926, plus a
  // >64-byte vector so the folding path is on the hook for the KAT too.
  const char* s9 = "123456789";
  const Bytes v9(s9, s9 + 9);
  Bytes v100(100);
  for (std::size_t i = 0; i < v100.size(); ++i)
    v100[i] = static_cast<std::uint8_t>(i);
  const auto [s, a] = both_backends([&] {
    return std::pair(crc32(v9), crc32(v100));
  });
  EXPECT_EQ(s.first, 0xCBF43926u);
  EXPECT_EQ(a.first, 0xCBF43926u);
  EXPECT_EQ(s.second, a.second);
}

BigInt random_odd_modulus(std::mt19937& rng, std::size_t limbs32) {
  std::vector<std::uint32_t> w(limbs32);
  for (auto& l : w) l = rng();
  w.back() |= 0x80000000u;  // full width
  w.front() |= 1u;          // odd
  return BigInt::from_limbs(std::move(w));
}

BigInt random_below(std::mt19937& rng, const BigInt& n) {
  std::vector<std::uint32_t> w(n.limbs().size());
  for (auto& l : w) l = rng();
  return BigInt::from_limbs(std::move(w)) % n;
}

TEST(DispatchTest, ModExpMatchesScalarAcrossWidthsWithIdenticalStats) {
  std::mt19937 rng(0x40DU);
  // 8/16/32/64 32-bit limbs hit the fixed kw=4/8/16/32 CIOS kernels
  // (256- to 2048-bit: the DH and RSA-CRT widths); 5 limbs exercises the
  // radix-32 fallback engine, 12 limbs a width no fixed kernel covers.
  for (const std::size_t limbs : {8u, 16u, 32u, 64u, 5u, 12u}) {
    for (int iter = 0; iter < 6; ++iter) {
      const BigInt n = random_odd_modulus(rng, limbs);
      const BigInt base = random_below(rng, n);
      const BigInt e = random_below(rng, n);
      const auto [s, a] = both_backends([&] {
        const Montgomery mont(n);
        MontStats stats;
        MontOpSequence seq;
        BigInt r = mont.exp(base, e, &stats, &seq);
        return std::tuple(std::move(r), stats, std::move(seq));
      });
      ASSERT_EQ(std::get<0>(s), std::get<0>(a)) << "limbs=" << limbs;
      // The dispatched kernel must not change the data-dependent
      // extra-reduction behaviour the timing attack measures, nor the
      // operation sequence an SPA trace shows.
      const MontStats& ss = std::get<1>(s);
      const MontStats& as = std::get<1>(a);
      EXPECT_EQ(ss.extra_reductions, as.extra_reductions);
      EXPECT_EQ(ss.squares, as.squares);
      EXPECT_EQ(ss.mults, as.mults);
      EXPECT_EQ(std::get<2>(s), std::get<2>(a)) << "limbs=" << limbs;

      const auto [sf, af] = both_backends([&] {
        const Montgomery mont(n);
        return mont.exp_fixed_window(base, e);
      });
      ASSERT_EQ(sf, af) << "fixed-window limbs=" << limbs;
    }
  }
}

TEST(DispatchTest, RuntimeToggleAffectsExistingObjects) {
  // Dispatch is consulted per call: a cipher built while accelerated must
  // produce the same bytes after the process is pinned to scalar.
  std::mt19937 rng(0x706u);
  const Bytes key = random_bytes(rng, 16);
  const Bytes pt = random_bytes(rng, 16);
  const Aes aes(key);
  Bytes ct_auto(16), ct_scalar(16);
  aes.encrypt_block(pt.data(), ct_auto.data());
  {
    ScopedBackend scalar_scope(true);
    aes.encrypt_block(pt.data(), ct_scalar.data());
  }
  EXPECT_EQ(ct_auto, ct_scalar);
}

}  // namespace
}  // namespace mapsec::crypto
