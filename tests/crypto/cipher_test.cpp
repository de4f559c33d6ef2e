// Known-answer and property tests for the block/stream ciphers and modes.
#include <gtest/gtest.h>

#include <ostream>
#include <random>

#include "mapsec/crypto/aes.hpp"
#include "mapsec/crypto/cipher.hpp"
#include "mapsec/crypto/des.hpp"
#include "mapsec/crypto/dispatch.hpp"
#include "mapsec/crypto/rc2.hpp"
#include "mapsec/crypto/rc4.hpp"
#include "mapsec/crypto/rng.hpp"

namespace mapsec::crypto {
namespace {

// ---- DES -------------------------------------------------------------------

TEST(DesTest, ClassicVector) {
  const Des des(from_hex("133457799BBCDFF1"));
  Bytes ct(8);
  const Bytes pt = from_hex("0123456789ABCDEF");
  des.encrypt_block(pt.data(), ct.data());
  EXPECT_EQ(to_hex(ct), "85e813540f0ab405");
  Bytes back(8);
  des.decrypt_block(ct.data(), back.data());
  EXPECT_EQ(back, pt);
}

TEST(DesTest, ZeroOutputVector) {
  const Des des(from_hex("0E329232EA6D0D73"));
  Bytes ct(8);
  const Bytes pt = from_hex("8787878787878787");
  des.encrypt_block(pt.data(), ct.data());
  EXPECT_EQ(to_hex(ct), "0000000000000000");
}

TEST(DesTest, KeyParityBitsIgnored) {
  // Keys differing only in parity bits produce identical schedules.
  const Des a(from_hex("133457799BBCDFF1"));
  const Des b(from_hex("123456789ABCDEF0"));
  EXPECT_EQ(a.schedule(), b.schedule());
}

TEST(DesTest, RoundTripRandomBlocks) {
  SimTrng rng(101);
  for (int trial = 0; trial < 50; ++trial) {
    const Des des(rng.bytes(8));
    const Bytes pt = rng.bytes(8);
    Bytes ct(8), back(8);
    des.encrypt_block(pt.data(), ct.data());
    des.decrypt_block(ct.data(), back.data());
    EXPECT_EQ(back, pt);
  }
}

TEST(DesTest, ComplementationProperty) {
  // DES(~k, ~p) == ~DES(k, p) — a structural identity of the cipher that
  // exercises every table.
  SimTrng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    const Bytes key = rng.bytes(8);
    const Bytes pt = rng.bytes(8);
    Bytes nkey(8), npt(8);
    for (int i = 0; i < 8; ++i) {
      nkey[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(~key[static_cast<std::size_t>(i)]);
      npt[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(~pt[static_cast<std::size_t>(i)]);
    }
    Bytes ct(8), nct(8);
    Des(key).encrypt_block(pt.data(), ct.data());
    Des(nkey).encrypt_block(npt.data(), nct.data());
    for (int i = 0; i < 8; ++i)
      EXPECT_EQ(nct[static_cast<std::size_t>(i)],
                static_cast<std::uint8_t>(~ct[static_cast<std::size_t>(i)]));
  }
}

TEST(Des3Test, DegeneratesToDesWithEqualKeys) {
  SimTrng rng(11);
  const Bytes k = rng.bytes(8);
  const Bytes key24 = cat(k, k, k);
  const Des des(k);
  const Des3 des3(key24);
  const Bytes pt = rng.bytes(8);
  Bytes a(8), b(8);
  des.encrypt_block(pt.data(), a.data());
  des3.encrypt_block(pt.data(), b.data());
  EXPECT_EQ(a, b);
}

TEST(Des3Test, TwoKeyVariant) {
  SimTrng rng(12);
  const Bytes k16 = rng.bytes(16);
  const Bytes k24 = cat(k16, ConstBytes{k16.data(), 8});
  const Des3 two(k16);
  const Des3 three(k24);
  const Bytes pt = rng.bytes(8);
  Bytes a(8), b(8);
  two.encrypt_block(pt.data(), a.data());
  three.encrypt_block(pt.data(), b.data());
  EXPECT_EQ(a, b);
}

TEST(Des3Test, RoundTrip) {
  SimTrng rng(13);
  const Des3 des3(rng.bytes(24));
  const Bytes pt = rng.bytes(8);
  Bytes ct(8), back(8);
  des3.encrypt_block(pt.data(), ct.data());
  des3.decrypt_block(ct.data(), back.data());
  EXPECT_EQ(back, pt);
  EXPECT_NE(ct, pt);
}

TEST(Des3Test, RejectsBadKeySize) {
  EXPECT_THROW(Des3(Bytes(8)), std::invalid_argument);
  EXPECT_THROW(Des3(Bytes(23)), std::invalid_argument);
}

// ---- AES -------------------------------------------------------------------

TEST(AesTest, Fips197Aes128) {
  const Aes aes(from_hex("000102030405060708090a0b0c0d0e0f"));
  const Bytes pt = from_hex("00112233445566778899aabbccddeeff");
  Bytes ct(16);
  aes.encrypt_block(pt.data(), ct.data());
  EXPECT_EQ(to_hex(ct), "69c4e0d86a7b0430d8cdb78070b4c55a");
  Bytes back(16);
  aes.decrypt_block(ct.data(), back.data());
  EXPECT_EQ(back, pt);
}

TEST(AesTest, Fips197Aes192) {
  const Aes aes(
      from_hex("000102030405060708090a0b0c0d0e0f1011121314151617"));
  const Bytes pt = from_hex("00112233445566778899aabbccddeeff");
  Bytes ct(16);
  aes.encrypt_block(pt.data(), ct.data());
  EXPECT_EQ(to_hex(ct), "dda97ca4864cdfe06eaf70a0ec0d7191");
}

TEST(AesTest, Fips197Aes256) {
  const Aes aes(from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"));
  const Bytes pt = from_hex("00112233445566778899aabbccddeeff");
  Bytes ct(16);
  aes.encrypt_block(pt.data(), ct.data());
  EXPECT_EQ(to_hex(ct), "8ea2b7ca516745bfeafc49904b496089");
}

TEST(AesTest, SboxSpotValues) {
  EXPECT_EQ(aes_detail::sbox(0x00), 0x63);
  EXPECT_EQ(aes_detail::sbox(0x53), 0xED);
  EXPECT_EQ(aes_detail::inv_sbox(0x63), 0x00);
  for (int x = 0; x < 256; ++x)
    EXPECT_EQ(aes_detail::inv_sbox(
                  aes_detail::sbox(static_cast<std::uint8_t>(x))),
              x);
}

class AesKeySizeTest : public ::testing::TestWithParam<std::size_t> {};

// Pins the dispatch backend for one scope and restores the prior mode.
class ScopedBackend {
 public:
  explicit ScopedBackend(bool scalar) : prior_(dispatch::scalar_forced()) {
    dispatch::force_scalar(scalar);
  }
  ~ScopedBackend() { dispatch::force_scalar(prior_); }

 private:
  bool prior_;
};

// 1000 random keys under each backend: decrypt inverts encrypt, and the
// scalar and accelerated backends produce the same ciphertext.
TEST_P(AesKeySizeTest, RoundTripRandom) {
  SimTrng rng(GetParam());
  for (int trial = 0; trial < 1000; ++trial) {
    const Bytes key = rng.bytes(GetParam());
    const Bytes pt = rng.bytes(16);
    Bytes ct[2] = {Bytes(16), Bytes(16)};
    for (int scalar = 0; scalar < 2; ++scalar) {
      const ScopedBackend backend(scalar == 1);
      const Aes aes(key);
      Bytes back(16);
      aes.encrypt_block(pt.data(), ct[scalar].data());
      aes.decrypt_block(ct[scalar].data(), back.data());
      ASSERT_EQ(back, pt) << "key=" << to_hex(key) << " scalar=" << scalar;
    }
    ASSERT_EQ(ct[0], ct[1]) << "key=" << to_hex(key);
  }
}

// InvMixColumns of one word by sixteen GF(2^8) multiplies (FIPS 197
// §5.3.3): the oracle for the table-driven decryption schedule.
std::uint32_t inv_mix_word_reference(std::uint32_t w) {
  using aes_detail::gmul;
  const std::uint8_t a[4] = {
      static_cast<std::uint8_t>(w >> 24), static_cast<std::uint8_t>(w >> 16),
      static_cast<std::uint8_t>(w >> 8), static_cast<std::uint8_t>(w)};
  static constexpr std::uint8_t kRow[4] = {14, 11, 13, 9};
  std::uint32_t out = 0;
  for (int r = 0; r < 4; ++r) {
    std::uint8_t v = 0;
    for (int c = 0; c < 4; ++c) v ^= gmul(a[c], kRow[(c - r + 4) % 4]);
    out |= std::uint32_t{v} << (24 - 8 * r);
  }
  return out;
}

// 1000 random keys: the decryption schedule is the encryption schedule in
// reverse round order, with InvMixColumns applied to the inner rounds.
TEST_P(AesKeySizeTest, DecryptionScheduleMatchesGmulForm) {
  std::mt19937 gen(static_cast<unsigned>(GetParam()));
  for (int trial = 0; trial < 1000; ++trial) {
    Bytes key(GetParam());
    for (auto& b : key) b = static_cast<std::uint8_t>(gen());
    const Aes aes(key);
    const auto enc = aes.round_keys();
    const auto dec = aes.dec_round_keys();
    const int rounds = aes.rounds();
    for (int round = 0; round <= rounds; ++round) {
      for (std::size_t c = 0; c < 4; ++c) {
        const std::uint32_t w =
            enc[4 * static_cast<std::size_t>(rounds - round) + c];
        const std::uint32_t want = (round == 0 || round == rounds)
                                       ? w
                                       : inv_mix_word_reference(w);
        ASSERT_EQ(dec[4 * static_cast<std::size_t>(round) + c], want)
            << "key=" << to_hex(key) << " round=" << round;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(KeySizes, AesKeySizeTest,
                         ::testing::Values(16, 24, 32));

TEST(AesTest, RejectsBadKeySize) {
  EXPECT_THROW(Aes(Bytes(15)), std::invalid_argument);
  EXPECT_THROW(Aes(Bytes(33)), std::invalid_argument);
}

// ---- RC4 -------------------------------------------------------------------

TEST(Rc4Test, ClassicVectors) {
  {
    Rc4 rc4(to_bytes("Key"));
    EXPECT_EQ(to_hex(rc4.process(to_bytes("Plaintext"))),
              "bbf316e8d940af0ad3");
  }
  {
    Rc4 rc4(to_bytes("Wiki"));
    EXPECT_EQ(to_hex(rc4.process(to_bytes("pedia"))), "1021bf0420");
  }
  {
    Rc4 rc4(to_bytes("Secret"));
    EXPECT_EQ(to_hex(rc4.process(to_bytes("Attack at dawn"))),
              "45a01f645fc35b383552544b9bf5");
  }
}

TEST(Rc4Test, EncryptDecryptSymmetry) {
  SimTrng rng(3);
  const Bytes key = rng.bytes(16);
  const Bytes pt = rng.bytes(333);
  Rc4 enc(key), dec(key);
  EXPECT_EQ(dec.process(enc.process(pt)), pt);
}

TEST(Rc4Test, SkipMatchesManualDrop) {
  const Bytes key = to_bytes("drop-test");
  Rc4 a(key), b(key);
  a.skip(256);
  b.keystream(256);
  EXPECT_EQ(a.keystream(32), b.keystream(32));
}

TEST(Rc4Test, RejectsBadKey) {
  EXPECT_THROW(Rc4(Bytes{}), std::invalid_argument);
  EXPECT_THROW(Rc4(Bytes(257)), std::invalid_argument);
}

// ---- RC2 -------------------------------------------------------------------

struct Rc2Vector {
  const char* key;
  int effective_bits;
  const char* plaintext;
  const char* ciphertext;
};

// Print a vector by its key and effective key bits (unique per vector):
// the default byte dump would show string addresses and padding, which
// change from run to run and so would the test names.
void PrintTo(const Rc2Vector& v, std::ostream* os) {
  *os << "key_" << v.key << "_eff" << v.effective_bits;
}

class Rc2VectorTest : public ::testing::TestWithParam<Rc2Vector> {};

TEST_P(Rc2VectorTest, Rfc2268KnownAnswer) {
  const auto& v = GetParam();
  const Rc2 rc2(from_hex(v.key), v.effective_bits);
  const Bytes pt = from_hex(v.plaintext);
  Bytes ct(8);
  rc2.encrypt_block(pt.data(), ct.data());
  EXPECT_EQ(to_hex(ct), v.ciphertext);
  Bytes back(8);
  rc2.decrypt_block(ct.data(), back.data());
  EXPECT_EQ(back, pt);
}

INSTANTIATE_TEST_SUITE_P(
    Rfc2268, Rc2VectorTest,
    ::testing::Values(
        Rc2Vector{"0000000000000000", 63, "0000000000000000",
                  "ebb773f993278eff"},
        Rc2Vector{"ffffffffffffffff", 64, "ffffffffffffffff",
                  "278b27e42e2f0d49"},
        Rc2Vector{"3000000000000000", 64, "1000000000000001",
                  "30649edf9be7d2c2"},
        Rc2Vector{"88", 64, "0000000000000000", "61a8a244adacccf0"},
        Rc2Vector{"88bca90e90875a", 64, "0000000000000000",
                  "6ccf4308974c267f"},
        Rc2Vector{"88bca90e90875a7f0f79c384627bafb2", 64,
                  "0000000000000000", "1a807d272bbe5db1"},
        Rc2Vector{"88bca90e90875a7f0f79c384627bafb2", 128,
                  "0000000000000000", "2269552ab0f85ca6"}));

TEST(Rc2Test, RoundTripRandom) {
  SimTrng rng(17);
  const Rc2 rc2(rng.bytes(16));
  for (int trial = 0; trial < 20; ++trial) {
    const Bytes pt = rng.bytes(8);
    Bytes ct(8), back(8);
    rc2.encrypt_block(pt.data(), ct.data());
    rc2.decrypt_block(ct.data(), back.data());
    EXPECT_EQ(back, pt);
  }
}

// ---- CBC mode --------------------------------------------------------------

class CbcModeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CbcModeTest, RoundTripAllLengths) {
  SimTrng rng(23);
  const auto cipher = make_block_cipher(Aes(rng.bytes(16)));
  const Bytes iv = rng.bytes(16);
  const Bytes pt = rng.bytes(GetParam());
  const Bytes ct = cbc_encrypt(*cipher, iv, pt);
  EXPECT_EQ(ct.size() % 16, 0u);
  EXPECT_GT(ct.size(), pt.size());  // padding always added
  EXPECT_EQ(cbc_decrypt(*cipher, iv, ct), pt);
}

INSTANTIATE_TEST_SUITE_P(Lengths, CbcModeTest,
                         ::testing::Values(0, 1, 15, 16, 17, 31, 32, 100));

TEST(CbcModeTest, DesBlockSize) {
  SimTrng rng(29);
  const auto cipher = make_block_cipher(Des3(rng.bytes(24)));
  const Bytes iv = rng.bytes(8);
  const Bytes pt = to_bytes("CBC over a 64-bit block cipher");
  EXPECT_EQ(cbc_decrypt(*cipher, iv, cbc_encrypt(*cipher, iv, pt)), pt);
}

TEST(CbcModeTest, TamperedCiphertextFailsPaddingOrDiffers) {
  SimTrng rng(31);
  const auto cipher = make_block_cipher(Aes(rng.bytes(16)));
  const Bytes iv = rng.bytes(16);
  const Bytes pt = rng.bytes(37);
  Bytes ct = cbc_encrypt(*cipher, iv, pt);
  ct[ct.size() - 1] ^= 0x40;  // corrupt final block
  // Either the padding check throws, or the plaintext comes back wrong.
  try {
    const Bytes out = cbc_decrypt(*cipher, iv, ct);
    EXPECT_NE(out, pt);
  } catch (const std::runtime_error&) {
    SUCCEED();
  }
}

TEST(CbcModeTest, WrongIvCorruptsOnlyFirstBlock) {
  SimTrng rng(37);
  const auto cipher = make_block_cipher(Aes(rng.bytes(16)));
  const Bytes iv = rng.bytes(16);
  Bytes iv2 = iv;
  iv2[0] ^= 1;
  const Bytes pt = rng.bytes(48);
  const Bytes ct = cbc_encrypt(*cipher, iv, pt);
  const Bytes out = cbc_decrypt(*cipher, iv2, ct);
  ASSERT_EQ(out.size(), pt.size());
  // Blocks after the first decrypt correctly.
  EXPECT_TRUE(std::equal(out.begin() + 16, out.end(), pt.begin() + 16));
  EXPECT_FALSE(std::equal(out.begin(), out.begin() + 16, pt.begin()));
}

TEST(CbcModeTest, RejectsMalformedInput) {
  SimTrng rng(41);
  const auto cipher = make_block_cipher(Aes(rng.bytes(16)));
  const Bytes iv = rng.bytes(16);
  EXPECT_THROW(cbc_decrypt(*cipher, iv, Bytes(15)), std::runtime_error);
  EXPECT_THROW(cbc_decrypt(*cipher, iv, Bytes{}), std::runtime_error);
  EXPECT_THROW(cbc_encrypt(*cipher, Bytes(8), Bytes(16)),
               std::invalid_argument);
}

TEST(EcbModeTest, RoundTripAndBlockIndependence) {
  SimTrng rng(43);
  const auto cipher = make_block_cipher(Aes(rng.bytes(16)));
  Bytes pt = rng.bytes(32);
  // Make both blocks identical: ECB leaks this (equal ciphertext blocks).
  std::copy(pt.begin(), pt.begin() + 16, pt.begin() + 16);
  const Bytes ct = ecb_encrypt(*cipher, pt);
  EXPECT_TRUE(std::equal(ct.begin(), ct.begin() + 16, ct.begin() + 16));
  EXPECT_EQ(ecb_decrypt(*cipher, ct), pt);
}

}  // namespace
}  // namespace mapsec::crypto
