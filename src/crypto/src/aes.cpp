#include "mapsec/crypto/aes.hpp"

#include <cstring>
#include <stdexcept>

#include "kernels.hpp"

namespace mapsec::crypto {

namespace aes_detail {

std::uint8_t xtime(std::uint8_t x) {
  return static_cast<std::uint8_t>((x << 1) ^ ((x & 0x80) ? 0x1B : 0x00));
}

std::uint8_t gmul(std::uint8_t a, std::uint8_t b) {
  std::uint8_t acc = 0;
  while (b) {
    if (b & 1) acc ^= a;
    a = xtime(a);
    b >>= 1;
  }
  return acc;
}

namespace {

// The S-box (and the round T-tables derived from it) are computed at
// startup from their definitions — multiplicative inverse in GF(2^8)
// followed by the affine transform, then the MixColumns coefficients —
// rather than typed in as 256-entry literals, eliminating transcription
// errors.
//
// Te0[x] packs the four MixColumns products of S[x] for a row-0 byte:
//   Te0[x] = (2·S[x], S[x], S[x], 3·S[x]) big-endian; Te1..Te3 are byte
// rotations of Te0 for rows 1..3. Td0..Td3 are the same construction over
// the inverse S-box with the InvMixColumns coefficients (14, 9, 13, 11).
struct AesTables {
  std::array<std::uint8_t, 256> fwd{};
  std::array<std::uint8_t, 256> inv{};
  std::array<std::uint32_t, 256> te[4];
  std::array<std::uint32_t, 256> td[4];

  AesTables() {
    const auto rotl8 = [](std::uint8_t v, int n) {
      return static_cast<std::uint8_t>((v << n) | (v >> (8 - n)));
    };
    for (int x = 0; x < 256; ++x) {
      std::uint8_t invx = 0;
      if (x != 0) {
        for (int c = 1; c < 256; ++c) {
          if (gmul(static_cast<std::uint8_t>(x),
                   static_cast<std::uint8_t>(c)) == 1) {
            invx = static_cast<std::uint8_t>(c);
            break;
          }
        }
      }
      const std::uint8_t b = invx;
      const std::uint8_t s = static_cast<std::uint8_t>(
          b ^ rotl8(b, 1) ^ rotl8(b, 2) ^ rotl8(b, 3) ^ rotl8(b, 4) ^ 0x63);
      fwd[static_cast<std::size_t>(x)] = s;
      inv[s] = static_cast<std::uint8_t>(x);
    }
    for (int x = 0; x < 256; ++x) {
      const std::uint8_t s = fwd[static_cast<std::size_t>(x)];
      const std::uint32_t e0 = (std::uint32_t{gmul(s, 2)} << 24) |
                               (std::uint32_t{s} << 16) |
                               (std::uint32_t{s} << 8) |
                               std::uint32_t{gmul(s, 3)};
      const std::uint8_t is = inv[static_cast<std::size_t>(x)];
      const std::uint32_t d0 = (std::uint32_t{gmul(is, 14)} << 24) |
                               (std::uint32_t{gmul(is, 9)} << 16) |
                               (std::uint32_t{gmul(is, 13)} << 8) |
                               std::uint32_t{gmul(is, 11)};
      for (int r = 0; r < 4; ++r) {
        te[r][static_cast<std::size_t>(x)] = rotr32(e0, 8 * static_cast<unsigned>(r));
        td[r][static_cast<std::size_t>(x)] = rotr32(d0, 8 * static_cast<unsigned>(r));
      }
    }
  }
};

const AesTables& tables() {
  static const AesTables t;
  return t;
}

}  // namespace

std::uint8_t sbox(std::uint8_t x) { return tables().fwd[x]; }
std::uint8_t inv_sbox(std::uint8_t x) { return tables().inv[x]; }

}  // namespace aes_detail

namespace {

using aes_detail::inv_sbox;
using aes_detail::sbox;
using aes_detail::xtime;

std::uint32_t sub_word(std::uint32_t w) {
  return (std::uint32_t{sbox(static_cast<std::uint8_t>(w >> 24))} << 24) |
         (std::uint32_t{sbox(static_cast<std::uint8_t>(w >> 16))} << 16) |
         (std::uint32_t{sbox(static_cast<std::uint8_t>(w >> 8))} << 8) |
         std::uint32_t{sbox(static_cast<std::uint8_t>(w))};
}

std::uint32_t rot_word(std::uint32_t w) { return (w << 8) | (w >> 24); }

// InvMixColumns on a round-key word, for the equivalent inverse cipher's
// transformed decryption schedule (FIPS 197 §5.3.5). Td_r[S[a]] holds the
// InvMixColumns column of byte a in row r (the InvSubBytes folded into Td
// cancels the S-box), so four lookups replace sixteen GF(2^8) multiplies.
std::uint32_t inv_mix_word(std::uint32_t w) {
  const auto& t = aes_detail::tables();
  return t.td[0][t.fwd[w >> 24]] ^ t.td[1][t.fwd[(w >> 16) & 0xFF]] ^
         t.td[2][t.fwd[(w >> 8) & 0xFF]] ^ t.td[3][t.fwd[w & 0xFF]];
}

}  // namespace

Aes::Aes(ConstBytes key) {
  const std::size_t nk = key.size() / 4;
  if (key.size() != 16 && key.size() != 24 && key.size() != 32)
    throw std::invalid_argument("AES key must be 16, 24 or 32 bytes");
  rounds_ = static_cast<int>(nk) + 6;
  const std::size_t total_words = 4 * (static_cast<std::size_t>(rounds_) + 1);
  for (std::size_t i = 0; i < nk; ++i) rk_[i] = load_be32(key.data() + 4 * i);
  std::uint8_t rcon = 1;
  for (std::size_t i = nk; i < total_words; ++i) {
    std::uint32_t temp = rk_[i - 1];
    if (i % nk == 0) {
      temp = sub_word(rot_word(temp)) ^ (std::uint32_t{rcon} << 24);
      rcon = xtime(rcon);
    } else if (nk > 6 && i % nk == 4) {
      temp = sub_word(temp);
    }
    rk_[i] = rk_[i - nk] ^ temp;
  }

  // Decryption schedule: encryption keys in reverse round order, inner
  // rounds passed through InvMixColumns so decryption can use the Td
  // tables directly. (This is also exactly the schedule the AES-NI
  // aesdec/aesdeclast instructions expect.)
  for (int round = 0; round <= rounds_; ++round) {
    const std::size_t src = 4 * static_cast<std::size_t>(rounds_ - round);
    const std::size_t dst = 4 * static_cast<std::size_t>(round);
    for (std::size_t c = 0; c < 4; ++c) {
      const std::uint32_t w = rk_[src + c];
      rkd_[dst + c] =
          (round == 0 || round == rounds_) ? w : inv_mix_word(w);
    }
  }

  // Serialized byte forms for the hardware kernels (one 16-byte load per
  // round key instead of four word re-packs per block).
  for (std::size_t i = 0; i < total_words; ++i) {
    store_be32(rkb_.data() + 4 * i, rk_[i]);
    store_be32(rkdb_.data() + 4 * i, rkd_[i]);
  }
}

void Aes::encrypt_block(const std::uint8_t* in, std::uint8_t* out) const {
  dispatch::aes_kernels().encrypt_block(dispatch::enc_schedule(*this), in,
                                        out);
}

void Aes::decrypt_block(const std::uint8_t* in, std::uint8_t* out) const {
  dispatch::aes_kernels().decrypt_block(dispatch::dec_schedule(*this), in,
                                        out);
}

namespace dispatch {

// The pre-dispatch T-table implementations, now the scalar kernels.

void aes_encrypt_scalar(const AesSchedule& s, const std::uint8_t* in,
                        std::uint8_t* out) {
  const auto& t = aes_detail::tables();
  const std::uint32_t* rk = s.words;

  std::uint32_t s0 = load_be32(in) ^ rk[0];
  std::uint32_t s1 = load_be32(in + 4) ^ rk[1];
  std::uint32_t s2 = load_be32(in + 8) ^ rk[2];
  std::uint32_t s3 = load_be32(in + 12) ^ rk[3];
  rk += 4;

  for (int round = 1; round < s.rounds; ++round, rk += 4) {
    const std::uint32_t u0 = t.te[0][s0 >> 24] ^ t.te[1][(s1 >> 16) & 0xFF] ^
                             t.te[2][(s2 >> 8) & 0xFF] ^ t.te[3][s3 & 0xFF] ^
                             rk[0];
    const std::uint32_t u1 = t.te[0][s1 >> 24] ^ t.te[1][(s2 >> 16) & 0xFF] ^
                             t.te[2][(s3 >> 8) & 0xFF] ^ t.te[3][s0 & 0xFF] ^
                             rk[1];
    const std::uint32_t u2 = t.te[0][s2 >> 24] ^ t.te[1][(s3 >> 16) & 0xFF] ^
                             t.te[2][(s0 >> 8) & 0xFF] ^ t.te[3][s1 & 0xFF] ^
                             rk[2];
    const std::uint32_t u3 = t.te[0][s3 >> 24] ^ t.te[1][(s0 >> 16) & 0xFF] ^
                             t.te[2][(s1 >> 8) & 0xFF] ^ t.te[3][s2 & 0xFF] ^
                             rk[3];
    s0 = u0;
    s1 = u1;
    s2 = u2;
    s3 = u3;
  }

  // Final round: SubBytes + ShiftRows + AddRoundKey, no MixColumns.
  const auto last = [&](std::uint32_t a, std::uint32_t b, std::uint32_t c,
                        std::uint32_t d, std::uint32_t k) {
    return ((std::uint32_t{t.fwd[a >> 24]} << 24) |
            (std::uint32_t{t.fwd[(b >> 16) & 0xFF]} << 16) |
            (std::uint32_t{t.fwd[(c >> 8) & 0xFF]} << 8) |
            std::uint32_t{t.fwd[d & 0xFF]}) ^
           k;
  };
  store_be32(out, last(s0, s1, s2, s3, rk[0]));
  store_be32(out + 4, last(s1, s2, s3, s0, rk[1]));
  store_be32(out + 8, last(s2, s3, s0, s1, rk[2]));
  store_be32(out + 12, last(s3, s0, s1, s2, rk[3]));
}

void aes_decrypt_scalar(const AesSchedule& s, const std::uint8_t* in,
                        std::uint8_t* out) {
  const auto& t = aes_detail::tables();
  const std::uint32_t* rk = s.words;

  std::uint32_t s0 = load_be32(in) ^ rk[0];
  std::uint32_t s1 = load_be32(in + 4) ^ rk[1];
  std::uint32_t s2 = load_be32(in + 8) ^ rk[2];
  std::uint32_t s3 = load_be32(in + 12) ^ rk[3];
  rk += 4;

  for (int round = 1; round < s.rounds; ++round, rk += 4) {
    const std::uint32_t u0 = t.td[0][s0 >> 24] ^ t.td[1][(s3 >> 16) & 0xFF] ^
                             t.td[2][(s2 >> 8) & 0xFF] ^ t.td[3][s1 & 0xFF] ^
                             rk[0];
    const std::uint32_t u1 = t.td[0][s1 >> 24] ^ t.td[1][(s0 >> 16) & 0xFF] ^
                             t.td[2][(s3 >> 8) & 0xFF] ^ t.td[3][s2 & 0xFF] ^
                             rk[1];
    const std::uint32_t u2 = t.td[0][s2 >> 24] ^ t.td[1][(s1 >> 16) & 0xFF] ^
                             t.td[2][(s0 >> 8) & 0xFF] ^ t.td[3][s3 & 0xFF] ^
                             rk[2];
    const std::uint32_t u3 = t.td[0][s3 >> 24] ^ t.td[1][(s2 >> 16) & 0xFF] ^
                             t.td[2][(s1 >> 8) & 0xFF] ^ t.td[3][s0 & 0xFF] ^
                             rk[3];
    s0 = u0;
    s1 = u1;
    s2 = u2;
    s3 = u3;
  }

  const auto last = [&](std::uint32_t a, std::uint32_t b, std::uint32_t c,
                        std::uint32_t d, std::uint32_t k) {
    return ((std::uint32_t{t.inv[a >> 24]} << 24) |
            (std::uint32_t{t.inv[(b >> 16) & 0xFF]} << 16) |
            (std::uint32_t{t.inv[(c >> 8) & 0xFF]} << 8) |
            std::uint32_t{t.inv[d & 0xFF]}) ^
           k;
  };
  store_be32(out, last(s0, s3, s2, s1, rk[0]));
  store_be32(out + 4, last(s1, s0, s3, s2, rk[1]));
  store_be32(out + 8, last(s2, s1, s0, s3, rk[2]));
  store_be32(out + 12, last(s3, s2, s1, s0, rk[3]));
}

// The scalar table leaves the span kernels null: ctr_crypt / cbc_mac /
// cbc_decrypt_in_place keep their original generic loops on this backend,
// so forcing scalar exercises literally the pre-dispatch code paths.
const AesKernels kAesScalar = {"scalar", aes_encrypt_scalar,
                               aes_decrypt_scalar, nullptr, nullptr,
                               nullptr};

}  // namespace dispatch

}  // namespace mapsec::crypto
