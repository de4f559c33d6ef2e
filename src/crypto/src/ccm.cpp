#include "mapsec/crypto/ccm.hpp"

#include <cstring>
#include <stdexcept>

#include "kernels.hpp"

namespace mapsec::crypto {

Bytes ctr_crypt(const BlockCipher& cipher, ConstBytes counter_block,
                ConstBytes data) {
  const std::size_t bs = cipher.block_size();
  if (counter_block.size() != bs)
    throw std::invalid_argument("ctr_crypt: counter block size mismatch");

  // Accelerated span path: one call processes the whole payload, with the
  // keystream pipelined several blocks wide.
  if (const Aes* aes = cipher.as_aes(); aes != nullptr && bs == 16) {
    const auto& k = dispatch::aes_kernels();
    if (k.ctr_xor != nullptr) {
      Bytes out(data.begin(), data.end());
      std::uint8_t ctr[16];
      std::memcpy(ctr, counter_block.data(), 16);
      k.ctr_xor(dispatch::enc_schedule(*aes), ctr, out.data(), out.size());
      return out;
    }
  }

  Bytes counter(counter_block.begin(), counter_block.end());
  Bytes keystream(bs);
  Bytes out(data.begin(), data.end());
  for (std::size_t off = 0; off < out.size(); off += bs) {
    cipher.encrypt_block(counter.data(), keystream.data());
    const std::size_t n = std::min(bs, out.size() - off);
    for (std::size_t i = 0; i < n; ++i) out[off + i] ^= keystream[i];
    // Increment the counter, big-endian.
    for (std::size_t i = bs; i-- > 0;) {
      if (++counter[i] != 0) break;
    }
  }
  return out;
}

Bytes cbc_mac(const BlockCipher& cipher, ConstBytes data) {
  const std::size_t bs = cipher.block_size();
  if (const Aes* aes = cipher.as_aes(); aes != nullptr && bs == 16) {
    const auto& k = dispatch::aes_kernels();
    if (k.cbc_mac != nullptr) {
      const auto sched = dispatch::enc_schedule(*aes);
      Bytes state(16, 0);
      const std::size_t nfull = data.size() / 16;
      k.cbc_mac(sched, state.data(), data.data(), nfull);
      const std::size_t rem = data.size() - 16 * nfull;
      if (rem != 0) {
        for (std::size_t i = 0; i < rem; ++i)
          state[i] ^= data[16 * nfull + i];
        k.encrypt_block(sched, state.data(), state.data());
      }
      return state;
    }
  }

  Bytes state(bs, 0);
  for (std::size_t off = 0; off < data.size(); off += bs) {
    const std::size_t n = std::min(bs, data.size() - off);
    for (std::size_t i = 0; i < n; ++i) state[i] ^= data[off + i];
    cipher.encrypt_block(state.data(), state.data());
  }
  return state;
}

namespace {

constexpr std::size_t kL = 2;  // length-field bytes

void check_ccm_params(const BlockCipher& cipher, ConstBytes nonce,
                      std::size_t tag_len, std::size_t payload_len) {
  if (cipher.block_size() != 16)
    throw std::invalid_argument("CCM requires a 128-bit block cipher");
  if (nonce.size() != kCcmNonceLen)
    throw std::invalid_argument("CCM: nonce must be 13 bytes");
  if (tag_len < 4 || tag_len > 16 || tag_len % 2 != 0)
    throw std::invalid_argument("CCM: tag length must be even, 4..16");
  if (payload_len > 0xFFFF)
    throw std::invalid_argument("CCM: payload too long for L=2");
}

/// The authentication input: B0 | encoded AAD | padded payload — always a
/// whole number of blocks.
Bytes ccm_mac_input(ConstBytes nonce, ConstBytes aad, ConstBytes plaintext,
                    std::size_t tag_len) {
  if (aad.size() >= 0xFF00) throw std::invalid_argument("CCM: AAD too long");
  const auto padded = [](std::size_t n) { return (n + 15) / 16 * 16; };
  // AAD: 2-byte length prefix (for lengths < 0xFF00), zero-padded.
  const std::size_t aad_bytes = aad.empty() ? 0 : padded(2 + aad.size());
  // Sized once and filled in place (no push_back/insert sequence, which
  // GCC 12's -Warray-bounds misreads after inlining).
  Bytes blocks(16 + aad_bytes + padded(plaintext.size()), 0);

  // B0: flags | nonce | payload length.
  blocks[0] = static_cast<std::uint8_t>(
      (aad.empty() ? 0 : 0x40) |
      (((tag_len - 2) / 2) << 3) | (kL - 1));
  std::copy(nonce.begin(), nonce.end(), blocks.begin() + 1);
  blocks[14] = static_cast<std::uint8_t>(plaintext.size() >> 8);
  blocks[15] = static_cast<std::uint8_t>(plaintext.size());

  if (!aad.empty()) {
    blocks[16] = static_cast<std::uint8_t>(aad.size() >> 8);
    blocks[17] = static_cast<std::uint8_t>(aad.size());
    std::copy(aad.begin(), aad.end(), blocks.begin() + 18);
  }

  // Payload, zero-padded.
  std::copy(plaintext.begin(), plaintext.end(),
            blocks.begin() + static_cast<std::ptrdiff_t>(16 + aad_bytes));
  return blocks;
}

/// CBC-MAC over the authentication input, truncated (the caller XORs in
/// the counter-0 keystream).
Bytes ccm_tag(const BlockCipher& cipher, ConstBytes nonce, ConstBytes aad,
              ConstBytes plaintext, std::size_t tag_len) {
  Bytes tag = cbc_mac(cipher, ccm_mac_input(nonce, aad, plaintext, tag_len));
  tag.resize(tag_len);
  return tag;
}

Bytes ccm_counter_block(ConstBytes nonce, std::uint16_t counter) {
  Bytes a(16, 0);
  a[0] = kL - 1;  // flags: just L'
  std::copy(nonce.begin(), nonce.end(), a.begin() + 1);
  a[14] = static_cast<std::uint8_t>(counter >> 8);
  a[15] = static_cast<std::uint8_t>(counter);
  return a;
}

}  // namespace

Bytes ccm_seal(const BlockCipher& cipher, ConstBytes nonce, ConstBytes aad,
               ConstBytes plaintext, std::size_t tag_len) {
  check_ccm_params(cipher, nonce, tag_len, plaintext.size());

  const Bytes raw_tag = ccm_tag(cipher, nonce, aad, plaintext, tag_len);
  // Encrypt payload with counters 1..; encrypt tag with counter 0.
  const Bytes ciphertext =
      ctr_crypt(cipher, ccm_counter_block(nonce, 1), plaintext);
  Bytes s0(16);
  const Bytes a0 = ccm_counter_block(nonce, 0);
  cipher.encrypt_block(a0.data(), s0.data());

  Bytes out = ciphertext;
  for (std::size_t i = 0; i < tag_len; ++i)
    out.push_back(static_cast<std::uint8_t>(raw_tag[i] ^ s0[i]));
  return out;
}

std::optional<Bytes> ccm_open(const BlockCipher& cipher, ConstBytes nonce,
                              ConstBytes aad, ConstBytes sealed,
                              std::size_t tag_len) {
  if (sealed.size() < tag_len) return std::nullopt;
  const std::size_t clen = sealed.size() - tag_len;
  check_ccm_params(cipher, nonce, tag_len, clen);

  const Bytes plaintext = ctr_crypt(cipher, ccm_counter_block(nonce, 1),
                                    sealed.subspan(0, clen));
  Bytes s0(16);
  const Bytes a0 = ccm_counter_block(nonce, 0);
  cipher.encrypt_block(a0.data(), s0.data());
  Bytes expected = ccm_tag(cipher, nonce, aad, plaintext, tag_len);
  for (std::size_t i = 0; i < tag_len; ++i) expected[i] ^= s0[i];

  if (!ct_equal(expected, sealed.subspan(clen))) return std::nullopt;
  return plaintext;
}

}  // namespace mapsec::crypto
