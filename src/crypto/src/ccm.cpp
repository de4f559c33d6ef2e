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
/// whole number of blocks. Shared by the single-op and batched paths.
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

namespace {

/// Lockstep multi-buffer CBC-MAC across ragged lane lengths. Every
/// lane's input is a whole number of blocks (CCM MAC inputs always are);
/// each pass absorbs the minimum remaining block count over the lanes
/// still active, so short records drop out and the batch narrows.
void cbc_mac_mb_ragged(const std::vector<dispatch::AesSchedule>& scheds,
                       const std::vector<Bytes>& inputs,
                       std::vector<Bytes>& states) {
  const auto& mb = dispatch::aes_mb_kernels();
  const std::size_t n = inputs.size();
  std::vector<std::size_t> done(n, 0);
  std::vector<dispatch::AesSchedule> sc;
  std::vector<std::uint8_t*> st;
  std::vector<const std::uint8_t*> dp;
  for (;;) {
    sc.clear();
    st.clear();
    dp.clear();
    std::size_t step = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t rem = inputs[i].size() / 16 - done[i];
      if (rem == 0) continue;
      if (step == 0 || rem < step) step = rem;
      sc.push_back(scheds[i]);
      st.push_back(states[i].data());
      dp.push_back(inputs[i].data() + 16 * done[i]);
    }
    if (sc.empty()) break;
    mb.cbc_mac_mb(sc.data(), st.data(), dp.data(), sc.size(), step);
    for (std::size_t i = 0; i < n; ++i)
      if (inputs[i].size() / 16 - done[i] != 0) done[i] += step;
  }
}

}  // namespace

std::vector<Bytes> ccm_seal_batch(const std::vector<CcmSealOp>& ops) {
  std::vector<Bytes> out(ops.size());
  const auto& mb = dispatch::aes_mb_kernels();
  // Lanes that can ride the multi-buffer kernels (an AES cipher and a
  // non-null backend); everything else takes the single-op path, which
  // is the same arithmetic byte for byte.
  std::vector<std::size_t> lanes;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const CcmSealOp& op = ops[i];
    check_ccm_params(*op.cipher, op.nonce, op.tag_len, op.plaintext.size());
    if (op.cipher->as_aes() != nullptr && mb.cbc_mac_mb != nullptr &&
        mb.ctr_xor_mb != nullptr) {
      lanes.push_back(i);
    } else {
      out[i] =
          ccm_seal(*op.cipher, op.nonce, op.aad, op.plaintext, op.tag_len);
    }
  }
  if (lanes.empty()) return out;

  const std::size_t n = lanes.size();
  std::vector<dispatch::AesSchedule> scheds(n);
  std::vector<Bytes> mac_in(n);
  std::vector<Bytes> states(n);
  for (std::size_t k = 0; k < n; ++k) {
    const CcmSealOp& op = ops[lanes[k]];
    scheds[k] = dispatch::enc_schedule(*op.cipher->as_aes());
    mac_in[k] = ccm_mac_input(op.nonce, op.aad, op.plaintext, op.tag_len);
    states[k].assign(16, 0);
  }
  cbc_mac_mb_ragged(scheds, mac_in, states);

  // Payload CTR from counter 1, all lanes in one interleaved call.
  std::vector<Bytes> counters(n);
  std::vector<std::uint8_t*> ctr_ptrs(n);
  std::vector<std::uint8_t*> data_ptrs(n);
  std::vector<std::size_t> lens(n);
  for (std::size_t k = 0; k < n; ++k) {
    const CcmSealOp& op = ops[lanes[k]];
    out[lanes[k]].assign(op.plaintext.begin(), op.plaintext.end());
    counters[k] = ccm_counter_block(op.nonce, 1);
    ctr_ptrs[k] = counters[k].data();
    data_ptrs[k] = out[lanes[k]].data();
    lens[k] = op.plaintext.size();
  }
  mb.ctr_xor_mb(scheds.data(), ctr_ptrs.data(), data_ptrs.data(), lens.data(),
                n);

  for (std::size_t k = 0; k < n; ++k) {
    const CcmSealOp& op = ops[lanes[k]];
    Bytes s0(16);
    const Bytes a0 = ccm_counter_block(op.nonce, 0);
    op.cipher->encrypt_block(a0.data(), s0.data());
    for (std::size_t t = 0; t < op.tag_len; ++t)
      out[lanes[k]].push_back(
          static_cast<std::uint8_t>(states[k][t] ^ s0[t]));
  }
  return out;
}

std::vector<std::optional<Bytes>> ccm_open_batch(
    const std::vector<CcmOpenOp>& ops) {
  std::vector<std::optional<Bytes>> out(ops.size());
  const auto& mb = dispatch::aes_mb_kernels();
  std::vector<std::size_t> lanes;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const CcmOpenOp& op = ops[i];
    if (op.sealed.size() < op.tag_len) continue;  // nullopt, as single-op
    check_ccm_params(*op.cipher, op.nonce, op.tag_len,
                     op.sealed.size() - op.tag_len);
    if (op.cipher->as_aes() != nullptr && mb.cbc_mac_mb != nullptr &&
        mb.ctr_xor_mb != nullptr) {
      lanes.push_back(i);
    } else {
      out[i] = ccm_open(*op.cipher, op.nonce, op.aad, op.sealed, op.tag_len);
    }
  }
  if (lanes.empty()) return out;

  const std::size_t n = lanes.size();
  std::vector<dispatch::AesSchedule> scheds(n);
  std::vector<Bytes> plaintexts(n);
  std::vector<Bytes> counters(n);
  std::vector<std::uint8_t*> ctr_ptrs(n);
  std::vector<std::uint8_t*> data_ptrs(n);
  std::vector<std::size_t> lens(n);
  for (std::size_t k = 0; k < n; ++k) {
    const CcmOpenOp& op = ops[lanes[k]];
    const std::size_t clen = op.sealed.size() - op.tag_len;
    scheds[k] = dispatch::enc_schedule(*op.cipher->as_aes());
    plaintexts[k].assign(op.sealed.begin(),
                         op.sealed.begin() + static_cast<std::ptrdiff_t>(clen));
    counters[k] = ccm_counter_block(op.nonce, 1);
    ctr_ptrs[k] = counters[k].data();
    data_ptrs[k] = plaintexts[k].data();
    lens[k] = clen;
  }
  mb.ctr_xor_mb(scheds.data(), ctr_ptrs.data(), data_ptrs.data(), lens.data(),
                n);

  std::vector<Bytes> mac_in(n);
  std::vector<Bytes> states(n);
  for (std::size_t k = 0; k < n; ++k) {
    const CcmOpenOp& op = ops[lanes[k]];
    mac_in[k] = ccm_mac_input(op.nonce, op.aad, plaintexts[k], op.tag_len);
    states[k].assign(16, 0);
  }
  cbc_mac_mb_ragged(scheds, mac_in, states);

  for (std::size_t k = 0; k < n; ++k) {
    const CcmOpenOp& op = ops[lanes[k]];
    const std::size_t clen = op.sealed.size() - op.tag_len;
    Bytes s0(16);
    const Bytes a0 = ccm_counter_block(op.nonce, 0);
    op.cipher->encrypt_block(a0.data(), s0.data());
    Bytes expected(states[k].begin(),
                   states[k].begin() + static_cast<std::ptrdiff_t>(op.tag_len));
    for (std::size_t t = 0; t < op.tag_len; ++t) expected[t] ^= s0[t];
    if (ct_equal(expected, op.sealed.subspan(clen)))
      out[lanes[k]] = std::move(plaintexts[k]);
  }
  return out;
}

}  // namespace mapsec::crypto
