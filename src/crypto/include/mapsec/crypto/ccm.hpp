// CTR mode, CBC-MAC, and CCM authenticated encryption (RFC 3610).
//
// The paper notes that WEP's weaknesses "are being addressed in newer
// wireless standards such as ... 802.11 enhancements"; the enhancement
// that shipped is 802.11i's AES-CCM (CCMP). Providing it alongside the
// deliberately-faithful WEP lets the framework demonstrate the
// before/after of link-layer security.
#pragma once

#include <optional>

#include "mapsec/crypto/cipher.hpp"

namespace mapsec::crypto {

/// Counter-mode keystream XOR (encryption == decryption). `counter_block`
/// is the initial block; it is incremented big-endian per block.
Bytes ctr_crypt(const BlockCipher& cipher, ConstBytes counter_block,
                ConstBytes data);

/// Raw CBC-MAC over `data` (zero IV, zero-padded to a whole block).
/// Secure only for fixed-length messages — CCM's B0 length prefix is what
/// makes it safe there.
Bytes cbc_mac(const BlockCipher& cipher, ConstBytes data);

/// CCM parameters: tag length M in {4,6,8,10,12,14,16}; length-field
/// width L = 2 (payloads up to 64 KiB, the 802.11 profile), so nonces are
/// 13 bytes.
constexpr std::size_t kCcmNonceLen = 13;

/// Seal: returns ciphertext || tag(M bytes). Requires a 16-byte-block
/// cipher (AES). Throws on bad nonce/tag sizes.
Bytes ccm_seal(const BlockCipher& cipher, ConstBytes nonce, ConstBytes aad,
               ConstBytes plaintext, std::size_t tag_len = 8);

/// Open: verifies the tag, returns the plaintext or nullopt.
std::optional<Bytes> ccm_open(const BlockCipher& cipher, ConstBytes nonce,
                              ConstBytes aad, ConstBytes sealed,
                              std::size_t tag_len = 8);

}  // namespace mapsec::crypto
