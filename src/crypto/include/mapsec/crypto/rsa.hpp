// RSA: key generation, raw operations, PKCS#1 v1.5 encryption and
// signatures.
//
// RSA is the paper's reference public-key workload: "RSA based connection
// set-ups performed in the client/server handshake phase of the SSL
// protocol" dominate the latency axis of the Figure 3 gap analysis, and
// the RSA-CRT implementation is the canonical fault-attack target of
// Section 3.4. Both private-operation strategies are provided:
//
//   * plain  — single exponentiation mod n,
//   * CRT    — two half-size exponentiations recombined (the ~4x speedup
//              every constrained device uses, and the Boneh-DeMillo-Lipton
//              attack surface demonstrated in attack::fault).
//
// Blinding (`RsaBlinding`) is the timing countermeasure of Kocher [47].
#pragma once

#include <optional>

#include "mapsec/crypto/bignum.hpp"
#include "mapsec/crypto/modexp.hpp"
#include "mapsec/crypto/rng.hpp"

namespace mapsec::crypto {

class MontCache;  // mont_cache.hpp — per-key Montgomery context cache

struct RsaPublicKey {
  BigInt n;
  BigInt e;

  std::size_t modulus_bytes() const { return (n.bit_length() + 7) / 8; }
};

struct RsaPrivateKey {
  BigInt n;
  BigInt e;
  BigInt d;
  // CRT components.
  BigInt p, q, dp, dq, qinv;

  RsaPublicKey public_key() const { return {n, e}; }
  std::size_t modulus_bytes() const { return (n.bit_length() + 7) / 8; }
};

struct RsaKeyPair {
  RsaPublicKey pub;
  RsaPrivateKey priv;
};

/// Generate an RSA key of `bits` modulus bits (public exponent 65537).
RsaKeyPair rsa_generate(Rng& rng, std::size_t bits);

/// Raw public operation m^e mod n. Every operation below accepts an
/// optional `MontCache`: when provided, the per-modulus Montgomery
/// context (R^2, n', limb buffers) is fetched from the cache instead of
/// rebuilt, which removes the dominant fixed cost of repeated same-key
/// operations. Outputs and MontStats are bit-identical either way.
BigInt rsa_public_op(const RsaPublicKey& key, const BigInt& m,
                     MontCache* cache = nullptr);

/// Raw private operation c^d mod n, single full-length exponentiation.
/// `stats`, when provided, accumulates the Montgomery operation counts
/// (the simulated-time hook used by platform models and timing attacks).
BigInt rsa_private_op(const RsaPrivateKey& key, const BigInt& c,
                      MontStats* stats = nullptr, MontCache* cache = nullptr);

/// Raw private operation using the Chinese Remainder Theorem (two
/// half-length exponentiations + recombination).
BigInt rsa_private_op_crt(const RsaPrivateKey& key, const BigInt& c,
                          MontStats* stats = nullptr,
                          MontCache* cache = nullptr);

/// CRT private operation with verification countermeasure: recomputes the
/// public operation and falls back to the slow path if the result is
/// inconsistent (defeats the single-fault attack of Section 3.4).
BigInt rsa_private_op_crt_checked(const RsaPrivateKey& key, const BigInt& c);

/// Message blinding for the private operation: computes
/// (c * r^e)^d * r^{-1} mod n with fresh random r, so the exponentiation
/// input is unpredictable to a timing adversary.
BigInt rsa_private_op_blinded(const RsaPrivateKey& key, const BigInt& c,
                              Rng& rng, MontStats* stats = nullptr);

// ---- PKCS#1 v1.5 -----------------------------------------------------------

/// Encrypt `message` (<= modulus_bytes - 11) under PKCS#1 v1.5 type-2
/// padding with random nonzero filler.
Bytes rsa_encrypt_pkcs1(const RsaPublicKey& key, ConstBytes message, Rng& rng);

/// Decrypt; returns std::nullopt on any padding failure (callers must not
/// reveal which step failed — Bleichenbacher discipline).
std::optional<Bytes> rsa_decrypt_pkcs1(const RsaPrivateKey& key,
                                       ConstBytes ciphertext,
                                       MontCache* cache = nullptr);

/// Sign a SHA-1 digest with PKCS#1 v1.5 type-1 padding (DigestInfo for
/// SHA-1).
Bytes rsa_sign_sha1(const RsaPrivateKey& key, ConstBytes message,
                    MontCache* cache = nullptr);

/// Verify a SHA-1 PKCS#1 v1.5 signature.
bool rsa_verify_sha1(const RsaPublicKey& key, ConstBytes message,
                     ConstBytes signature, MontCache* cache = nullptr);

/// SHA-256 variants used by the secure-boot chain.
Bytes rsa_sign_sha256(const RsaPrivateKey& key, ConstBytes message);
bool rsa_verify_sha256(const RsaPublicKey& key, ConstBytes message,
                       ConstBytes signature);

}  // namespace mapsec::crypto
