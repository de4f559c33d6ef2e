#include "mapsec/crypto/rsa.hpp"

#include <optional>
#include <stdexcept>

#include "mapsec/crypto/mont_cache.hpp"
#include "mapsec/crypto/prime.hpp"
#include "mapsec/crypto/sha1.hpp"
#include "mapsec/crypto/sha256.hpp"

namespace mapsec::crypto {

namespace {

// Fetch the Montgomery engine for `m` from the cache when one is supplied,
// otherwise construct it into `local` (whose lifetime the caller owns).
// Either way the exponentiation code that follows is identical, so outputs
// and MontStats match bit-for-bit.
const Montgomery& mont_for(MontCache* cache, const BigInt& m,
                           std::optional<Montgomery>& local) {
  if (cache != nullptr) return cache->get(m);
  local.emplace(m);
  return *local;
}

}  // namespace

RsaKeyPair rsa_generate(Rng& rng, std::size_t bits) {
  if (bits < 64 || bits % 2 != 0)
    throw std::invalid_argument("rsa_generate: bits must be even and >= 64");
  const BigInt e(65537);
  for (;;) {
    const BigInt p = generate_prime(rng, bits / 2);
    BigInt q = generate_prime(rng, bits / 2);
    if (p == q) continue;
    const BigInt n = p * q;
    if (n.bit_length() != bits) continue;
    const BigInt phi = (p - BigInt(1)) * (q - BigInt(1));
    if (BigInt::gcd(e, phi) != BigInt(1)) continue;
    const BigInt d = BigInt::mod_inverse(e, phi);

    RsaPrivateKey priv;
    priv.n = n;
    priv.e = e;
    priv.d = d;
    // Keep p > q so qinv = q^{-1} mod p is well-defined in the standard
    // Garner recombination below.
    if (p > q) {
      priv.p = p;
      priv.q = q;
    } else {
      priv.p = q;
      priv.q = p;
    }
    priv.dp = d % (priv.p - BigInt(1));
    priv.dq = d % (priv.q - BigInt(1));
    priv.qinv = BigInt::mod_inverse(priv.q, priv.p);
    return {priv.public_key(), priv};
  }
}

BigInt rsa_public_op(const RsaPublicKey& key, const BigInt& m,
                     MontCache* cache) {
  if (m >= key.n) throw std::invalid_argument("rsa_public_op: m >= n");
  std::optional<Montgomery> local;
  return mont_for(cache, key.n, local).exp(m, key.e);
}

BigInt rsa_private_op(const RsaPrivateKey& key, const BigInt& c,
                      MontStats* stats, MontCache* cache) {
  if (c >= key.n) throw std::invalid_argument("rsa_private_op: c >= n");
  std::optional<Montgomery> local;
  return mont_for(cache, key.n, local).exp(c, key.d, stats);
}

BigInt rsa_private_op_crt(const RsaPrivateKey& key, const BigInt& c,
                          MontStats* stats, MontCache* cache) {
  if (c >= key.n) throw std::invalid_argument("rsa_private_op_crt: c >= n");
  // Garner's recombination: m = m_q + q * (qinv * (m_p - m_q) mod p).
  std::optional<Montgomery> local_p, local_q;
  const BigInt mp = mont_for(cache, key.p, local_p).exp(c % key.p, key.dp,
                                                        stats);
  const BigInt mq = mont_for(cache, key.q, local_q).exp(c % key.q, key.dq,
                                                        stats);
  BigInt diff = mp >= mq ? mp - mq : key.p - ((mq - mp) % key.p);
  const BigInt h = (key.qinv * diff) % key.p;
  return mq + key.q * h;
}

BigInt rsa_private_op_crt_checked(const RsaPrivateKey& key, const BigInt& c) {
  const BigInt m = rsa_private_op_crt(key, c);
  // Shamir/Joye-style output check: verify with the cheap public
  // exponentiation before releasing the result.
  if (Montgomery(key.n).exp(m, key.e) != c)
    return rsa_private_op(key, c);  // fault detected: recompute safely
  return m;
}

BigInt rsa_private_op_blinded(const RsaPrivateKey& key, const BigInt& c,
                              Rng& rng, MontStats* stats) {
  if (c >= key.n) throw std::invalid_argument("rsa_private_op_blinded: c >= n");
  BigInt r;
  do {
    r = BigInt::random_below(rng, key.n);
  } while (r.is_zero() || BigInt::gcd(r, key.n) != BigInt(1));
  const Montgomery mont(key.n);
  const BigInt re = mont.exp(r, key.e);
  const BigInt blinded = (c * re) % key.n;
  const BigInt m_blinded = mont.exp(blinded, key.d, stats);
  return (m_blinded * BigInt::mod_inverse(r, key.n)) % key.n;
}

// ---- PKCS#1 v1.5 -----------------------------------------------------------

Bytes rsa_encrypt_pkcs1(const RsaPublicKey& key, ConstBytes message,
                        Rng& rng) {
  const std::size_t k = key.modulus_bytes();
  if (message.size() + 11 > k)
    throw std::invalid_argument("rsa_encrypt_pkcs1: message too long");
  // EM = 0x00 || 0x02 || PS (nonzero random) || 0x00 || M
  Bytes em(k);
  em[0] = 0x00;
  em[1] = 0x02;
  const std::size_t ps_len = k - 3 - message.size();
  for (std::size_t i = 0; i < ps_len; ++i) {
    std::uint8_t b;
    do {
      rng.fill({&b, 1});
    } while (b == 0);
    em[2 + i] = b;
  }
  em[2 + ps_len] = 0x00;
  std::copy(message.begin(), message.end(),
            em.begin() + static_cast<std::ptrdiff_t>(3 + ps_len));
  return rsa_public_op(key, BigInt::from_bytes_be(em)).to_bytes_be(k);
}

std::optional<Bytes> rsa_decrypt_pkcs1(const RsaPrivateKey& key,
                                       ConstBytes ciphertext,
                                       MontCache* cache) {
  if (ciphertext.size() != key.modulus_bytes()) return std::nullopt;
  const BigInt c = BigInt::from_bytes_be(ciphertext);
  if (c >= key.n) return std::nullopt;
  const Bytes em = rsa_private_op_crt(key, c, nullptr, cache)
                       .to_bytes_be(key.modulus_bytes());
  if (em[0] != 0x00 || em[1] != 0x02) return std::nullopt;
  std::size_t sep = 0;
  for (std::size_t i = 2; i < em.size(); ++i) {
    if (em[i] == 0x00) {
      sep = i;
      break;
    }
  }
  if (sep == 0 || sep < 10) return std::nullopt;  // PS must be >= 8 bytes
  return Bytes(em.begin() + static_cast<std::ptrdiff_t>(sep + 1), em.end());
}

namespace {

// DER DigestInfo prefixes (RFC 8017 section 9.2 notes).
const Bytes kSha1Prefix = from_hex("3021300906052b0e03021a05000414");
const Bytes kSha256Prefix =
    from_hex("3031300d060960864801650304020105000420");

Bytes emsa_pkcs1(ConstBytes digest_info, std::size_t k) {
  if (digest_info.size() + 11 > k)
    throw std::invalid_argument("emsa_pkcs1: modulus too small");
  Bytes em(k, 0xFF);
  em[0] = 0x00;
  em[1] = 0x01;
  em[k - digest_info.size() - 1] = 0x00;
  std::copy(digest_info.begin(), digest_info.end(),
            em.end() - static_cast<std::ptrdiff_t>(digest_info.size()));
  return em;
}

Bytes sign_with_prefix(const RsaPrivateKey& key, ConstBytes prefix,
                       ConstBytes digest, MontCache* cache = nullptr) {
  const Bytes em = emsa_pkcs1(cat(prefix, digest), key.modulus_bytes());
  return rsa_private_op_crt(key, BigInt::from_bytes_be(em), nullptr, cache)
      .to_bytes_be(key.modulus_bytes());
}

bool verify_with_prefix(const RsaPublicKey& key, ConstBytes prefix,
                        ConstBytes digest, ConstBytes signature,
                        MontCache* cache = nullptr) {
  if (signature.size() != key.modulus_bytes()) return false;
  const BigInt s = BigInt::from_bytes_be(signature);
  if (s >= key.n) return false;
  const Bytes em =
      rsa_public_op(key, s, cache).to_bytes_be(key.modulus_bytes());
  const Bytes expected = emsa_pkcs1(cat(prefix, digest), key.modulus_bytes());
  return ct_equal(em, expected);
}

}  // namespace

Bytes rsa_sign_sha1(const RsaPrivateKey& key, ConstBytes message,
                    MontCache* cache) {
  return sign_with_prefix(key, kSha1Prefix, Sha1::hash(message), cache);
}

bool rsa_verify_sha1(const RsaPublicKey& key, ConstBytes message,
                     ConstBytes signature, MontCache* cache) {
  return verify_with_prefix(key, kSha1Prefix, Sha1::hash(message), signature,
                            cache);
}

Bytes rsa_sign_sha256(const RsaPrivateKey& key, ConstBytes message) {
  return sign_with_prefix(key, kSha256Prefix, Sha256::hash(message));
}

bool rsa_verify_sha256(const RsaPublicKey& key, ConstBytes message,
                       ConstBytes signature) {
  return verify_with_prefix(key, kSha256Prefix, Sha256::hash(message),
                            signature);
}

}  // namespace mapsec::crypto
