#include "mapsec/protocol/prf.hpp"

#include "mapsec/crypto/hmac.hpp"

namespace mapsec::protocol {

namespace {

template <typename H>
crypto::Bytes p_hash(crypto::ConstBytes secret, crypto::ConstBytes seed,
                     std::size_t out_len) {
  crypto::Bytes out;
  out.reserve(out_len + H::kDigestSize);
  // A(0) = seed; A(i) = HMAC(secret, A(i-1));
  // output = HMAC(secret, A(1) || seed) || HMAC(secret, A(2) || seed) ...
  // One keyed context serves the whole expansion (reset() between MACs).
  crypto::Hmac<H> prf(secret);
  std::uint8_t a[H::kDigestSize];
  std::uint8_t chunk[H::kDigestSize];
  prf.update(seed);
  prf.finish_into(a);  // A(1)
  while (out.size() < out_len) {
    prf.reset();
    prf.update(crypto::ConstBytes{a, H::kDigestSize});
    prf.update(seed);
    prf.finish_into(chunk);
    out.insert(out.end(), chunk, chunk + H::kDigestSize);
    if (out.size() >= out_len) break;  // A(i+1) would go unused
    prf.reset();
    prf.update(crypto::ConstBytes{a, H::kDigestSize});
    prf.finish_into(a);  // A(i+1)
  }
  out.resize(out_len);
  return out;
}

}  // namespace

crypto::Bytes p_md5(crypto::ConstBytes secret, crypto::ConstBytes seed,
                    std::size_t out_len) {
  return p_hash<crypto::Md5>(secret, seed, out_len);
}

crypto::Bytes p_sha1(crypto::ConstBytes secret, crypto::ConstBytes seed,
                     std::size_t out_len) {
  return p_hash<crypto::Sha1>(secret, seed, out_len);
}

crypto::Bytes tls_prf(crypto::ConstBytes secret, std::string_view label,
                      crypto::ConstBytes seed, std::size_t out_len) {
  // Split the secret into two (overlapping if odd) halves.
  const std::size_t half = (secret.size() + 1) / 2;
  const crypto::ConstBytes s1{secret.data(), half};
  const crypto::ConstBytes s2{secret.data() + secret.size() - half, half};
  const crypto::Bytes label_seed =
      crypto::cat(crypto::to_bytes(label), seed);
  crypto::Bytes out = p_md5(s1, label_seed, out_len);
  crypto::xor_into(out, p_sha1(s2, label_seed, out_len));
  return out;
}

crypto::Bytes derive_master_secret(crypto::ConstBytes premaster,
                                   crypto::ConstBytes client_random,
                                   crypto::ConstBytes server_random) {
  return tls_prf(premaster, "master secret",
                 crypto::cat(client_random, server_random), 48);
}

KeyBlock derive_key_block(crypto::ConstBytes master_secret,
                          crypto::ConstBytes client_random,
                          crypto::ConstBytes server_random,
                          std::size_t mac_len, std::size_t key_len,
                          std::size_t iv_len) {
  const std::size_t total = 2 * (mac_len + key_len + iv_len);
  const crypto::Bytes block =
      tls_prf(master_secret, "key expansion",
              crypto::cat(server_random, client_random), total);
  KeyBlock kb;
  std::size_t off = 0;
  const auto take = [&](std::size_t n) {
    crypto::Bytes part(block.begin() + static_cast<std::ptrdiff_t>(off),
                       block.begin() + static_cast<std::ptrdiff_t>(off + n));
    off += n;
    return part;
  };
  kb.client_mac_key = take(mac_len);
  kb.server_mac_key = take(mac_len);
  kb.client_enc_key = take(key_len);
  kb.server_enc_key = take(key_len);
  kb.client_iv = take(iv_len);
  kb.server_iv = take(iv_len);
  return kb;
}

}  // namespace mapsec::protocol
