// Experiment E7 — host-measured throughput of every crypto primitive the
// Section 3.2 workload model prices, plus the RSA private-op strategy
// ablation (plain vs CRT vs blinded — the CRT speedup is also the fault-
// attack surface of E11).
//
// E19 rides on the same binary: the *Scalar twins pin crypto::dispatch to
// the portable kernels, so accelerated-vs-scalar speedups of the
// ISA-dispatched primitives (AES/CCM, SHA, CRC-32, Montgomery modexp)
// fall out of one JSON report.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <random>
#include <vector>

#include "bench_main.hpp"
#include "kernels.hpp"
#include "mapsec/crypto/ccm.hpp"
#include "mapsec/crypto/cipher.hpp"
#include "mapsec/crypto/crc32.hpp"
#include "mapsec/crypto/crypto.hpp"
#include "mapsec/crypto/dispatch.hpp"
#include "mapsec/crypto/mont_cache.hpp"
#include "mapsec/protocol/prf.hpp"

namespace {

using namespace mapsec::crypto;

/// Pins the benchmark body to the scalar backend; destructor restores
/// auto-dispatch for subsequent benchmarks.
struct ForceScalar {
  ForceScalar() { dispatch::force_scalar(true); }
  ~ForceScalar() { dispatch::force_scalar(false); }
};

Bytes test_data(std::size_t n) {
  HmacDrbg rng(42);
  return rng.bytes(n);
}

template <typename C>
void bulk_cipher_bench(benchmark::State& state, std::size_t key_len) {
  HmacDrbg rng(1);
  const C cipher(rng.bytes(key_len));
  Bytes buf = test_data(4096);
  Bytes out(buf.size());
  for (auto _ : state) {
    for (std::size_t off = 0; off < buf.size(); off += C::kBlockSize)
      cipher.encrypt_block(buf.data() + off, out.data() + off);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(buf.size()));
}

void BM_Des(benchmark::State& state) { bulk_cipher_bench<Des>(state, 8); }
void BM_Des3(benchmark::State& state) { bulk_cipher_bench<Des3>(state, 24); }
void BM_Aes128(benchmark::State& state) { bulk_cipher_bench<Aes>(state, 16); }
void BM_Rc2(benchmark::State& state) { bulk_cipher_bench<Rc2>(state, 16); }

void BM_Aes128Scalar(benchmark::State& state) {
  ForceScalar scalar;
  bulk_cipher_bench<Aes>(state, 16);
}

// The CCMP/ESP bulk path: CTR keystream + CBC-MAC over a 4 KiB payload.
void ccm_seal_bench(benchmark::State& state) {
  HmacDrbg rng(12);
  const BlockCipherAdapter<Aes> cipher{Aes(rng.bytes(16))};
  const Bytes nonce = rng.bytes(kCcmNonceLen);
  const Bytes aad = rng.bytes(32);
  const Bytes payload = test_data(4096);
  for (auto _ : state) {
    Bytes sealed = ccm_seal(cipher, nonce, aad, payload);
    benchmark::DoNotOptimize(sealed.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload.size()));
}

void BM_AesCcmSeal(benchmark::State& state) { ccm_seal_bench(state); }
void BM_AesCcmSealScalar(benchmark::State& state) {
  ForceScalar scalar;
  ccm_seal_bench(state);
}

void ccm_open_bench(benchmark::State& state) {
  HmacDrbg rng(13);
  const BlockCipherAdapter<Aes> cipher{Aes(rng.bytes(16))};
  const Bytes nonce = rng.bytes(kCcmNonceLen);
  const Bytes aad = rng.bytes(32);
  const Bytes sealed = ccm_seal(cipher, nonce, aad, test_data(4096));
  for (auto _ : state) {
    auto opened = ccm_open(cipher, nonce, aad, sealed);
    benchmark::DoNotOptimize(opened->data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sealed.size() - 8));
}

void BM_AesCcmOpen(benchmark::State& state) { ccm_open_bench(state); }
void BM_AesCcmOpenScalar(benchmark::State& state) {
  ForceScalar scalar;
  ccm_open_bench(state);
}

void BM_Rc4(benchmark::State& state) {
  HmacDrbg rng(2);
  Rc4 rc4(rng.bytes(16));
  Bytes buf = test_data(4096);
  for (auto _ : state) {
    Bytes out = rc4.process(buf);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(buf.size()));
}

template <typename H>
void hash_bench(benchmark::State& state) {
  Bytes buf = test_data(4096);
  for (auto _ : state) {
    Bytes digest = H::hash(buf);
    benchmark::DoNotOptimize(digest.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(buf.size()));
}

void BM_Sha1(benchmark::State& state) { hash_bench<Sha1>(state); }
void BM_Md5(benchmark::State& state) { hash_bench<Md5>(state); }
void BM_Sha256(benchmark::State& state) { hash_bench<Sha256>(state); }

void BM_Sha1Scalar(benchmark::State& state) {
  ForceScalar scalar;
  hash_bench<Sha1>(state);
}
void BM_Sha256Scalar(benchmark::State& state) {
  ForceScalar scalar;
  hash_bench<Sha256>(state);
}

void crc32_bench(benchmark::State& state) {
  Bytes buf = test_data(4096);
  for (auto _ : state) {
    std::uint32_t c = crc32(buf);
    benchmark::DoNotOptimize(c);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(buf.size()));
}

void BM_Crc32(benchmark::State& state) { crc32_bench(state); }
void BM_Crc32Scalar(benchmark::State& state) {
  ForceScalar scalar;
  crc32_bench(state);
}

void BM_HmacSha1(benchmark::State& state) {
  HmacDrbg rng(3);
  const Bytes key = rng.bytes(20);
  Bytes buf = test_data(4096);
  for (auto _ : state) {
    Bytes tag = HmacSha1::mac(key, buf);
    benchmark::DoNotOptimize(tag.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(buf.size()));
}

// Per-session costs: every TLS session builds about five AES schedules
// (record ciphers, the CCM SA, each ticket seal and open), draws its
// randoms and padding from the DRBG, and runs the TLS 1.0 PRF (half MD5,
// half SHA-1) for its key block. The argument is the key size in bits.
void BM_AesKeySchedule(benchmark::State& state) {
  const Bytes key = test_data(static_cast<std::size_t>(state.range(0)) / 8);
  for (auto _ : state) {
    Aes aes(key);
    benchmark::DoNotOptimize(&aes);
    benchmark::ClobberMemory();
  }
}

// One fill of state.range(0) bytes (a one-byte fill is one PKCS#1
// padding byte).
void BM_HmacDrbgFill(benchmark::State& state) {
  HmacDrbg rng(15);
  Bytes out(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    rng.fill(out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}

// The 104-byte key block of TLS_RSA_WITH_AES_128_CBC_SHA.
void BM_TlsPrfKeyBlock(benchmark::State& state) {
  HmacDrbg rng(16);
  const Bytes master = rng.bytes(48);
  const Bytes client_random = rng.bytes(32);
  const Bytes server_random = rng.bytes(32);
  for (auto _ : state) {
    mapsec::protocol::KeyBlock kb = mapsec::protocol::derive_key_block(
        master, client_random, server_random, 20, 16, 16);
    benchmark::DoNotOptimize(kb.client_enc_key.data());
  }
}

const RsaKeyPair& key512() {
  static const RsaKeyPair kp = [] {
    HmacDrbg rng(0xBE5C);
    return rsa_generate(rng, 512);
  }();
  return kp;
}

const RsaKeyPair& key1024() {
  static const RsaKeyPair kp = [] {
    HmacDrbg rng(0xBE5D);
    return rsa_generate(rng, 1024);
  }();
  return kp;
}

void BM_Rsa1024PrivatePlain(benchmark::State& state) {
  HmacDrbg rng(4);
  const BigInt c = BigInt::random_below(rng, key1024().pub.n);
  for (auto _ : state) {
    BigInt m = rsa_private_op(key1024().priv, c);
    benchmark::DoNotOptimize(&m);
  }
}

void BM_Rsa1024PrivateCrt(benchmark::State& state) {
  HmacDrbg rng(5);
  const BigInt c = BigInt::random_below(rng, key1024().pub.n);
  for (auto _ : state) {
    BigInt m = rsa_private_op_crt(key1024().priv, c);
    benchmark::DoNotOptimize(&m);
  }
}

void BM_Rsa1024PrivateCrtScalar(benchmark::State& state) {
  ForceScalar scalar;
  HmacDrbg rng(5);
  const BigInt c = BigInt::random_below(rng, key1024().pub.n);
  for (auto _ : state) {
    BigInt m = rsa_private_op_crt(key1024().priv, c);
    benchmark::DoNotOptimize(&m);
  }
}

// E21's per-key Montgomery-context caching: the same CRT op with both
// prime contexts (R^2 mod p/q, p'/q') cached across iterations, the way a
// server reuses them across every handshake under one key. The delta
// against BM_Rsa1024PrivateCrt is pure context-construction cost.
void BM_Rsa1024PrivateCrtCached(benchmark::State& state) {
  HmacDrbg rng(5);
  const BigInt c = BigInt::random_below(rng, key1024().pub.n);
  MontCache cache;
  for (auto _ : state) {
    BigInt m = rsa_private_op_crt(key1024().priv, c, nullptr, &cache);
    benchmark::DoNotOptimize(&m);
  }
}

void BM_Rsa1024PrivateBlinded(benchmark::State& state) {
  HmacDrbg rng(6);
  const BigInt c = BigInt::random_below(rng, key1024().pub.n);
  for (auto _ : state) {
    BigInt m = rsa_private_op_blinded(key1024().priv, c, rng);
    benchmark::DoNotOptimize(&m);
  }
}

void BM_Rsa1024PrivateLadder(benchmark::State& state) {
  HmacDrbg rng(7);
  const BigInt c = BigInt::random_below(rng, key1024().pub.n);
  const Montgomery mont(key1024().priv.n);
  for (auto _ : state) {
    BigInt m = mont.exp_ladder(c, key1024().priv.d);
    benchmark::DoNotOptimize(&m);
  }
}

void BM_Rsa1024Public(benchmark::State& state) {
  HmacDrbg rng(8);
  const BigInt m = BigInt::random_below(rng, key1024().pub.n);
  for (auto _ : state) {
    BigInt c = rsa_public_op(key1024().pub, m);
    benchmark::DoNotOptimize(&c);
  }
}

void BM_Rsa512PrivateCrt(benchmark::State& state) {
  HmacDrbg rng(9);
  const BigInt c = BigInt::random_below(rng, key512().pub.n);
  for (auto _ : state) {
    BigInt m = rsa_private_op_crt(key512().priv, c);
    benchmark::DoNotOptimize(&m);
  }
}

void BM_Dh1024SharedSecret(benchmark::State& state) {
  HmacDrbg rng(10);
  const DhGroup group = DhGroup::oakley_group2();
  const DhKeyPair alice = dh_generate(group, rng);
  const DhKeyPair bob = dh_generate(group, rng);
  for (auto _ : state) {
    BigInt s = dh_shared_secret(group, alice.private_key, bob.public_key);
    benchmark::DoNotOptimize(&s);
  }
}

// One Montgomery multiply at 4/8/16/32 64-bit limbs (256- to 2048-bit
// moduli): the dispatched CIOS kernel alone, without the final
// conditional subtraction. Each call's product is the next call's left
// operand, so calls run back to back as in an exponentiation and the
// time is the kernel's latency.
void BM_MontMul(benchmark::State& state) {
  const auto kw = static_cast<std::size_t>(state.range(0));
  std::mt19937_64 rng(kw);
  std::vector<std::uint64_t> n(kw), a(kw), b(kw), t(kw + 2);
  for (std::size_t i = 0; i < kw; ++i) {
    n[i] = rng();
    a[i] = rng();
    b[i] = rng();
  }
  n[0] |= 1;
  n[kw - 1] |= std::uint64_t{1} << 63;
  a[kw - 1] >>= 1;  // a, b < n
  b[kw - 1] >>= 1;
  std::uint64_t x = n[0];  // -n^{-1} mod 2^64 by Newton iteration
  for (int i = 0; i < 6; ++i) x *= 2u - n[0] * x;
  const std::uint64_t n0inv = ~x + 1u;
  const dispatch::MontCiosFn kernel = dispatch::mont_cios_w64(kw);
  for (auto _ : state) {
    kernel(a.data(), b.data(), n.data(), n0inv, t.data(), kw);
    std::copy(t.begin(), t.begin() + static_cast<std::ptrdiff_t>(kw),
              a.begin());
    benchmark::DoNotOptimize(a.data());
    benchmark::ClobberMemory();
  }
}

void BM_Rsa512KeyGen(benchmark::State& state) {
  HmacDrbg rng(11);
  for (auto _ : state) {
    RsaKeyPair kp = rsa_generate(rng, 512);
    benchmark::DoNotOptimize(&kp);
  }
}

BENCHMARK(BM_Des);
BENCHMARK(BM_Des3);
BENCHMARK(BM_Aes128);
BENCHMARK(BM_Aes128Scalar);
BENCHMARK(BM_AesCcmSeal);
BENCHMARK(BM_AesCcmSealScalar);
BENCHMARK(BM_AesCcmOpen);
BENCHMARK(BM_AesCcmOpenScalar);
BENCHMARK(BM_Rc2);
BENCHMARK(BM_Rc4);
BENCHMARK(BM_Sha1);
BENCHMARK(BM_Sha1Scalar);
BENCHMARK(BM_Md5);
BENCHMARK(BM_Sha256);
BENCHMARK(BM_Sha256Scalar);
BENCHMARK(BM_Crc32);
BENCHMARK(BM_Crc32Scalar);
BENCHMARK(BM_HmacSha1);
BENCHMARK(BM_AesKeySchedule)->Arg(128)->Arg(256);
BENCHMARK(BM_HmacDrbgFill)->Arg(1)->Arg(32);
BENCHMARK(BM_TlsPrfKeyBlock);
BENCHMARK(BM_Rsa1024PrivatePlain)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Rsa1024PrivateCrt)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Rsa1024PrivateCrtScalar)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Rsa1024PrivateCrtCached)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Rsa1024PrivateBlinded)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Rsa1024PrivateLadder)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Rsa1024Public)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Rsa512PrivateCrt)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Dh1024SharedSecret)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MontMul)->Arg(4)->Arg(8)->Arg(16)->Arg(32);
BENCHMARK(BM_Rsa512KeyGen)->Unit(benchmark::kMillisecond);

}  // namespace

MAPSEC_BENCHMARK_MAIN()
