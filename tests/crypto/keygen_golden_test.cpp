// Golden key generation. Every bench and sockbench world derives its PKI
// from bench::Pki::make() (two seeded RSA-512 keygens), and every seeded
// test key comes from generate_prime. A faster multiply, trial division or
// primality loop must keep the same candidates, the same DRBG draws and
// the same decisions, so these pin the exact outputs: the primes, the
// next DRBG word after each prime (which pins how many draws the
// Miller-Rabin rounds consumed), and one digest over the bench PKI.
#include <gtest/gtest.h>

#include <string>

#include "mapsec/crypto/prime.hpp"
#include "mapsec/crypto/rng.hpp"
#include "mapsec/crypto/sha256.hpp"
#include "server_pki.hpp"

namespace mapsec::crypto {
namespace {

struct PrimeGolden {
  std::uint64_t seed;
  std::size_t bits;
  const char* prime_hex;
  std::uint64_t next_draw;
};

TEST(KeygenGoldenTest, GeneratePrimeFixedSeeds) {
  const PrimeGolden rows[] = {
      {0x128, 128, "f1458fd2525d87f8d567ecd60e70ab0d", 11176319160534326748u},
      {0x256, 256,
       "e0c55cd69c2b1bb71ef09046faae89ceabbb7c0d48a2461611cbdce07da0419d",
       7151680247562555304u},
      {0x512, 512,
       "f44aa2fa7ba2d4d59f5beb48ceca6c42be6cd866c8a157a1d5e86ec6dc54b824"
       "d45953d8b06a3993a99240bc09053483c4ce27a901847a8575c66bb5310674b5",
       17942152384522800948u},
  };
  for (const PrimeGolden& r : rows) {
    HmacDrbg rng(r.seed);
    const BigInt p = generate_prime(rng, r.bits);
    EXPECT_EQ(p.to_hex(), r.prime_hex) << r.bits << " bits";
    EXPECT_EQ(rng.next_u64(), r.next_draw) << r.bits << " bits";
  }
}

TEST(KeygenGoldenTest, BenchPkiDigest) {
  const bench::Pki pki = bench::Pki::make();
  Sha256 digest;
  digest.update(pki.ca_key.pub.n.to_bytes_be());
  digest.update(pki.server_key.pub.n.to_bytes_be());
  digest.update(pki.server_cert.encode());
  EXPECT_EQ(to_hex(digest.finish()),
            "3fbf663cee9b07ef566c4c0d611ad4c3146724c5367ffd278177ffc50f1acd98");
}

}  // namespace
}  // namespace mapsec::crypto
