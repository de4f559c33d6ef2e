#include "mapsec/crypto/prime.hpp"

#include <array>
#include <vector>

#include "mapsec/crypto/modexp.hpp"

namespace mapsec::crypto {

namespace {

// Primes below 1000 for cheap trial division before Miller-Rabin.
constexpr std::array<std::uint32_t, 168> kSmallPrimes = {
    2,   3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,
    47,  53,  59,  61,  67,  71,  73,  79,  83,  89,  97,  101, 103, 107,
    109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181,
    191, 193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257, 263,
    269, 271, 277, 281, 283, 293, 307, 311, 313, 317, 331, 337, 347, 349,
    353, 359, 367, 373, 379, 383, 389, 397, 401, 409, 419, 421, 431, 433,
    439, 443, 449, 457, 461, 463, 467, 479, 487, 491, 499, 503, 509, 521,
    523, 541, 547, 557, 563, 569, 571, 577, 587, 593, 599, 601, 607, 613,
    617, 619, 631, 641, 643, 647, 653, 659, 661, 673, 677, 683, 691, 701,
    709, 719, 727, 733, 739, 743, 751, 757, 761, 769, 773, 787, 797, 809,
    811, 821, 823, 827, 829, 839, 853, 857, 859, 863, 877, 881, 883, 887,
    907, 911, 919, 929, 937, 941, 947, 953, 967, 971, 977, 983, 991, 997};

// Same verdicts, in the same prime order, as testing n % p for each p in
// turn, but from word-level remainders: consecutive primes are grouped
// while their product fits 32 bits, n is reduced by the product one
// 32-bit limb at a time, and each prime then divides that remainder.
bool passes_trial_division(const BigInt& n) {
  const std::vector<std::uint32_t>& w = n.limbs();
  // n itself when it fits one limb; otherwise 0, which equals no prime.
  const std::uint64_t small = w.size() == 1 ? w[0] : 0;
  std::size_t i = 0;
  while (i < kSmallPrimes.size()) {
    std::uint64_t m = kSmallPrimes[i];
    std::size_t end = i + 1;
    while (end < kSmallPrimes.size() && m * kSmallPrimes[end] <= 0xFFFFFFFFu)
      m *= kSmallPrimes[end++];
    std::uint64_t r = 0;
    for (std::size_t k = w.size(); k-- > 0;) r = ((r << 32) | w[k]) % m;
    for (; i < end; ++i) {
      const std::uint32_t p = kSmallPrimes[i];
      if (small == p) return true;
      if (r % p == 0) return false;
    }
  }
  return true;
}

}  // namespace

bool is_probably_prime(const BigInt& n, Rng& rng, int rounds) {
  if (n < BigInt(2)) return false;
  if (n == BigInt(2) || n == BigInt(3)) return true;
  if (n.is_even()) return false;
  if (!passes_trial_division(n)) return false;

  // Write n-1 = d * 2^r with d odd.
  const BigInt n_minus_1 = n - BigInt(1);
  BigInt d = n_minus_1;
  std::size_t r = 0;
  while (d.is_even()) {
    d = d >> 1;
    ++r;
  }

  // The squaring loop runs in Montgomery form: 1 and n-1 become R and
  // n-R (mod n), and every product stays fully reduced, so comparing
  // residues decides exactly as comparing x itself would.
  const Montgomery mont(n);
  const BigInt one_m = mont.to_mont(BigInt(1));
  const BigInt minus_one_m = mont.to_mont(n_minus_1);
  const BigInt two(2);
  for (int round = 0; round < rounds; ++round) {
    // Base in [2, n-2].
    const BigInt a = two + BigInt::random_below(rng, n - BigInt(3));
    const BigInt x = mont.exp(a, d);
    if (x == BigInt(1) || x == n_minus_1) continue;
    BigInt xm = mont.to_mont(x);
    bool composite = true;
    for (std::size_t i = 1; i < r; ++i) {
      xm = mont.mul(xm, xm);
      if (xm == minus_one_m) {
        composite = false;
        break;
      }
      if (xm == one_m) return false;  // nontrivial sqrt of 1
    }
    if (composite) return false;
  }
  return true;
}

BigInt generate_prime(Rng& rng, std::size_t bits) {
  if (bits < 8)
    throw std::invalid_argument("generate_prime: need at least 8 bits");
  for (;;) {
    BigInt candidate = BigInt::random_bits(rng, bits);
    // Force odd and force the second-highest bit (so p*q has 2*bits bits).
    candidate = candidate + (candidate.is_even() ? BigInt(1) : BigInt(0));
    const BigInt second_top = BigInt(1) << (bits - 2);
    if (!candidate.bit(bits - 2)) candidate += second_top;
    if (candidate.bit_length() != bits) continue;
    if (is_probably_prime(candidate, rng)) return candidate;
  }
}

BigInt generate_safe_prime(Rng& rng, std::size_t bits) {
  for (;;) {
    const BigInt q = generate_prime(rng, bits - 1);
    const BigInt p = (q << 1) + BigInt(1);
    if (is_probably_prime(p, rng)) return p;
  }
}

}  // namespace mapsec::crypto
