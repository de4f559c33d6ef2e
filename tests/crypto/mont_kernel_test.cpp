// Cross-check of the dispatched Montgomery CIOS kernel against the scalar
// oracle (mont_cios_w64_scalar), limb for limb, on 2^20 random operand
// triples per width: the fixed widths 4, 8, 16 and 32 limbs (256- to
// 2048-bit moduli) and 6 limbs, which no fixed kernel covers. Every
// modulus also meets the edge operands 0, 1 and n-1, and the moduli
// include ones whose top limb is all ones and one whose top limb is 1.
//
// The accelerated arm is always the auto-selected kernel (the scope below
// lifts MAPSEC_FORCE_SCALAR), so the forced-scalar CI sweep runs the same
// comparison. On a host without the ISA kernel both arms are scalar.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "kernels.hpp"
#include "mapsec/crypto/dispatch.hpp"

namespace mapsec::crypto {
namespace {

using u64 = std::uint64_t;

class AutoBackend {
 public:
  AutoBackend() : prior_(dispatch::scalar_forced()) {
    dispatch::force_scalar(false);
  }
  ~AutoBackend() { dispatch::force_scalar(prior_); }

 private:
  bool prior_;
};

u64 neg_inverse(u64 n0) {
  u64 x = n0;
  for (int i = 0; i < 6; ++i) x *= 2u - n0 * x;
  return ~x + 1u;
}

// Moduli cycle through four shapes: random with the top bit set, top limb
// all ones, every limb all ones (n = 2^(64 kw) - 1), and top limb 1 (the
// smallest full-width modulus, where t can exceed n the most).
std::vector<u64> make_modulus(std::mt19937_64& rng, std::size_t kw,
                              int shape) {
  std::vector<u64> n(kw);
  for (auto& l : n) l = rng();
  switch (shape % 4) {
    case 0: n.back() |= u64{1} << 63; break;
    case 1: n.back() = ~u64{0}; break;
    case 2: for (auto& l : n) l = ~u64{0}; break;
    default: n.back() = 1; break;
  }
  if (kw == 1 && n[0] == 1) n[0] = 3;
  n[0] |= 1;
  return n;
}

// Uniform-ish value below n: random limbs with the top limb drawn below
// n's top limb (or equal to it only when the lower limbs are smaller).
void random_below(std::mt19937_64& rng, const std::vector<u64>& n, u64* out) {
  const std::size_t kw = n.size();
  for (std::size_t i = 0; i < kw; ++i) out[i] = rng();
  out[kw - 1] = n[kw - 1] == 0 ? 0 : out[kw - 1] % n[kw - 1];
}

void check_width(std::size_t kw, std::size_t triples) {
  AutoBackend scope;
  const dispatch::MontCiosFn fast = dispatch::mont_cios_w64(kw);
  std::mt19937_64 rng(0xC105u + kw);
  std::vector<u64> a(kw), b(kw), t_fast(kw + 2), t_ref(kw + 2);
  std::vector<u64> n;
  u64 n0inv = 0;
  std::size_t mismatches = 0;
  constexpr std::size_t kPerModulus = 1024;
  for (std::size_t i = 0; i < triples; ++i) {
    if (i % kPerModulus == 0) {
      n = make_modulus(rng, kw, static_cast<int>(i / kPerModulus));
      n0inv = neg_inverse(n[0]);
    }
    // The first operands of each modulus are the edge cases 0, 1, n-1.
    const std::size_t k = i % kPerModulus;
    const auto edge = [&](std::size_t which, u64* out) {
      std::fill(out, out + kw, 0);
      if (which == 1) out[0] = 1;
      if (which == 2) {
        std::copy(n.begin(), n.end(), out);
        out[0] -= 1;  // n is odd, so no borrow
      }
    };
    if (k < 9) {
      edge(k / 3, a.data());
      edge(k % 3, b.data());
    } else if (k < 12) {
      edge(k - 9, a.data());
      random_below(rng, n, b.data());
    } else {
      random_below(rng, n, a.data());
      random_below(rng, n, b.data());
    }
    fast(a.data(), b.data(), n.data(), n0inv, t_fast.data(), kw);
    dispatch::mont_cios_w64_scalar(a.data(), b.data(), n.data(), n0inv,
                                   t_ref.data(), kw);
    if (t_fast != t_ref && ++mismatches <= 3) {
      ADD_FAILURE() << "kw=" << kw << " triple " << i << " differs";
    }
  }
  EXPECT_EQ(mismatches, 0u) << "kw=" << kw;
}

constexpr std::size_t kTriples = std::size_t{1} << 20;

TEST(MontKernelTest, Width4MatchesScalar) { check_width(4, kTriples); }
TEST(MontKernelTest, Width8MatchesScalar) { check_width(8, kTriples); }
TEST(MontKernelTest, Width16MatchesScalar) { check_width(16, kTriples); }
TEST(MontKernelTest, Width32MatchesScalar) { check_width(32, kTriples); }
TEST(MontKernelTest, Width6MatchesScalar) { check_width(6, kTriples); }

}  // namespace
}  // namespace mapsec::crypto
