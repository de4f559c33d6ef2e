// Modular exponentiation engines.
//
// Two faces of the same primitive, as Section 3.4 frames it: the "abstract
// mathematical object" and the implementation with "very specific
// characteristics". The Montgomery engine here exposes those
// characteristics deliberately:
//
//  * `exp()` is the classic left-to-right square-and-multiply whose
//    multiply is skipped for zero exponent bits, and whose Montgomery
//    reduction performs a data-dependent final subtraction ("extra
//    reduction"). `MontStats` counts both — this is the side channel the
//    attack::timing module exploits (Kocher [47]).
//  * `exp_ladder()` is the Montgomery-ladder countermeasure: one square and
//    one multiply per bit regardless of the key.
//  * RSA blinding (the other standard countermeasure) lives in rsa.hpp.
#pragma once

#include <cstdint>

#include "mapsec/crypto/bignum.hpp"

namespace mapsec::crypto {

/// Operation counts for one exponentiation; with a per-operation cycle
/// model these become the simulated execution time of the primitive.
struct MontStats {
  std::uint64_t squares = 0;
  std::uint64_t mults = 0;
  std::uint64_t extra_reductions = 0;

  MontStats& operator+=(const MontStats& o) {
    squares += o.squares;
    mults += o.mults;
    extra_reductions += o.extra_reductions;
    return *this;
  }
};

/// One step of an exponentiation's operation sequence. Squares and
/// multiplies have visibly different power profiles on real hardware, so
/// this sequence is what a single SPA trace shows the adversary.
enum class MontOp : std::uint8_t { kSquare, kMultiply };

/// Optional per-operation log of an exponentiation (SPA leakage model).
using MontOpSequence = std::vector<MontOp>;

/// Montgomery multiplication context for a fixed odd modulus.
///
/// The engine packs operands into raw 64-bit limb buffers normalized to
/// the modulus width once at entry; inner loops use 128-bit accumulation
/// and carry no per-iteration bounds checks or heap traffic (the CIOS
/// accumulator is a preallocated scratch buffer). Consequently a single
/// Montgomery instance is NOT safe for concurrent use from multiple
/// threads; construct one per thread.
class Montgomery {
 public:
  /// Modulus must be odd and > 1.
  explicit Montgomery(const BigInt& modulus);

  const BigInt& modulus() const { return n_; }

  BigInt to_mont(const BigInt& x) const;
  BigInt from_mont(const BigInt& x) const;

  /// Montgomery product of two values already in Montgomery form.
  /// If `stats` is provided, `mults` and (when the final conditional
  /// subtraction fires) `extra_reductions` are incremented.
  BigInt mul(const BigInt& a, const BigInt& b, MontStats* stats = nullptr) const;

  /// base^e mod n, left-to-right square-and-multiply. Key-dependent
  /// operation sequence — fast but leaky. `seq`, when provided, records
  /// the executed operation sequence (the SPA observable).
  BigInt exp(const BigInt& base, const BigInt& e, MontStats* stats = nullptr,
             MontOpSequence* seq = nullptr) const;

  /// base^e mod n via the Montgomery ladder: fixed operation sequence per
  /// bit (square+multiply always), the timing/SPA countermeasure.
  BigInt exp_ladder(const BigInt& base, const BigInt& e,
                    MontStats* stats = nullptr,
                    MontOpSequence* seq = nullptr) const;

  /// base^e mod n via 4-bit fixed windows: four squares and one multiply
  /// per window regardless of the exponent, with the window's multiplier
  /// chosen from the 16-entry table by a constant-time masked scan (no
  /// key-dependent table index reaches the memory system). The fast path
  /// that is also sequence-constant.
  BigInt exp_fixed_window(const BigInt& base, const BigInt& e,
                          MontStats* stats = nullptr) const;

 private:
  /// The dispatched 64-bit-limb CIOS accumulation loop (the signature of
  /// the crypto library's internal kernel table).
  using Kernel = void (*)(const std::uint64_t* a, const std::uint64_t* b,
                          const std::uint64_t* n, std::uint64_t n0inv,
                          std::uint64_t* t, std::size_t kw);

  /// The kernel for this modulus under the current dispatch mode (null in
  /// radix-32 mode). Resolved once per operation, not per multiply.
  Kernel kernel() const;

  /// out = REDC(a * b), all pointers kw_ limbs, out distinct from a and b.
  /// `k` is kernel()'s result.
  void mul_raw(Kernel k, const std::uint64_t* a, const std::uint64_t* b,
               std::uint64_t* out, MontStats* stats) const;

  void mul_raw_w64(Kernel k, const std::uint64_t* a, const std::uint64_t* b,
                   std::uint64_t* out, MontStats* stats) const;
  void mul_raw_w32(const std::uint64_t* a, const std::uint64_t* b,
                   std::uint64_t* out, MontStats* stats) const;

  /// Pack x's 32-bit limbs into exactly kw_ 64-bit limbs at `out`,
  /// zero-padding (and truncating limbs above the modulus width, which
  /// cannot occur for in-range values).
  void normalize_into(const BigInt& x, std::uint64_t* out) const;

  BigInt from_raw(const std::uint64_t* limbs) const;

  BigInt n_;
  // R = 2^(32 k32) for a k32-limb modulus, always — the extra-reduction
  // statistics the timing attack consumes are a function of n/R, so R
  // must not depend on the internal word size. When k32 is even the
  // engine runs 64-bit limbs (kw_ = k32/2, the fast path); odd-limb
  // moduli fall back to a 32-bit radix carried in the same buffers
  // (kw_ = k32, each element < 2^32).
  bool radix32_;
  std::size_t kw_;       // internal limb count of n
  std::uint64_t n0inv_;  // -n^{-1} mod 2^64 (mod 2^32 in radix-32 mode)
  BigInt rr_;            // R^2 mod n
  BigInt one_mont_;      // R mod n
  std::vector<std::uint64_t> n_limbs_;    // n, exactly kw_ limbs
  std::vector<std::uint64_t> rr_limbs_;   // R^2 mod n, kw_ limbs
  std::vector<std::uint64_t> one_limbs_;  // the value 1, kw_ limbs
  mutable std::vector<std::uint64_t> scratch_;  // CIOS accumulator, kw_ + 2
  mutable std::vector<std::uint64_t> mul_buf_;  // operand staging, 3 * kw_
};

/// General modular exponentiation: Montgomery for odd moduli, plain
/// square-and-multiply with division-based reduction otherwise.
BigInt mod_exp(const BigInt& base, const BigInt& e, const BigInt& mod);

/// Constant-operation-sequence variant (Montgomery ladder when possible).
BigInt mod_exp_ct(const BigInt& base, const BigInt& e, const BigInt& mod);

}  // namespace mapsec::crypto
