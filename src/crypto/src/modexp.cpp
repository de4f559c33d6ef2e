#include "mapsec/crypto/modexp.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "kernels.hpp"

namespace mapsec::crypto {

namespace dispatch {

// The pre-dispatch 64-bit CIOS accumulation loop, now the scalar kernel.
// Produces the pre-conditional-subtraction REDC value in t[0..kw].
void mont_cios_w64_scalar(const std::uint64_t* a, const std::uint64_t* b,
                          const std::uint64_t* n, std::uint64_t n0inv,
                          std::uint64_t* t, std::size_t kw) {
  using u128 = unsigned __int128;
  std::memset(t, 0, (kw + 2) * sizeof(std::uint64_t));

  for (std::size_t i = 0; i < kw; ++i) {
    const std::uint64_t ai = a[i];

    // t += ai * b
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < kw; ++j) {
      const u128 cur = u128{t[j]} + u128{ai} * b[j] + carry;
      t[j] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
    u128 cur = u128{t[kw]} + carry;
    t[kw] = static_cast<std::uint64_t>(cur);
    t[kw + 1] = static_cast<std::uint64_t>(cur >> 64);

    // m = t[0] * n0inv mod 2^64; t += m * n; t >>= 64
    const std::uint64_t m = t[0] * n0inv;
    carry = static_cast<std::uint64_t>((u128{t[0]} + u128{m} * n[0]) >> 64);
    for (std::size_t j = 1; j < kw; ++j) {
      const u128 c = u128{t[j]} + u128{m} * n[j] + carry;
      t[j - 1] = static_cast<std::uint64_t>(c);
      carry = static_cast<std::uint64_t>(c >> 64);
    }
    cur = u128{t[kw]} + carry;
    t[kw - 1] = static_cast<std::uint64_t>(cur);
    cur = u128{t[kw + 1]} + static_cast<std::uint64_t>(cur >> 64);
    t[kw] = static_cast<std::uint64_t>(cur);
    t[kw + 1] = 0;
  }
}

}  // namespace dispatch

Montgomery::Montgomery(const BigInt& modulus) : n_(modulus) {
  if (n_.is_even() || n_ <= BigInt(1))
    throw std::invalid_argument("Montgomery: modulus must be odd and > 1");
  const std::size_t k32 = n_.limbs().size();
  radix32_ = k32 % 2 != 0;
  kw_ = radix32_ ? k32 : k32 / 2;

  n_limbs_.assign(kw_, 0);
  if (radix32_) {
    for (std::size_t i = 0; i < k32; ++i) n_limbs_[i] = n_.limbs()[i];
  } else {
    for (std::size_t i = 0; i < k32; ++i)
      n_limbs_[i / 2] |= std::uint64_t{n_.limbs()[i]} << (32 * (i % 2));
  }

  // n0inv = -n^{-1} mod 2^64 by Newton iteration (6 steps suffice for 64
  // bits: each step doubles the number of correct low bits). Radix-32
  // mode only consumes the low 32 bits.
  const std::uint64_t n0 = n_limbs_[0];
  std::uint64_t x = n0;  // correct to a few low bits already (odd n0)
  for (int i = 0; i < 6; ++i) x *= 2u - n0 * x;
  n0inv_ = ~x + 1u;  // = -n0^{-1} mod 2^64
  if (radix32_) n0inv_ &= 0xFFFFFFFFull;

  // R^2 mod n with R = 2^(32 k32) — identical for both radices.
  BigInt r = (BigInt(1) << (32 * k32)) % n_;
  rr_ = (r * r) % n_;
  one_mont_ = r;

  rr_limbs_.assign(kw_, 0);
  normalize_into(rr_, rr_limbs_.data());
  one_limbs_.assign(kw_, 0);
  one_limbs_[0] = 1;
  scratch_.assign(kw_ + 2, 0);
  mul_buf_.assign(3 * kw_, 0);
}

void Montgomery::normalize_into(const BigInt& x, std::uint64_t* out) const {
  // Callers routinely pass short-limb operands (values far below n);
  // zero-padding once here is what lets the CIOS loops run fixed-width
  // with no per-iteration bounds checks.
  std::memset(out, 0, kw_ * sizeof(std::uint64_t));
  const auto& xw = x.limbs();
  if (radix32_) {
    const std::size_t take = std::min(xw.size(), kw_);
    for (std::size_t i = 0; i < take; ++i) out[i] = xw[i];
  } else {
    const std::size_t take = std::min(xw.size(), 2 * kw_);
    for (std::size_t i = 0; i < take; ++i)
      out[i / 2] |= std::uint64_t{xw[i]} << (32 * (i % 2));
  }
}

BigInt Montgomery::from_raw(const std::uint64_t* limbs) const {
  if (radix32_) {
    std::vector<std::uint32_t> w(kw_);
    for (std::size_t i = 0; i < kw_; ++i)
      w[i] = static_cast<std::uint32_t>(limbs[i]);
    return BigInt::from_limbs(std::move(w));
  }
  std::vector<std::uint32_t> w(2 * kw_);
  for (std::size_t i = 0; i < kw_; ++i) {
    w[2 * i] = static_cast<std::uint32_t>(limbs[i]);
    w[2 * i + 1] = static_cast<std::uint32_t>(limbs[i] >> 32);
  }
  return BigInt::from_limbs(std::move(w));
}

Montgomery::Kernel Montgomery::kernel() const {
  return radix32_ ? nullptr : dispatch::mont_cios_w64(kw_);
}

void Montgomery::mul_raw(Kernel k, const std::uint64_t* a,
                         const std::uint64_t* b, std::uint64_t* out,
                         MontStats* stats) const {
  radix32_ ? mul_raw_w32(a, b, out, stats)
           : mul_raw_w64(k, a, b, out, stats);
}

// 32-bit radix CIOS for odd-limb moduli: each buffer element carries one
// 32-bit limb, exactly the seed arithmetic (and so exactly its
// extra-reduction statistics) minus the per-call allocations.
void Montgomery::mul_raw_w32(const std::uint64_t* a, const std::uint64_t* b,
                             std::uint64_t* out, MontStats* stats) const {
  std::uint64_t* t = scratch_.data();
  std::memset(t, 0, (kw_ + 2) * sizeof(std::uint64_t));
  const std::uint64_t* nw = n_limbs_.data();

  for (std::size_t i = 0; i < kw_; ++i) {
    const std::uint64_t ai = a[i];

    // t += ai * b
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < kw_; ++j) {
      const std::uint64_t cur = t[j] + ai * b[j] + carry;
      t[j] = cur & 0xFFFFFFFFull;
      carry = cur >> 32;
    }
    std::uint64_t cur = t[kw_] + carry;
    t[kw_] = cur & 0xFFFFFFFFull;
    t[kw_ + 1] = cur >> 32;

    // m = t[0] * n0inv mod 2^32; t += m * n; t >>= 32
    const std::uint64_t m = (t[0] * n0inv_) & 0xFFFFFFFFull;
    carry = (t[0] + m * nw[0]) >> 32;
    for (std::size_t j = 1; j < kw_; ++j) {
      const std::uint64_t c = t[j] + m * nw[j] + carry;
      t[j - 1] = c & 0xFFFFFFFFull;
      carry = c >> 32;
    }
    cur = t[kw_] + carry;
    t[kw_ - 1] = cur & 0xFFFFFFFFull;
    cur = t[kw_ + 1] + (cur >> 32);
    t[kw_] = cur & 0xFFFFFFFFull;
    t[kw_ + 1] = 0;
  }

  if (stats) ++stats->mults;

  bool ge = t[kw_] != 0;
  if (!ge) {
    ge = true;
    for (std::size_t j = kw_; j-- > 0;) {
      if (t[j] != nw[j]) {
        ge = t[j] > nw[j];
        break;
      }
    }
  }
  if (ge) {
    std::uint64_t borrow = 0;
    for (std::size_t j = 0; j < kw_; ++j) {
      const std::uint64_t diff = t[j] - nw[j] - borrow;
      out[j] = diff & 0xFFFFFFFFull;
      borrow = (diff >> 63) & 1;  // negative wrap => borrow
    }
    if (stats) ++stats->extra_reductions;
  } else {
    std::memcpy(out, t, kw_ * sizeof(std::uint64_t));
  }
}

void Montgomery::mul_raw_w64(Kernel k, const std::uint64_t* a,
                             const std::uint64_t* b, std::uint64_t* out,
                             MontStats* stats) const {
  // CIOS Montgomery multiplication over 64-bit limbs; a, b and out are
  // exactly kw_ limbs, the accumulator is the preallocated scratch. The
  // accumulation loop is dispatched (the BMI2/ADX kernel for 4/8/16/32
  // limbs, the scalar kernel otherwise); both produce the identical
  // pre-subtraction value, and the final data-dependent subtraction below
  // stays in one place so the extra-reduction statistics the timing
  // attack consumes cannot drift between backends.
  std::uint64_t* t = scratch_.data();
  const std::uint64_t* nw = n_limbs_.data();
  k(a, b, nw, n0inv_, t, kw_);
  if (stats) ++stats->mults;

  // Final conditional subtraction (the data-dependent "extra reduction"
  // the timing attack measures): result = t - n when t >= n. The kernel
  // leaves t < R + n, so t >= n exactly when t's top word is set or the
  // kw_-limb difference t - n does not borrow: one pass computes the
  // difference and decides.
  std::uint64_t borrow = 0;
  for (std::size_t j = 0; j < kw_; ++j) {
    const std::uint64_t d0 = t[j] - nw[j];
    const std::uint64_t d1 = d0 - borrow;
    borrow = static_cast<std::uint64_t>((t[j] < nw[j]) | (d0 < borrow));
    out[j] = d1;
  }
  if (t[kw_] != 0 || borrow == 0) {
    if (stats) ++stats->extra_reductions;
  } else {
    std::memcpy(out, t, kw_ * sizeof(std::uint64_t));
  }
}

BigInt Montgomery::mul(const BigInt& a, const BigInt& b,
                       MontStats* stats) const {
  std::uint64_t* aw = mul_buf_.data();
  std::uint64_t* bw = aw + kw_;
  std::uint64_t* out = bw + kw_;
  normalize_into(a, aw);
  normalize_into(b, bw);
  mul_raw(kernel(), aw, bw, out, stats);
  return from_raw(out);
}

BigInt Montgomery::to_mont(const BigInt& x) const { return mul(x % n_, rr_); }

BigInt Montgomery::from_mont(const BigInt& x) const { return mul(x, BigInt(1)); }

BigInt Montgomery::exp(const BigInt& base, const BigInt& e, MontStats* stats,
                       MontOpSequence* seq) const {
  if (e.is_zero()) return BigInt(1) % n_;
  const Kernel k = kernel();

  std::vector<std::uint64_t> ws(3 * kw_);
  std::uint64_t* bm = ws.data();
  std::uint64_t* acc = bm + kw_;
  std::uint64_t* tmp = acc + kw_;

  normalize_into(base % n_, tmp);
  mul_raw(k, tmp, rr_limbs_.data(), bm, nullptr);  // bm = base * R mod n
  std::memcpy(acc, bm, kw_ * sizeof(std::uint64_t));

  const std::size_t bits = e.bit_length();
  for (std::size_t i = bits - 1; i-- > 0;) {
    mul_raw(k, acc, acc, tmp, stats);
    std::swap(acc, tmp);
    if (stats) {
      ++stats->squares;
      --stats->mults;  // the square was counted as a mult; reclassify
    }
    if (seq) seq->push_back(MontOp::kSquare);
    if (e.bit(i)) {
      mul_raw(k, acc, bm, tmp, stats);
      std::swap(acc, tmp);
      if (seq) seq->push_back(MontOp::kMultiply);
    }
  }
  mul_raw(k, acc, one_limbs_.data(), tmp, nullptr);  // leave Montgomery form
  return from_raw(tmp);
}

BigInt Montgomery::exp_ladder(const BigInt& base, const BigInt& e,
                              MontStats* stats, MontOpSequence* seq) const {
  if (e.is_zero()) return BigInt(1) % n_;
  const Kernel k = kernel();

  std::vector<std::uint64_t> ws(4 * kw_);
  std::uint64_t* bm = ws.data();
  std::uint64_t* r0 = bm + kw_;
  std::uint64_t* r1 = r0 + kw_;
  std::uint64_t* tmp = r1 + kw_;

  normalize_into(base % n_, tmp);
  mul_raw(k, tmp, rr_limbs_.data(), bm, nullptr);

  // Montgomery ladder: invariant r1 = r0 * base (in the exponent sense);
  // every step does exactly one multiply and one square, in that order,
  // regardless of the key bit — the SPA-visible sequence is constant.
  normalize_into(one_mont_, r0);
  std::memcpy(r1, bm, kw_ * sizeof(std::uint64_t));
  for (std::size_t i = e.bit_length(); i-- > 0;) {
    if (e.bit(i)) {
      mul_raw(k, r0, r1, tmp, stats);
      std::memcpy(r0, tmp, kw_ * sizeof(std::uint64_t));
      mul_raw(k, r1, r1, tmp, stats);
      std::memcpy(r1, tmp, kw_ * sizeof(std::uint64_t));
    } else {
      mul_raw(k, r0, r1, tmp, stats);
      std::memcpy(r1, tmp, kw_ * sizeof(std::uint64_t));
      mul_raw(k, r0, r0, tmp, stats);
      std::memcpy(r0, tmp, kw_ * sizeof(std::uint64_t));
    }
    if (stats) {
      ++stats->squares;
      --stats->mults;
    }
    if (seq) {
      seq->push_back(MontOp::kMultiply);
      seq->push_back(MontOp::kSquare);
    }
  }
  mul_raw(k, r0, one_limbs_.data(), tmp, nullptr);
  return from_raw(tmp);
}

BigInt Montgomery::exp_fixed_window(const BigInt& base, const BigInt& e,
                                    MontStats* stats) const {
  if (e.is_zero()) return BigInt(1) % n_;
  const Kernel k = kernel();

  constexpr std::size_t kWindowBits = 4;
  constexpr std::size_t kTableSize = 1u << kWindowBits;

  // table[w] = base^w in Montgomery form; table[0] = R mod n (the
  // Montgomery one), so "multiply by table[w]" is a real multiplication
  // for every window value — the operation sequence never depends on e.
  std::vector<std::uint64_t> table(kTableSize * kw_);
  std::vector<std::uint64_t> ws(3 * kw_);
  std::uint64_t* acc = ws.data();
  std::uint64_t* tmp = acc + kw_;
  std::uint64_t* sel = tmp + kw_;

  normalize_into(base % n_, tmp);
  mul_raw(k, tmp, rr_limbs_.data(), table.data() + kw_, nullptr);  // base^1
  normalize_into(one_mont_, table.data());                         // base^0
  for (std::size_t w = 2; w < kTableSize; ++w)
    mul_raw(k, table.data() + (w - 1) * kw_, table.data() + kw_,
            table.data() + w * kw_, nullptr);

  const auto select_ct = [&](std::uint32_t w) {
    // Constant-time table read: scan all 16 entries, accumulate the match
    // under a mask. No secret-indexed load reaches the memory system.
    std::memset(sel, 0, kw_ * sizeof(std::uint64_t));
    for (std::uint32_t j = 0; j < kTableSize; ++j) {
      const std::uint64_t mask =
          std::uint64_t{0} - static_cast<std::uint64_t>((j ^ w) == 0);
      const std::uint64_t* entry = table.data() + j * kw_;
      for (std::size_t l = 0; l < kw_; ++l) sel[l] |= entry[l] & mask;
    }
  };

  const std::size_t bits = e.bit_length();
  const std::size_t windows = (bits + kWindowBits - 1) / kWindowBits;

  const auto window_at = [&](std::size_t wi) {
    std::uint32_t w = 0;
    for (std::size_t b = 0; b < kWindowBits; ++b) {
      const std::size_t bit = wi * kWindowBits + b;
      if (bit < bits && e.bit(bit)) w |= 1u << b;
    }
    return w;
  };

  select_ct(window_at(windows - 1));
  std::memcpy(acc, sel, kw_ * sizeof(std::uint64_t));
  for (std::size_t wi = windows - 1; wi-- > 0;) {
    for (std::size_t s = 0; s < kWindowBits; ++s) {
      mul_raw(k, acc, acc, tmp, stats);
      std::swap(acc, tmp);
      if (stats) {
        ++stats->squares;
        --stats->mults;
      }
    }
    select_ct(window_at(wi));
    mul_raw(k, acc, sel, tmp, stats);
    std::swap(acc, tmp);
  }
  mul_raw(k, acc, one_limbs_.data(), tmp, nullptr);
  return from_raw(tmp);
}

namespace {

BigInt mod_exp_generic(const BigInt& base, const BigInt& e,
                       const BigInt& mod) {
  if (mod.is_zero()) throw std::domain_error("mod_exp: zero modulus");
  if (mod == BigInt(1)) return BigInt{};
  BigInt acc = 1;
  BigInt b = base % mod;
  for (std::size_t i = e.bit_length(); i-- > 0;) {
    acc = (acc * acc) % mod;
    if (e.bit(i)) acc = (acc * b) % mod;
  }
  return acc;
}

}  // namespace

BigInt mod_exp(const BigInt& base, const BigInt& e, const BigInt& mod) {
  if (mod.is_odd() && mod > BigInt(1))
    return Montgomery(mod).exp_fixed_window(base, e);
  return mod_exp_generic(base, e, mod);
}

BigInt mod_exp_ct(const BigInt& base, const BigInt& e, const BigInt& mod) {
  if (mod.is_odd() && mod > BigInt(1)) return Montgomery(mod).exp_ladder(base, e);
  return mod_exp_generic(base, e, mod);
}

}  // namespace mapsec::crypto
