#include "mapsec/crypto/rng.hpp"

#include <algorithm>
#include <stdexcept>

#include "mapsec/crypto/hmac.hpp"

namespace mapsec::crypto {

Bytes Rng::bytes(std::size_t n) {
  Bytes out(n);
  fill(out);
  return out;
}

std::uint32_t Rng::next_u32() {
  std::uint8_t b[4];
  fill(b);
  return load_be32(b);
}

std::uint64_t Rng::next_u64() {
  std::uint8_t b[8];
  fill(b);
  return load_be64(b);
}

std::uint64_t Rng::below(std::uint64_t bound) {
  if (bound == 0) throw std::invalid_argument("Rng::below: bound must be > 0");
  // Rejection sampling over the largest multiple of bound.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % bound);
  std::uint64_t v;
  do {
    v = next_u64();
  } while (v >= limit);
  return v % bound;
}

// ---- SimTrng ---------------------------------------------------------------

namespace {
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t rotl64(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

SimTrng::SimTrng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::uint64_t SimTrng::next_raw() {
  const std::uint64_t result = rotl64(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl64(s_[3], 45);
  return result;
}

void SimTrng::inject_stuck_fault(std::uint8_t stuck_value) {
  stuck_ = true;
  stuck_value_ = stuck_value;
}

void SimTrng::health_check(std::uint32_t block) {
  // Continuous test (FIPS 140-2 4.9.2): consecutive equal blocks fail.
  if (have_prev_ && block == prev_block_) healthy_ = false;
  prev_block_ = block;
  have_prev_ = true;

  // Monobit and poker statistics over a 20000-bit window.
  constexpr std::uint64_t kWindowBits = 20000;
  for (int i = 0; i < 8; ++i)
    ++nibble_counts_[(block >> (4 * i)) & 0xF];
  ones_ += static_cast<std::uint64_t>(__builtin_popcount(block));
  window_bits_ += 32;
  if (window_bits_ >= kWindowBits) {
    // Monobit: 9725 < ones < 10275 (scaled to the actual window size).
    const double frac = static_cast<double>(ones_) /
                        static_cast<double>(window_bits_);
    if (frac < 0.48625 || frac > 0.51375) healthy_ = false;
    // Poker: 2.16 < X < 46.17 for 5000 nibbles; compute the statistic on
    // the nibbles we actually collected.
    const double n_nibbles = static_cast<double>(window_bits_) / 4.0;
    double sum_sq = 0;
    for (const auto c : nibble_counts_)
      sum_sq += static_cast<double>(c) * static_cast<double>(c);
    const double x = (16.0 / n_nibbles) * sum_sq - n_nibbles;
    if (x < 1.03 || x > 57.4) healthy_ = false;
    window_bits_ = 0;
    ones_ = 0;
    for (auto& c : nibble_counts_) c = 0;
  }
}

void SimTrng::fill(std::span<std::uint8_t> out) {
  std::size_t i = 0;
  while (i < out.size()) {
    std::uint32_t block;
    if (stuck_) {
      block = static_cast<std::uint32_t>(stuck_value_) * 0x01010101u;
    } else {
      block = static_cast<std::uint32_t>(next_raw());
    }
    health_check(block);
    for (int k = 0; k < 4 && i < out.size(); ++k, ++i)
      out[i] = static_cast<std::uint8_t>(block >> (8 * k));
  }
}

// ---- HmacDrbg --------------------------------------------------------------

namespace {

using DrbgBlock = std::array<std::uint8_t, Sha256::kDigestSize>;

// One SP 800-90A update round: K = HMAC(K, V || sep || provided) through
// `keyed`, a context keyed with the current K; then V = HMAC(K, V) under
// the new K. Returns a context keyed with the new K.
HmacSha256 update_round(HmacSha256& keyed, DrbgBlock& key, DrbgBlock& v,
                        std::uint8_t sep, ConstBytes provided) {
  keyed.reset();
  keyed.update(v);
  keyed.update(ConstBytes{&sep, 1});
  keyed.update(provided);
  keyed.finish_into(key.data());
  HmacSha256 next(key);
  next.update(v);
  next.finish_into(v.data());
  return next;
}

}  // namespace

HmacDrbg::HmacDrbg(ConstBytes seed) {
  v_.fill(0x01);
  update(seed);
  reseed_counter_ = 1;
}

HmacDrbg::HmacDrbg(std::uint64_t seed) : HmacDrbg([&] {
  std::array<std::uint8_t, 8> s;
  store_be64(s.data(), seed);
  return s;
}()) {}

void HmacDrbg::update(ConstBytes provided) {
  // K = HMAC(K, V || 0x00 || provided); V = HMAC(K, V); and, when
  // provided is non-empty, a second round with 0x01.
  HmacSha256 keyed(key_);
  HmacSha256 next = update_round(keyed, key_, v_, 0x00, provided);
  if (!provided.empty()) update_round(next, key_, v_, 0x01, provided);
}

void HmacDrbg::reseed(ConstBytes entropy) {
  update(entropy);
  reseed_counter_ = 1;
}

void HmacDrbg::fill(std::span<std::uint8_t> out) {
  // Every V = HMAC(K, V) of this call and the update's K = HMAC(K, V||0x00)
  // use the same K, so one keyed context serves them all.
  HmacSha256 keyed(key_);
  std::size_t off = 0;
  while (off < out.size()) {
    keyed.reset();
    keyed.update(v_);
    keyed.finish_into(v_.data());
    const std::size_t take = std::min(v_.size(), out.size() - off);
    std::copy_n(v_.begin(), take,
                out.begin() + static_cast<std::ptrdiff_t>(off));
    off += take;
  }
  update_round(keyed, key_, v_, 0x00, {});
  ++reseed_counter_;
}

}  // namespace mapsec::crypto
