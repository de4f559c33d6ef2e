// Random number generation.
//
// Figure 6 of the paper puts a "HW random number generator" at the core of
// the secure base architecture ("the foundation of secure crypto operations
// includes true random number generation"). We model that stack:
//
//   SimTrng   — a simulated hardware entropy source with the FIPS 140-2
//               continuous / monobit / poker health tests a real TRNG block
//               would run on-die.
//   HmacDrbg  — a deterministic SP 800-90A HMAC-DRBG (SHA-256) seeded from
//               the TRNG; this is what applications actually consume.
//
// Everything takes an `Rng&` so tests can inject fixed seeds and get
// reproducible keys, traces and protocol runs.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>

#include "mapsec/crypto/bytes.hpp"

namespace mapsec::crypto {

/// Abstract random source.
class Rng {
 public:
  virtual ~Rng() = default;

  /// Fill `out` with random bytes.
  virtual void fill(std::span<std::uint8_t> out) = 0;

  /// `n` random bytes.
  Bytes bytes(std::size_t n);

  std::uint32_t next_u32();
  std::uint64_t next_u64();

  /// Uniform integer in [0, bound) via rejection sampling. bound > 0.
  std::uint64_t below(std::uint64_t bound);
};

/// Simulated hardware TRNG. Internally a xoshiro256** generator (standing
/// in for ring-oscillator jitter), wrapped with the health tests a real
/// TRNG macro performs; `healthy()` reports whether any test has tripped.
class SimTrng final : public Rng {
 public:
  explicit SimTrng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  void fill(std::span<std::uint8_t> out) override;

  /// FIPS 140-2 continuous test: no 32-bit block may repeat back-to-back.
  /// Monobit/poker statistics are accumulated over a sliding 20000-bit
  /// window. Returns false once any test has ever failed.
  bool healthy() const { return healthy_; }

  /// Inject a stuck-at fault: the source starts emitting a constant,
  /// which the health tests must detect. Models the environmental attacks
  /// of Section 3.4 (fault induction on the entropy source).
  void inject_stuck_fault(std::uint8_t stuck_value);

 private:
  std::uint64_t next_raw();
  void health_check(std::uint32_t block);

  std::uint64_t s_[4];
  bool stuck_ = false;
  std::uint8_t stuck_value_ = 0;
  bool healthy_ = true;
  bool have_prev_ = false;
  std::uint32_t prev_block_ = 0;
  // Sliding-window statistics (reset every kWindowBits).
  std::uint64_t window_bits_ = 0;
  std::uint64_t ones_ = 0;
  std::uint32_t nibble_counts_[16] = {};
};

/// SP 800-90A HMAC-DRBG with SHA-256. Generating performs no heap
/// allocation: K and V live in the object and HMAC writes into them.
class HmacDrbg final : public Rng {
 public:
  /// Instantiate from seed material (entropy || nonce || personalisation).
  explicit HmacDrbg(ConstBytes seed);

  /// Convenience: seed from a 64-bit value (tests, simulations).
  explicit HmacDrbg(std::uint64_t seed);

  void fill(std::span<std::uint8_t> out) override;

  /// Mix fresh entropy into the state.
  void reseed(ConstBytes entropy);

 private:
  void update(ConstBytes provided);

  std::array<std::uint8_t, 32> key_{};  // K, one SHA-256 output
  std::array<std::uint8_t, 32> v_{};    // V
  std::uint64_t reseed_counter_ = 0;
};

}  // namespace mapsec::crypto
