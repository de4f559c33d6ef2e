// Internal kernel tables behind mapsec::crypto::dispatch (not installed —
// include from src/crypto/src only).
//
// Each primitive has exactly one scalar kernel (defined next to the code
// it was extracted from, so it IS the pre-dispatch implementation) and
// zero or more ISA kernels defined in per-ISA translation units compiled
// with the matching -m flags. A kernel TU that is built without its ISA
// macros (non-x86, or flags unavailable) still defines its symbols but
// reports kHave* = false, so dispatch.cpp links everywhere and simply
// never selects it.
#pragma once

#include <cstddef>
#include <cstdint>

#include "mapsec/crypto/aes.hpp"

namespace mapsec::crypto::dispatch {

// ---------------------------------------------------------------------------
// AES

/// Non-owning view of an expanded AES key schedule. `words` is the
/// big-endian-packed u32 schedule the T-table code reads; `bytes` is the
/// same schedule serialized big-endian (16 bytes per round key), which is
/// precisely the memory layout AES-NI round-key loads expect. For the
/// decryption schedule the inner round keys are already InvMixColumns-
/// transformed (FIPS 197 equivalent inverse cipher) — again exactly what
/// both the Td tables and `aesdec` want.
struct AesSchedule {
  const std::uint32_t* words;  // 4 * (rounds + 1) words
  const std::uint8_t* bytes;   // 16 * (rounds + 1) bytes
  int rounds;
};

inline AesSchedule enc_schedule(const Aes& a) {
  return {a.round_keys().data(), a.round_key_bytes(), a.rounds()};
}

inline AesSchedule dec_schedule(const Aes& a) {
  return {a.dec_round_keys().data(), a.dec_round_key_bytes(), a.rounds()};
}

/// One backend's AES entry points. The block functions are never null;
/// the span functions may be (the scalar table leaves them null and the
/// callers keep their original generic loops, so forcing scalar exercises
/// literally the pre-dispatch code).
struct AesKernels {
  const char* name;
  void (*encrypt_block)(const AesSchedule& enc, const std::uint8_t* in,
                        std::uint8_t* out);
  void (*decrypt_block)(const AesSchedule& dec, const std::uint8_t* in,
                        std::uint8_t* out);
  /// CTR keystream XOR over `len` bytes (partial final block allowed);
  /// `counter` is the current 16-byte big-endian counter block, advanced
  /// in place one increment per block consumed.
  void (*ctr_xor)(const AesSchedule& enc, std::uint8_t counter[16],
                  std::uint8_t* data, std::size_t len);
  /// CBC-MAC absorption of `nblocks` whole blocks into `state`.
  void (*cbc_mac)(const AesSchedule& enc, std::uint8_t state[16],
                  const std::uint8_t* data, std::size_t nblocks);
  /// In-place CBC decryption of `nblocks` whole blocks.
  void (*cbc_decrypt)(const AesSchedule& dec, const std::uint8_t iv[16],
                      std::uint8_t* data, std::size_t nblocks);
};

/// The active AES backend. Queried per call (one relaxed atomic load), so
/// force_scalar() toggles take effect immediately even for live ciphers.
const AesKernels& aes_kernels();

// ---------------------------------------------------------------------------
// Hash compression (multi-block: one call amortizes the dispatch and the
// state round-trips across every whole block of an update()).

using Sha1CompressFn = void (*)(std::uint32_t state[5],
                                const std::uint8_t* blocks,
                                std::size_t nblocks);
using Sha256CompressFn = void (*)(std::uint32_t state[8],
                                  const std::uint8_t* blocks,
                                  std::size_t nblocks);

Sha1CompressFn sha1_compress();
Sha256CompressFn sha256_compress();

// ---------------------------------------------------------------------------
// CRC-32 (raw register domain: caller has already applied the ~crc
// pre-inversion; the kernel continues the reflected-table recurrence).

using Crc32Fn = std::uint32_t (*)(std::uint32_t raw, const std::uint8_t* data,
                                  std::size_t len);

Crc32Fn crc32_kernel();

// ---------------------------------------------------------------------------
// Montgomery CIOS inner loop. Computes the pre-conditional-subtraction
// REDC(a*b) into t[0..kw] and zeroes t[kw+1] (t has kw+2 slots); a and b
// are below 2^(64 kw). The caller performs the final data-dependent
// subtraction and the MontStats accounting, so backends cannot diverge in
// either the result or the timing-attack-visible extra-reduction sequence.

using MontCiosFn = void (*)(const std::uint64_t* a, const std::uint64_t* b,
                            const std::uint64_t* n, std::uint64_t n0inv,
                            std::uint64_t* t, std::size_t kw);

/// The kernel for a kw-limb modulus. Montgomery resolves it once per
/// exponentiation, so no multiply pays for the force-scalar check or the
/// choice of width.
MontCiosFn mont_cios_w64(std::size_t kw);

// ---------------------------------------------------------------------------
// Scalar kernels (each defined in the TU owning the original code).

void aes_encrypt_scalar(const AesSchedule& s, const std::uint8_t* in,
                        std::uint8_t* out);
void aes_decrypt_scalar(const AesSchedule& s, const std::uint8_t* in,
                        std::uint8_t* out);
void sha1_compress_scalar(std::uint32_t state[5], const std::uint8_t* blocks,
                          std::size_t nblocks);
void sha256_compress_scalar(std::uint32_t state[8], const std::uint8_t* blocks,
                            std::size_t nblocks);
std::uint32_t crc32_raw(std::uint32_t raw, const std::uint8_t* data,
                        std::size_t len);
void mont_cios_w64_scalar(const std::uint64_t* a, const std::uint64_t* b,
                          const std::uint64_t* n, std::uint64_t n0inv,
                          std::uint64_t* t, std::size_t kw);

// ---------------------------------------------------------------------------
// ISA kernels. Always linked; kHave* says whether the TU was compiled
// with the ISA actually enabled. Selection additionally requires the
// matching CPUID bits at run time.

extern const AesKernels kAesScalar;
extern const AesKernels kAesNi;
extern const bool kHaveAesNi;

extern const Sha1CompressFn kSha1ShaNi;
extern const Sha256CompressFn kSha256ShaNi;
extern const bool kHaveShaNi;

extern const Sha1CompressFn kSha1Avx2;
extern const Sha256CompressFn kSha256Avx2;
extern const bool kHaveShaAvx2;

extern const Crc32Fn kCrc32Pclmul;
extern const bool kHavePclmul;

/// The BMI2/ADX kernel for 4, 8, 16 or 32 limbs; null for other widths.
MontCiosFn mont_cios_adx(std::size_t kw);
extern const bool kHaveMontAdx;

}  // namespace mapsec::crypto::dispatch
