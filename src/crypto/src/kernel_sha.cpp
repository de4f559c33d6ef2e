// SHA-NI backend: the Goldmont/Ice Lake SHA extensions execute four SHA-1
// or SHA-256 rounds per instruction, turning the ~2500-instruction scalar
// compression into a few dozen. Multi-block entry points keep the state in
// registers across an entire update() span.
//
// Compiled with -mssse3 -msse4.1 -msha (SSE encodings, no AVX requirement);
// dispatch.cpp gates selection on the CPUID sha/ssse3/sse41 bits.
#include "kernels.hpp"

#if defined(__SHA__) && defined(__SSSE3__) && defined(__SSE4_1__)

#include <immintrin.h>

namespace mapsec::crypto::dispatch {

namespace {

alignas(16) constexpr std::uint32_t kK256[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

void sha256_ni(std::uint32_t state[8], const std::uint8_t* data,
               std::size_t nblocks) {
  // Byte-swap mask turning each big-endian message word little-endian.
  const __m128i MASK =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);

  // Repack (a,b,c,d | e,f,g,h) into the (ABEF | CDGH) lane order the
  // sha256rnds2 instruction works in.
  __m128i TMP =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i STATE1 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  TMP = _mm_shuffle_epi32(TMP, 0xB1);        // CDAB
  STATE1 = _mm_shuffle_epi32(STATE1, 0x1B);  // EFGH
  __m128i STATE0 = _mm_alignr_epi8(TMP, STATE1, 8);    // ABEF
  STATE1 = _mm_blend_epi16(STATE1, TMP, 0xF0);         // CDGH

  while (nblocks--) {
    const __m128i ABEF_SAVE = STATE0;
    const __m128i CDGH_SAVE = STATE1;

    __m128i MSGS[4];
    for (int g = 0; g < 4; ++g) {
      MSGS[g] = _mm_shuffle_epi8(
          _mm_loadu_si128(
              reinterpret_cast<const __m128i*>(data + 16 * g)),
          MASK);
    }

    // Groups 0-2: rounds on the loaded words; the schedule recurrence
    // (alignr + msg1/msg2) starts once four chunks are in flight.
    __m128i MSG = _mm_add_epi32(
        MSGS[0],
        _mm_load_si128(reinterpret_cast<const __m128i*>(&kK256[0])));
    STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
    MSG = _mm_shuffle_epi32(MSG, 0x0E);
    STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);

    MSG = _mm_add_epi32(
        MSGS[1],
        _mm_load_si128(reinterpret_cast<const __m128i*>(&kK256[4])));
    STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
    MSG = _mm_shuffle_epi32(MSG, 0x0E);
    STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);
    MSGS[0] = _mm_sha256msg1_epu32(MSGS[0], MSGS[1]);

    MSG = _mm_add_epi32(
        MSGS[2],
        _mm_load_si128(reinterpret_cast<const __m128i*>(&kK256[8])));
    STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
    MSG = _mm_shuffle_epi32(MSG, 0x0E);
    STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);
    MSGS[1] = _mm_sha256msg1_epu32(MSGS[1], MSGS[2]);

    // Groups 3-15: full pattern. At group g the current chunk X=MSGS[g&3]
    // feeds the rounds while W[4(g+1)..] is produced into MSGS[(g+1)&3]
    // (alignr gathers the W[t-7] words) and msg1 pre-chews MSGS[(g+3)&3].
    // Unrolled explicitly so MSGS stays in registers and the g bounds fold
    // away at -O2 as well as -O3.
#pragma GCC unroll 13
    for (int g = 3; g < 16; ++g) {
      const __m128i X = MSGS[g & 3];
      MSG = _mm_add_epi32(
          X, _mm_load_si128(
                 reinterpret_cast<const __m128i*>(&kK256[4 * g])));
      STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
      if (g <= 14) {
        const __m128i T = _mm_alignr_epi8(X, MSGS[(g + 3) & 3], 4);
        MSGS[(g + 1) & 3] = _mm_add_epi32(MSGS[(g + 1) & 3], T);
        MSGS[(g + 1) & 3] = _mm_sha256msg2_epu32(MSGS[(g + 1) & 3], X);
      }
      MSG = _mm_shuffle_epi32(MSG, 0x0E);
      STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);
      if (g <= 12)
        MSGS[(g + 3) & 3] = _mm_sha256msg1_epu32(MSGS[(g + 3) & 3], X);
    }

    STATE0 = _mm_add_epi32(STATE0, ABEF_SAVE);
    STATE1 = _mm_add_epi32(STATE1, CDGH_SAVE);
    data += 64;
  }

  TMP = _mm_shuffle_epi32(STATE0, 0x1B);     // FEBA
  STATE1 = _mm_shuffle_epi32(STATE1, 0xB1);  // DCHG
  STATE0 = _mm_blend_epi16(TMP, STATE1, 0xF0);  // DCBA
  STATE1 = _mm_alignr_epi8(STATE1, TMP, 8);     // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), STATE0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), STATE1);
}

// sha1rnds4 takes its round-function selector as an immediate, so the
// loop's g/5 has to be materialized through a switch. sha1_ni unrolls its
// group loop explicitly, which folds the switch to one instruction per
// group; GCC leaves the loop rolled on its own at -O2 and -O3 alike.
inline __m128i sha1_rnds4(__m128i abcd, __m128i e, int func) {
  switch (func) {
    case 0: return _mm_sha1rnds4_epu32(abcd, e, 0);
    case 1: return _mm_sha1rnds4_epu32(abcd, e, 1);
    case 2: return _mm_sha1rnds4_epu32(abcd, e, 2);
    default: return _mm_sha1rnds4_epu32(abcd, e, 3);
  }
}

void sha1_ni(std::uint32_t state[5], const std::uint8_t* data,
             std::size_t nblocks) {
  const __m128i MASK =
      _mm_set_epi64x(0x0001020304050607LL, 0x08090a0b0c0d0e0fLL);

  __m128i ABCD =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  ABCD = _mm_shuffle_epi32(ABCD, 0x1B);
  __m128i E0 = _mm_set_epi32(static_cast<int>(state[4]), 0, 0, 0);
  __m128i E1 = _mm_setzero_si128();

  while (nblocks--) {
    const __m128i ABCD_SAVE = ABCD;
    const __m128i E0_SAVE = E0;

    __m128i MSGS[4];
    for (int g = 0; g < 4; ++g) {
      MSGS[g] = _mm_shuffle_epi8(
          _mm_loadu_si128(
              reinterpret_cast<const __m128i*>(data + 16 * g)),
          MASK);
    }

    // Group 0 seeds E directly; groups 1-19 thread it through sha1nexte.
    E0 = _mm_add_epi32(E0, MSGS[0]);
    E1 = ABCD;
    ABCD = sha1_rnds4(ABCD, E0, 0);

#pragma GCC unroll 20
    for (int g = 1; g < 20; ++g) {
      const __m128i X = MSGS[g & 3];
      __m128i* const cur = (g & 1) ? &E1 : &E0;
      __m128i* const nxt = (g & 1) ? &E0 : &E1;
      *cur = _mm_sha1nexte_epu32(*cur, X);
      *nxt = ABCD;
      if (g >= 3 && g <= 18)
        MSGS[(g + 1) & 3] = _mm_sha1msg2_epu32(MSGS[(g + 1) & 3], X);
      ABCD = sha1_rnds4(ABCD, *cur, g / 5);
      if (g <= 16)
        MSGS[(g + 3) & 3] = _mm_sha1msg1_epu32(MSGS[(g + 3) & 3], X);
      if (g >= 2 && g <= 17)
        MSGS[(g + 2) & 3] = _mm_xor_si128(MSGS[(g + 2) & 3], X);
    }

    // g=19 left the pre-round ABCD in E0 (nxt of the odd g=19); combine.
    E0 = _mm_sha1nexte_epu32(E0, E0_SAVE);
    ABCD = _mm_add_epi32(ABCD, ABCD_SAVE);
    data += 64;
  }

  ABCD = _mm_shuffle_epi32(ABCD, 0x1B);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), ABCD);
  state[4] = static_cast<std::uint32_t>(_mm_extract_epi32(E0, 3));
}

}  // namespace

const Sha1CompressFn kSha1ShaNi = sha1_ni;
const Sha256CompressFn kSha256ShaNi = sha256_ni;
const bool kHaveShaNi = true;

}  // namespace mapsec::crypto::dispatch

#else

namespace mapsec::crypto::dispatch {
const Sha1CompressFn kSha1ShaNi = nullptr;
const Sha256CompressFn kSha256ShaNi = nullptr;
const bool kHaveShaNi = false;
}  // namespace mapsec::crypto::dispatch

#endif
