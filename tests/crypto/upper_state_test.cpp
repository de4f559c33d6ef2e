// Every dispatched vector kernel must return with the upper halves of the
// YMM registers clean. A function that leaves them dirty makes later
// SSE-encoded code pay the AVX-SSE transition penalty until something
// clears the state, which slows unrelated code that runs after it. The
// check reads XINUSE (XGETBV with ECX=1): bit 2 is set while the AVX
// upper state is in use. Each kernel is called straight from its table,
// not through the dispatcher, so a kernel the dispatcher would not pick
// on this CPU (the AVX2 SHA tier on a SHA-NI host) is still checked. No
// timing is measured.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "kernels.hpp"
#include "mapsec/crypto/dispatch.hpp"
#include "mapsec/crypto/rng.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#define MAPSEC_UPPER_STATE_X86 1
#endif

namespace mapsec::crypto::dispatch {
namespace {

#ifdef MAPSEC_UPPER_STATE_X86

// XGETBV(1) exists when CPUID.(EAX=0DH,ECX=1):EAX[2] is set; bit 2 of the
// result only means something when the OS has enabled AVX state.
bool xinuse_readable() {
  if (!cpu_features().avx) return false;
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid_count(0xD, 1, &eax, &ebx, &ecx, &edx)) return false;
  return (eax >> 2) & 1;
}

bool upper_ymm_in_use() {
  unsigned lo = 0, hi = 0;
  asm volatile(".byte 0x0f, 0x01, 0xd0"  // xgetbv
               : "=a"(lo), "=d"(hi)
               : "c"(1)
               : "memory");
  return (lo >> 2) & 1;
}

void clear_upper_ymm() { asm volatile("vzeroupper" ::: "memory"); }

void dirty_upper_ymm() {
  asm volatile("vpcmpeqd %%ymm0, %%ymm0, %%ymm0" ::: "xmm0", "memory");
}

class UpperYmmStateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!xinuse_readable()) GTEST_SKIP() << "XINUSE not readable";
    // The probe must see both states, or a pass would mean nothing.
    dirty_upper_ymm();
    if (!upper_ymm_in_use())
      GTEST_SKIP() << "XINUSE does not report a dirty upper state";
    clear_upper_ymm();
    if (upper_ymm_in_use())
      GTEST_SKIP() << "XINUSE reports the upper state in use after "
                      "vzeroupper";
  }

  /// Run `call` from a clean upper state; true if it left the state dirty.
  template <typename F>
  static bool leaves_upper_dirty(F&& call) {
    clear_upper_ymm();
    call();
    return upper_ymm_in_use();
  }

  HmacDrbg rng_{0x7A11};
};

TEST_F(UpperYmmStateTest, AesNi) {
  const auto& f = cpu_features();
  if (!kHaveAesNi || !f.aesni || !f.ssse3 || !f.sse41)
    GTEST_SKIP() << "no AES-NI";
  const Aes aes(rng_.bytes(16));
  const AesSchedule enc = enc_schedule(aes);
  const AesSchedule dec = dec_schedule(aes);
  std::vector<std::uint8_t> data = rng_.bytes(16 * 37 + 5);
  std::uint8_t block[16] = {};
  std::uint8_t counter[16] = {};
  EXPECT_FALSE(leaves_upper_dirty(
      [&] { kAesNi.encrypt_block(enc, data.data(), block); }));
  EXPECT_FALSE(leaves_upper_dirty(
      [&] { kAesNi.decrypt_block(dec, data.data(), block); }));
  EXPECT_FALSE(leaves_upper_dirty(
      [&] { kAesNi.ctr_xor(enc, counter, data.data(), data.size()); }));
  EXPECT_FALSE(leaves_upper_dirty(
      [&] { kAesNi.cbc_mac(enc, block, data.data(), data.size() / 16); }));
  EXPECT_FALSE(leaves_upper_dirty([&] {
    kAesNi.cbc_decrypt(dec, counter, data.data(), data.size() / 16);
  }));
}

TEST_F(UpperYmmStateTest, ShaNi) {
  const auto& f = cpu_features();
  if (!kHaveShaNi || !f.sha_ni || !f.ssse3 || !f.sse41)
    GTEST_SKIP() << "no SHA-NI";
  const std::vector<std::uint8_t> blocks = rng_.bytes(64 * 9);
  std::uint32_t s1[5] = {};
  std::uint32_t s256[8] = {};
  EXPECT_FALSE(leaves_upper_dirty([&] { kSha1ShaNi(s1, blocks.data(), 9); }));
  EXPECT_FALSE(
      leaves_upper_dirty([&] { kSha256ShaNi(s256, blocks.data(), 9); }));
}

TEST_F(UpperYmmStateTest, ShaAvx2) {
  if (!kHaveShaAvx2 || !cpu_features().avx2) GTEST_SKIP() << "no AVX2";
  const std::vector<std::uint8_t> blocks = rng_.bytes(64 * 9);
  std::uint32_t s1[5] = {};
  std::uint32_t s256[8] = {};
  EXPECT_FALSE(leaves_upper_dirty([&] { kSha1Avx2(s1, blocks.data(), 9); }));
  EXPECT_FALSE(
      leaves_upper_dirty([&] { kSha256Avx2(s256, blocks.data(), 9); }));
}

TEST_F(UpperYmmStateTest, PclmulCrc32) {
  const auto& f = cpu_features();
  if (!kHavePclmul || !f.pclmul || !f.sse41) GTEST_SKIP() << "no PCLMUL";
  const std::vector<std::uint8_t> data = rng_.bytes(1000);
  std::uint32_t crc = 0;
  EXPECT_FALSE(leaves_upper_dirty(
      [&] { crc = kCrc32Pclmul(~0u, data.data(), data.size()); }));
}

TEST_F(UpperYmmStateTest, AdxMontgomery) {
  const auto& f = cpu_features();
  if (!kHaveMontAdx || !f.bmi2 || !f.adx) GTEST_SKIP() << "no BMI2/ADX";
  for (const std::size_t kw : {4u, 8u, 16u, 32u}) {
    const MontCiosFn kernel = mont_cios_adx(kw);
    ASSERT_NE(kernel, nullptr) << kw;
    std::vector<std::uint64_t> a(kw, 3), b(kw, 5), n(kw, ~0ull), t(kw + 2);
    EXPECT_FALSE(leaves_upper_dirty([&] {
      kernel(a.data(), b.data(), n.data(), 1, t.data(), kw);
    })) << "limbs " << kw;
  }
}

#else

TEST(UpperYmmStateTest, NotX86) { GTEST_SKIP() << "x86 only"; }

#endif

}  // namespace
}  // namespace mapsec::crypto::dispatch
