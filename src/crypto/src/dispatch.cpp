#include "mapsec/crypto/dispatch.hpp"

#include <atomic>
#include <cstdlib>

#include "kernels.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#define MAPSEC_DISPATCH_X86 1
#endif

namespace mapsec::crypto::dispatch {

namespace {

CpuFeatures probe_cpu() {
  CpuFeatures f;
#ifdef MAPSEC_DISPATCH_X86
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx)) {
    f.sse2 = (edx >> 26) & 1;
    f.ssse3 = (ecx >> 9) & 1;
    f.sse41 = (ecx >> 19) & 1;
    f.aesni = (ecx >> 25) & 1;
    f.pclmul = (ecx >> 1) & 1;
    const bool osxsave = (ecx >> 27) & 1;
    const bool avx_bit = (ecx >> 28) & 1;
    if (osxsave && avx_bit) {
      // AVX is only usable when the OS saves/restores the ymm state:
      // XCR0 must have both the SSE (bit 1) and AVX (bit 2) bits set.
      unsigned xlo, xhi;
      asm volatile(".byte 0x0f, 0x01, 0xd0"  // xgetbv
                   : "=a"(xlo), "=d"(xhi)
                   : "c"(0));
      f.avx = (xlo & 0x6) == 0x6;
    }
  }
  eax = ebx = ecx = edx = 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) {
    f.avx2 = f.avx && ((ebx >> 5) & 1);
    f.bmi2 = (ebx >> 8) & 1;
    f.adx = (ebx >> 19) & 1;
    f.sha_ni = (ebx >> 29) & 1;
  }
#endif
  return f;
}

// -1 = unresolved (consult the environment on first query), 0 = auto,
// 1 = scalar pinned. A plain relaxed atomic: dispatch correctness never
// depends on ordering with other memory, only on each call seeing some
// consistent value.
std::atomic<int> g_force{-1};

}  // namespace

const CpuFeatures& cpu_features() {
  static const CpuFeatures f = probe_cpu();
  return f;
}

bool scalar_forced() {
  int v = g_force.load(std::memory_order_relaxed);
  if (v < 0) {
    const char* env = std::getenv("MAPSEC_FORCE_SCALAR");
    const int resolved =
        (env != nullptr && env[0] != '\0' && env[0] != '0') ? 1 : 0;
    // If a concurrent force_scalar() call resolved it first, keep that.
    g_force.compare_exchange_strong(v, resolved, std::memory_order_relaxed);
    v = g_force.load(std::memory_order_relaxed);
  }
  return v == 1;
}

void force_scalar(bool on) {
  g_force.store(on ? 1 : 0, std::memory_order_relaxed);
}

namespace {

const AesKernels* pick_aes() {
  const CpuFeatures& f = cpu_features();
  if (kHaveAesNi && f.aesni && f.ssse3 && f.sse41) return &kAesNi;
  return &kAesScalar;
}

struct ShaPick {
  Sha1CompressFn sha1;
  Sha256CompressFn sha256;
  const char* name;
};

ShaPick pick_sha() {
  const CpuFeatures& f = cpu_features();
  if (kHaveShaNi && f.sha_ni && f.ssse3 && f.sse41)
    return {kSha1ShaNi, kSha256ShaNi, "sha-ni"};
  if (kHaveShaAvx2 && f.avx2) return {kSha1Avx2, kSha256Avx2, "avx2"};
  return {sha1_compress_scalar, sha256_compress_scalar, "scalar"};
}

struct CrcPick {
  Crc32Fn fn;
  const char* name;
};

CrcPick pick_crc() {
  const CpuFeatures& f = cpu_features();
  if (kHavePclmul && f.pclmul && f.sse41) return {kCrc32Pclmul, "pclmul"};
  return {crc32_raw, "scalar"};
}

// The CPU never changes under us, so the auto picks are computed once;
// only the force-scalar branch is re-evaluated per call.
const AesKernels& auto_aes() {
  static const AesKernels* k = pick_aes();
  return *k;
}
const ShaPick& auto_sha() {
  static const ShaPick p = pick_sha();
  return p;
}
const CrcPick& auto_crc() {
  static const CrcPick p = pick_crc();
  return p;
}
bool auto_mont_adx() {
  static const bool adx =
      kHaveMontAdx && cpu_features().bmi2 && cpu_features().adx;
  return adx;
}
}  // namespace

const AesKernels& aes_kernels() {
  if (scalar_forced()) return kAesScalar;
  return auto_aes();
}

Sha1CompressFn sha1_compress() {
  if (scalar_forced()) return sha1_compress_scalar;
  return auto_sha().sha1;
}

Sha256CompressFn sha256_compress() {
  if (scalar_forced()) return sha256_compress_scalar;
  return auto_sha().sha256;
}

Crc32Fn crc32_kernel() {
  if (scalar_forced()) return crc32_raw;
  return auto_crc().fn;
}

MontCiosFn mont_cios_w64(std::size_t kw) {
  if (!scalar_forced() && auto_mont_adx()) {
    if (const MontCiosFn k = mont_cios_adx(kw)) return k;
  }
  return mont_cios_w64_scalar;
}

Capabilities capabilities() {
  Capabilities c;
  c.features = cpu_features();
  c.forced_scalar = scalar_forced();
  const bool forced = c.forced_scalar;

  const char* aes_name = forced ? kAesScalar.name : auto_aes().name;
  c.primitives.push_back(
      {"aes", aes_name, std::string(aes_name) != "scalar"});
  const char* sha_name = forced ? "scalar" : auto_sha().name;
  c.primitives.push_back(
      {"sha1", sha_name, std::string(sha_name) != "scalar"});
  c.primitives.push_back(
      {"sha256", sha_name, std::string(sha_name) != "scalar"});
  const char* crc_name = forced ? "scalar" : auto_crc().name;
  c.primitives.push_back(
      {"crc32", crc_name, std::string(crc_name) != "scalar"});
  const char* mont_name = !forced && auto_mont_adx() ? "bmi2" : "scalar";
  c.primitives.push_back(
      {"modexp-cios", mont_name, std::string(mont_name) != "scalar"});
  return c;
}

std::string capabilities_summary() {
  const Capabilities c = capabilities();
  std::string out;
  for (const auto& p : c.primitives) {
    if (!out.empty()) out += ' ';
    out += p.primitive;
    out += '=';
    out += p.backend;
  }
  out += c.forced_scalar ? " (forced_scalar=on)" : " (forced_scalar=off)";
  return out;
}

}  // namespace mapsec::crypto::dispatch
