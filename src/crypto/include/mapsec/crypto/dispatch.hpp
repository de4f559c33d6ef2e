// Runtime-dispatched ISA crypto acceleration (Section 4.2.1's remedy,
// applied to this library itself).
//
// The paper's answer to the wireless security processing gap is
// architectural: instruction-set extensions and crypto accelerators that
// execute cipher kernels orders of magnitude faster than portable code.
// This layer is that argument made executable on the host: at first use
// it probes CPUID and routes each primitive's hot loop to the best
// instruction-set kernel the machine offers —
//
//   AES block / CTR / CBC-MAC / CBC-decrypt  -> AES-NI (4-wide pipelined)
//   SHA-1 / SHA-256 block compression        -> SHA-NI (else AVX2-assisted)
//   CRC-32                                   -> PCLMULQDQ folding
//   Montgomery CIOS inner loop (modexp)      -> BMI2/ADX mulx/adcx/adox
//
// — with the portable scalar implementations remaining as the guaranteed
// fallback on any CPU. Every kernel is bit-identical to its scalar
// counterpart (tests/crypto/dispatch_test.cpp sweeps randomized inputs
// across both backends), so acceleration never changes observable
// protocol behaviour, only its speed.
//
// Setting MAPSEC_FORCE_SCALAR=1 in the environment (or calling
// force_scalar(true)) pins every primitive to the scalar path; ci/check.sh
// runs the full test suite once in that mode so the fallback stays green.
#pragma once

#include <string>
#include <vector>

namespace mapsec::crypto::dispatch {

/// Raw CPUID feature probe (independent of any force-scalar override).
/// All fields are false on non-x86 builds.
struct CpuFeatures {
  bool sse2 = false;
  bool ssse3 = false;
  bool sse41 = false;
  bool aesni = false;
  bool pclmul = false;
  bool avx = false;    // includes the OS XSAVE/ymm-state check
  bool avx2 = false;
  bool bmi2 = false;
  bool adx = false;
  bool sha_ni = false;
};

/// CPUID probe, performed once per process.
const CpuFeatures& cpu_features();

/// True when the scalar fallback is pinned — either MAPSEC_FORCE_SCALAR
/// was set in the environment at first query, or force_scalar(true) was
/// called. Kernels consult this on every dispatch, so toggling it takes
/// effect immediately (the differential tests rely on that).
bool scalar_forced();

/// Programmatic override of the force-scalar state (tests/benches).
void force_scalar(bool on);

/// Which backend serves one primitive right now.
struct PrimitiveBackend {
  std::string primitive;  // e.g. "aes-block", "sha256", "modexp-cios"
  std::string backend;    // e.g. "aesni", "sha-ni", "pclmul", "scalar"
  bool accelerated = false;
};

/// Snapshot of the active dispatch decisions plus the feature probe —
/// the report benches embed in their output and platform::serving_gap's
/// accelerated-appliance pricing is calibrated against.
struct Capabilities {
  CpuFeatures features;
  bool forced_scalar = false;
  std::vector<PrimitiveBackend> primitives;
};

Capabilities capabilities();

/// One-line rendering, e.g.
/// "aes=aesni ctr=aesni-x4 cbc-mac=aesni cbc-dec=aesni-x4 sha1=sha-ni
///  sha256=sha-ni crc32=pclmul modexp=bmi2 (forced_scalar=off)".
std::string capabilities_summary();

}  // namespace mapsec::crypto::dispatch
