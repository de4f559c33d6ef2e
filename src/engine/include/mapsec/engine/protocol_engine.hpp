// A programmable security protocol engine, modelled on MOSES (the
// wireless security processing platform of the paper's references
// [66-68], discussed in Section 4.2.3).
//
// The argument being reproduced: cryptographic accelerators speed up the
// ciphers but leave per-packet *protocol* processing (header parsing, SA
// lookup, replay windows, padding) on the host CPU; a protocol engine
// absorbs the whole packet path, and a *programmable* one keeps the
// flexibility that Section 3.1 demands — a new protocol is a new program,
// not new silicon.
//
// The engine here is a small packet VM:
//   * a security-protocol instruction set (parse, SPI check, anti-replay,
//     MAC verify/compute, CBC encrypt/decrypt, accept/drop),
//   * security associations as the register state programs run against,
//   * a per-instruction + per-byte cycle cost model with hardware cipher
//     and MAC units (this is what makes it an *engine* rather than an
//     interpreter).
//
// tests/engine_test.cpp shows an ESP-inbound program matching the
// hand-written protocol::EspReceiver semantics decision-for-decision, and
// a WEP program and a CCMP-like program running on the same engine — the
// flexibility claim, executed.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mapsec/crypto/hmac.hpp"
#include "mapsec/crypto/rng.hpp"
#include "mapsec/protocol/suites.hpp"

namespace mapsec::engine {

/// The security-protocol instruction set.
enum class OpCode : std::uint8_t {
  kCheckMinLength,  // operand: drop unless packet length >= operand
  kParseHeader,     // operand: split off the first `operand` bytes as header
  kCheckSpi,        // operand: header offset of a be32 SPI; match the SA
  kCheckReplay,     // operand: header offset of a be32 sequence number
  kVerifyMac,       // operand: tag length; HMAC-SHA1 over header||payload
  kComputeMac,      // operand: tag length; appends the tag
  kDecryptCbc,      // payload = IV || ciphertext -> plaintext
  kEncryptCbc,      // payload -> IV || ciphertext (fresh random IV)
  kSealCcm,         // operand: tag length; payload -> nonce || AES-CCM
                    // ciphertext+tag, header as AAD (requires kAes128)
  kOpenCcm,         // operand: tag length; payload = nonce || sealed ->
                    // plaintext, header as AAD; drop on auth failure
  kAccept,          // terminate: packet accepted
  kDrop,            // terminate: packet dropped
};

std::string opcode_name(OpCode op);

struct Instruction {
  OpCode op;
  std::uint32_t operand = 0;
};

/// A protocol program. Executes top to bottom until kAccept/kDrop or a
/// failed check (which drops implicitly).
using Program = std::vector<Instruction>;

/// Register state a program runs against (one per peer/flow).
struct EngineSa {
  std::uint32_t spi = 0;
  protocol::BulkCipher cipher = protocol::BulkCipher::kDes3;
  crypto::Bytes enc_key;
  crypto::Bytes mac_key;
  // Anti-replay window state (64 entries).
  std::uint32_t highest_seq = 0;
  std::uint64_t window = 0;

  // Cached execution resources, built lazily by the engine on first use.
  // Key scheduling and HMAC ipad/opad absorption are per-SA work, not
  // per-packet work; the engine rebuilds these only when the keys change.
  // Copying an SA shares the (immutable-once-built) cache. Like the
  // replay window, these make a live SA single-threaded: process all of
  // one SA's packets on one thread (as each PacketPipeline, and so each
  // server shard, does).
  mutable std::shared_ptr<const crypto::BlockCipher> rt_cipher;
  mutable crypto::Bytes rt_cipher_key;
  mutable protocol::BulkCipher rt_cipher_kind = protocol::BulkCipher::kDes3;
  mutable std::shared_ptr<const crypto::HmacSha1> rt_mac;
  mutable crypto::Bytes rt_mac_key;
};

/// Cycle cost parameters. Defaults model a MOSES-class engine: cheap
/// wide-datapath parsing, hardware cipher/MAC units at a few cycles/byte.
struct EngineProfile {
  double cycles_per_instruction = 4;
  double parse_cycles_per_byte = 0.25;
  double cipher_cycles_per_byte = 2.0;
  double mac_cycles_per_byte = 1.5;
  double clock_mhz = 100.0;

  /// A software baseline on an embedded core, for the Section 4.2.3
  /// comparison: same instruction semantics, every byte through the ALU.
  static EngineProfile software_baseline();
};

class ProtocolEngine {
 public:
  explicit ProtocolEngine(EngineProfile profile, crypto::Rng* rng);

  /// Register a program under a name.
  void load_program(const std::string& name, Program program);

  std::size_t program_count() const { return programs_.size(); }

  struct Result {
    bool accepted = false;
    crypto::Bytes header;     // parsed header (on accept)
    crypto::Bytes payload;    // transformed payload (on accept)
    double cycles = 0;        // simulated execution cost
    std::string drop_reason;  // set when !accepted
  };

  /// Run a program over a packet against an SA. The SA's replay state
  /// advances on successful kCheckReplay.
  Result run(const std::string& program_name, EngineSa& sa,
             crypto::ConstBytes packet);

  /// Same, drawing IVs/nonces from `rng` instead of the engine's own
  /// source. Program lookup is read-only, so concurrent calls are safe as
  /// long as each SA (and each rng) is confined to one thread — the
  /// contract each shard's own PacketPipeline provides.
  Result run(const std::string& program_name, EngineSa& sa,
             crypto::ConstBytes packet, crypto::Rng& rng) const;

  /// Throughput estimate (Mbps) for a program processing `packet_bytes`
  /// packets back to back, from the cost model.
  double throughput_mbps(const std::string& program_name, EngineSa& sa,
                         crypto::ConstBytes sample_packet);

  const EngineProfile& profile() const { return profile_; }

 private:
  EngineProfile profile_;
  crypto::Rng* rng_;
  std::map<std::string, Program> programs_;
};

/// Canonical programs (each also a worked example of the ISA).
Program esp_inbound_program();
Program esp_outbound_program();
Program wep_inbound_like_program();

/// CCMP-shaped programs (802.11i AES-CCM data path): spi|seq header as
/// AAD, AES-CCM sealed payload. The SA must use kAes128. Inbound checks
/// replay only after the tag verifies (forgeries cannot advance the
/// window).
Program ccmp_inbound_program();
Program ccmp_outbound_program();

}  // namespace mapsec::engine
