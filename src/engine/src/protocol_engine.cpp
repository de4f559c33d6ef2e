#include "mapsec/engine/protocol_engine.hpp"

#include <array>
#include <stdexcept>

#include "mapsec/crypto/ccm.hpp"
#include "mapsec/crypto/hmac.hpp"

namespace mapsec::engine {

std::string opcode_name(OpCode op) {
  switch (op) {
    case OpCode::kCheckMinLength: return "CHECK_MIN_LENGTH";
    case OpCode::kParseHeader: return "PARSE_HEADER";
    case OpCode::kCheckSpi: return "CHECK_SPI";
    case OpCode::kCheckReplay: return "CHECK_REPLAY";
    case OpCode::kVerifyMac: return "VERIFY_MAC";
    case OpCode::kComputeMac: return "COMPUTE_MAC";
    case OpCode::kDecryptCbc: return "DECRYPT_CBC";
    case OpCode::kEncryptCbc: return "ENCRYPT_CBC";
    case OpCode::kSealCcm: return "SEAL_CCM";
    case OpCode::kOpenCcm: return "OPEN_CCM";
    case OpCode::kAccept: return "ACCEPT";
    case OpCode::kDrop: return "DROP";
  }
  return "?";
}

EngineProfile EngineProfile::software_baseline() {
  EngineProfile p;
  // An embedded core interpreting the same semantics: tens of cycles per
  // byte for ciphers (3DES-class), several for MAC, and per-instruction
  // dispatch overhead.
  p.cycles_per_instruction = 40;
  p.parse_cycles_per_byte = 2.0;
  p.cipher_cycles_per_byte = 110.0;
  p.mac_cycles_per_byte = 21.0;
  p.clock_mhz = 200.0;
  return p;
}

ProtocolEngine::ProtocolEngine(EngineProfile profile, crypto::Rng* rng)
    : profile_(profile), rng_(rng) {
  if (rng_ == nullptr)
    throw std::invalid_argument("ProtocolEngine: rng required");
}

void ProtocolEngine::load_program(const std::string& name, Program program) {
  programs_[name] = std::move(program);
}

namespace {

std::uint32_t read_be32(const crypto::Bytes& b, std::size_t off) {
  return (std::uint32_t{b[off]} << 24) | (std::uint32_t{b[off + 1]} << 16) |
         (std::uint32_t{b[off + 2]} << 8) | b[off + 3];
}

// Per-SA cached cipher/MAC contexts: the key schedule and the HMAC
// ipad/opad absorption run once per key, not once per packet. The cache
// keys on the actual key material so rekeying an SA in place works.
const crypto::BlockCipher& sa_cipher(const EngineSa& sa) {
  if (!sa.rt_cipher || sa.rt_cipher_kind != sa.cipher ||
      sa.rt_cipher_key != sa.enc_key) {
    sa.rt_cipher = protocol::make_suite_cipher(sa.cipher, sa.enc_key);
    sa.rt_cipher_kind = sa.cipher;
    sa.rt_cipher_key = sa.enc_key;
  }
  return *sa.rt_cipher;
}

const crypto::HmacSha1& sa_mac(const EngineSa& sa) {
  if (!sa.rt_mac || sa.rt_mac_key != sa.mac_key) {
    sa.rt_mac = std::make_shared<const crypto::HmacSha1>(sa.mac_key);
    sa.rt_mac_key = sa.mac_key;
  }
  return *sa.rt_mac;
}

bool replay_check_and_update(EngineSa& sa, std::uint32_t seq) {
  if (seq == 0) return false;
  if (seq > sa.highest_seq) {
    const std::uint32_t shift = seq - sa.highest_seq;
    sa.window = shift >= 64 ? 0 : sa.window << shift;
    sa.window |= 1;
    sa.highest_seq = seq;
    return true;
  }
  const std::uint32_t offset = sa.highest_seq - seq;
  if (offset >= 64) return false;
  const std::uint64_t bit = 1ull << offset;
  if (sa.window & bit) return false;
  sa.window |= bit;
  return true;
}

}  // namespace

ProtocolEngine::Result ProtocolEngine::run(const std::string& program_name,
                                           EngineSa& sa,
                                           crypto::ConstBytes packet) {
  return run(program_name, sa, packet, *rng_);
}

ProtocolEngine::Result ProtocolEngine::run(const std::string& program_name,
                                           EngineSa& sa,
                                           crypto::ConstBytes packet,
                                           crypto::Rng& rng) const {
  const auto prog = programs_.find(program_name);
  if (prog == programs_.end())
    throw std::invalid_argument("ProtocolEngine: unknown program " +
                                program_name);

  Result r;
  crypto::Bytes header;
  crypto::Bytes payload(packet.begin(), packet.end());

  const auto drop = [&](const std::string& why) {
    r.accepted = false;
    r.drop_reason = why;
    return r;
  };

  for (const Instruction& ins : prog->second) {
    r.cycles += profile_.cycles_per_instruction;
    switch (ins.op) {
      case OpCode::kCheckMinLength:
        if (header.size() + payload.size() < ins.operand)
          return drop("short packet");
        break;

      case OpCode::kParseHeader: {
        if (payload.size() < ins.operand) return drop("truncated header");
        r.cycles += profile_.parse_cycles_per_byte * ins.operand;
        header.assign(payload.begin(),
                      payload.begin() + static_cast<std::ptrdiff_t>(ins.operand));
        payload.erase(payload.begin(),
                      payload.begin() + static_cast<std::ptrdiff_t>(ins.operand));
        break;
      }

      case OpCode::kCheckSpi:
        if (header.size() < ins.operand + 4) return drop("no SPI field");
        if (read_be32(header, ins.operand) != sa.spi)
          return drop("SPI mismatch");
        break;

      case OpCode::kCheckReplay:
        if (header.size() < ins.operand + 4) return drop("no seq field");
        if (!replay_check_and_update(sa, read_be32(header, ins.operand)))
          return drop("replay");
        break;

      case OpCode::kVerifyMac: {
        const std::size_t tag_len = ins.operand;
        if (payload.size() < tag_len) return drop("short for MAC");
        const std::size_t body = payload.size() - tag_len;
        r.cycles += profile_.mac_cycles_per_byte *
                    static_cast<double>(header.size() + body);
        crypto::HmacSha1 h = sa_mac(sa);  // copy of the keyed state
        h.update(header);
        h.update(crypto::ConstBytes{payload.data(), body});
        std::array<std::uint8_t, crypto::HmacSha1::kDigestSize> tag;
        h.finish_into(tag.data());
        if (!crypto::ct_equal(
                crypto::ConstBytes{tag.data(), tag_len},
                crypto::ConstBytes{payload.data() + body, tag_len}))
          return drop("MAC failure");
        payload.resize(body);
        break;
      }

      case OpCode::kComputeMac: {
        const std::size_t tag_len = ins.operand;
        r.cycles += profile_.mac_cycles_per_byte *
                    static_cast<double>(header.size() + payload.size());
        crypto::HmacSha1 h = sa_mac(sa);
        h.update(header);
        h.update(payload);
        std::array<std::uint8_t, crypto::HmacSha1::kDigestSize> tag;
        h.finish_into(tag.data());
        payload.insert(payload.end(), tag.data(), tag.data() + tag_len);
        break;
      }

      case OpCode::kDecryptCbc: {
        const auto& cipher = sa_cipher(sa);
        const std::size_t bs = cipher.block_size();
        if (payload.size() < 2 * bs) return drop("short ciphertext");
        r.cycles += profile_.cipher_cycles_per_byte *
                    static_cast<double>(payload.size() - bs);
        std::size_t len = 0;
        try {
          len = crypto::cbc_decrypt_in_place(
              cipher, crypto::ConstBytes{payload.data(), bs},
              std::span{payload.data() + bs, payload.size() - bs});
        } catch (const std::runtime_error&) {
          return drop("bad padding");
        }
        payload.erase(payload.begin(),
                      payload.begin() + static_cast<std::ptrdiff_t>(bs));
        payload.resize(len);
        break;
      }

      case OpCode::kEncryptCbc: {
        const auto& cipher = sa_cipher(sa);
        const std::size_t bs = cipher.block_size();
        r.cycles += profile_.cipher_cycles_per_byte *
                    static_cast<double>(payload.size() + bs);
        crypto::Bytes out(bs + crypto::cbc_padded_len(payload.size(), bs));
        rng.fill(std::span{out.data(), bs});
        crypto::cbc_encrypt_into(cipher, crypto::ConstBytes{out.data(), bs},
                                 payload,
                                 std::span{out.data() + bs, out.size() - bs});
        payload = std::move(out);
        break;
      }

      case OpCode::kSealCcm: {
        const auto& cipher = sa_cipher(sa);
        if (cipher.block_size() != 16) return drop("CCM needs AES");
        // CTR pass plus CBC-MAC pass, both through the cipher unit.
        r.cycles += 2 * profile_.cipher_cycles_per_byte *
                    static_cast<double>(payload.size() + header.size());
        crypto::Bytes out(crypto::kCcmNonceLen);
        rng.fill(out);
        crypto::Bytes sealed = crypto::ccm_seal(
            cipher, out, header, payload, ins.operand);
        out.insert(out.end(), sealed.begin(), sealed.end());
        payload = std::move(out);
        break;
      }

      case OpCode::kOpenCcm: {
        const auto& cipher = sa_cipher(sa);
        if (cipher.block_size() != 16) return drop("CCM needs AES");
        if (payload.size() < crypto::kCcmNonceLen + ins.operand)
          return drop("short for CCM");
        r.cycles += 2 * profile_.cipher_cycles_per_byte *
                    static_cast<double>(payload.size() + header.size());
        const crypto::ConstBytes view(payload);
        auto opened = crypto::ccm_open(
            cipher, view.subspan(0, crypto::kCcmNonceLen), header,
            view.subspan(crypto::kCcmNonceLen), ins.operand);
        if (!opened) return drop("CCM auth failure");
        payload = std::move(*opened);
        break;
      }

      case OpCode::kAccept:
        r.accepted = true;
        r.header = std::move(header);
        r.payload = std::move(payload);
        return r;

      case OpCode::kDrop:
        return drop("program drop");
    }
  }
  return drop("program fell off the end");
}

double ProtocolEngine::throughput_mbps(const std::string& program_name,
                                       EngineSa& sa,
                                       crypto::ConstBytes sample_packet) {
  EngineSa scratch = sa;  // do not disturb live replay state
  const Result r = run(program_name, scratch, sample_packet);
  if (r.cycles <= 0) return 0;
  const double packets_per_s = profile_.clock_mhz * 1e6 / r.cycles;
  return packets_per_s * static_cast<double>(sample_packet.size()) * 8.0 /
         1e6;
}

Program esp_inbound_program() {
  // spi(4) | seq(4) | iv | ciphertext | icv(12), as protocol::EspSender
  // emits.
  return {
      {OpCode::kCheckMinLength, 8 + 8 + 8 + 12},
      {OpCode::kParseHeader, 8},
      {OpCode::kCheckSpi, 0},
      {OpCode::kVerifyMac, 12},
      {OpCode::kCheckReplay, 4},
      {OpCode::kDecryptCbc, 0},
      {OpCode::kAccept, 0},
  };
}

Program esp_outbound_program() {
  return {
      {OpCode::kParseHeader, 8},  // caller pre-builds spi|seq header
      {OpCode::kEncryptCbc, 0},
      {OpCode::kComputeMac, 12},
      {OpCode::kAccept, 0},
  };
}

Program ccmp_inbound_program() {
  // spi(4) | seq(4) | nonce(13) | ciphertext+tag(8). The header doubles
  // as the AAD; replay state only advances once the tag has verified.
  return {
      {OpCode::kCheckMinLength, 8 + 13 + 8},
      {OpCode::kParseHeader, 8},
      {OpCode::kCheckSpi, 0},
      {OpCode::kOpenCcm, 8},
      {OpCode::kCheckReplay, 4},
      {OpCode::kAccept, 0},
  };
}

Program ccmp_outbound_program() {
  return {
      {OpCode::kParseHeader, 8},  // caller pre-builds spi|seq header
      {OpCode::kSealCcm, 8},
      {OpCode::kAccept, 0},
  };
}

Program wep_inbound_like_program() {
  // A WEP-shaped program: 4-byte header (IV|keyid), no replay protection
  // (WEP has none), "ICV" as a keyed 4-byte tag. Expressing it in the
  // same ISA is the flexibility point; the engine's MAC unit is keyed, so
  // this variant is not CRC-forgeable like real WEP.
  return {
      {OpCode::kParseHeader, 4},
      {OpCode::kVerifyMac, 4},
      {OpCode::kDecryptCbc, 0},
      {OpCode::kAccept, 0},
  };
}

}  // namespace mapsec::engine
