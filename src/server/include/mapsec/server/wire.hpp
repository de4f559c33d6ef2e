// Session-layer message framing shared by SecureSessionServer and
// SessionClient.
//
// Each ReliableLink message is `kind(1) | body`. Handshake flights and
// client application data ride the TLS record layer; the server's echo
// path returns data over the CCM bulk lane — the record-protection path
// that runs through the PacketPipeline (kParseHeader/kSealCcm programs),
// bit-deterministic from the pipeline's per-SA nonce streams.
#pragma once

#include <cstdint>

#include "mapsec/crypto/bytes.hpp"
#include "mapsec/engine/protocol_engine.hpp"

namespace mapsec::server {

enum class MsgKind : std::uint8_t {
  kHandshake = 0x10,  // TLS handshake flight (records, possibly several)
  kAppData = 0x11,    // TLS application-data record(s), client -> server
  kBulk = 0x12,       // spi|seq header + CCM-sealed payload, server -> client
  kClose = 0x13,      // client requests graceful close
  kCloseAck = 0x14,   // server confirms close
  kRefused = 0x15,    // admission control shed the connection, server -> client
};

/// Prepend the kind byte.
crypto::Bytes make_msg(MsgKind kind, crypto::ConstBytes body);

/// Key material for the bulk lane, derived by both sides from the
/// negotiated master secret: PRF(master, "mapsec bulk keys", session_id)
/// -> AES-128 key (16) || HMAC key (20). Tied to the session, so a
/// resumed session re-derives the same keys but runs a fresh replay
/// window and a fresh (per-SA-seeded) nonce stream.
struct BulkKeys {
  crypto::Bytes enc_key;  // 16 bytes, AES-128
  crypto::Bytes mac_key;  // 20 bytes
};

BulkKeys derive_bulk_keys(crypto::ConstBytes master_secret,
                          crypto::ConstBytes session_id);

/// Engine SA for the bulk lane (AES-CCM, ccmp-* programs).
engine::EngineSa make_bulk_sa(std::uint32_t spi, const BulkKeys& keys);

/// spi(4) | seq(4), the header/AAD of ccmp_*_program packets.
crypto::Bytes bulk_header(std::uint32_t spi, std::uint32_t seq);

}  // namespace mapsec::server
