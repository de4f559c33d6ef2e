#include "mapsec/protocol/handshake.hpp"

#include <cassert>
#include <deque>

#include "mapsec/crypto/mont_cache.hpp"
#include "mapsec/crypto/sha1.hpp"
#include "mapsec/protocol/prf.hpp"
#include "mapsec/ticket/ticket.hpp"

namespace mapsec::protocol {

namespace {

enum class MsgType : std::uint8_t {
  kHelloRequest = 0,       // server -> client: please renegotiate
  kClientHello = 1,
  kServerHello = 2,
  kNewSessionTicket = 4,   // server -> client: opaque stateless ticket
  kCertificate = 11,
  kServerKeyExchange = 12,
  kCertificateRequest = 13,
  kServerHelloDone = 14,
  kCertificateVerify = 15,
  kClientKeyExchange = 16,
  kFinished = 20,
};

constexpr std::size_t kRandomLen = 32;
constexpr std::size_t kPremasterLen = 48;
constexpr std::size_t kVerifyDataLen = 12;
constexpr std::size_t kSessionIdLen = 16;

// ---- handshake-message framing ---------------------------------------------

crypto::Bytes frame_message(MsgType type, crypto::ConstBytes body) {
  crypto::Bytes out;
  out.reserve(4 + body.size());
  out.push_back(static_cast<std::uint8_t>(type));
  out.push_back(static_cast<std::uint8_t>(body.size() >> 16));
  out.push_back(static_cast<std::uint8_t>(body.size() >> 8));
  out.push_back(static_cast<std::uint8_t>(body.size()));
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

struct Message {
  MsgType type{};
  crypto::Bytes body;
  crypto::Bytes raw;  // full framed bytes, for the transcript
};

std::vector<Message> parse_messages(crypto::ConstBytes payload) {
  std::vector<Message> out;
  std::size_t off = 0;
  while (off < payload.size()) {
    if (payload.size() - off < 4)
      throw HandshakeError("handshake: truncated message header");
    const auto type = static_cast<MsgType>(payload[off]);
    const std::size_t len = (std::size_t{payload[off + 1]} << 16) |
                            (std::size_t{payload[off + 2]} << 8) |
                            payload[off + 3];
    if (payload.size() - off - 4 < len)
      throw HandshakeError("handshake: truncated message body");
    Message m;
    m.type = type;
    m.body.assign(payload.begin() + static_cast<std::ptrdiff_t>(off + 4),
                  payload.begin() + static_cast<std::ptrdiff_t>(off + 4 + len));
    m.raw.assign(payload.begin() + static_cast<std::ptrdiff_t>(off),
                 payload.begin() + static_cast<std::ptrdiff_t>(off + 4 + len));
    out.push_back(std::move(m));
    off += 4 + len;
  }
  return out;
}

void put_u16(crypto::Bytes& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint16_t get_u16(crypto::ConstBytes b, std::size_t off) {
  return static_cast<std::uint16_t>((b[off] << 8) | b[off + 1]);
}

void put_blob16(crypto::Bytes& out, crypto::ConstBytes blob) {
  if (blob.size() > 0xFFFF) throw HandshakeError("blob too large");
  put_u16(out, static_cast<std::uint16_t>(blob.size()));
  out.insert(out.end(), blob.begin(), blob.end());
}

crypto::Bytes get_blob16(crypto::ConstBytes b, std::size_t& off) {
  if (b.size() < off + 2) throw HandshakeError("truncated blob length");
  const std::size_t len = get_u16(b, off);
  off += 2;
  if (b.size() < off + len) throw HandshakeError("truncated blob");
  crypto::Bytes out(b.begin() + static_cast<std::ptrdiff_t>(off),
                    b.begin() + static_cast<std::ptrdiff_t>(off + len));
  off += len;
  return out;
}

// Certificate-message body: count(1) | { len24 | cert-encoding }*
crypto::Bytes encode_cert_list(const std::vector<Certificate>& chain) {
  crypto::Bytes body;
  body.push_back(static_cast<std::uint8_t>(chain.size()));
  for (const auto& cert : chain) {
    const crypto::Bytes enc = cert.encode();
    body.push_back(static_cast<std::uint8_t>(enc.size() >> 16));
    body.push_back(static_cast<std::uint8_t>(enc.size() >> 8));
    body.push_back(static_cast<std::uint8_t>(enc.size()));
    body.insert(body.end(), enc.begin(), enc.end());
  }
  return body;
}

std::vector<Certificate> decode_cert_list(crypto::ConstBytes body) {
  if (body.empty()) throw HandshakeError("Certificate: empty body");
  std::size_t off = 0;
  const std::size_t count = body[off++];
  std::vector<Certificate> chain;
  for (std::size_t i = 0; i < count; ++i) {
    if (body.size() < off + 3) throw HandshakeError("Certificate: truncated");
    const std::size_t len = (std::size_t{body[off]} << 16) |
                            (std::size_t{body[off + 1]} << 8) | body[off + 2];
    off += 3;
    if (body.size() < off + len)
      throw HandshakeError("Certificate: truncated body");
    auto cert =
        Certificate::decode(crypto::ConstBytes{body.data() + off, len});
    if (!cert) throw HandshakeError("Certificate: undecodable");
    chain.push_back(std::move(*cert));
    off += len;
  }
  if (off != body.size()) throw HandshakeError("Certificate: trailing bytes");
  return chain;
}

// ServerKeyExchange signed-parameter block: the DH params bound to both
// nonces, so they cannot be replayed across sessions.
crypto::Bytes ske_signed_content(crypto::ConstBytes client_random,
                                 crypto::ConstBytes server_random,
                                 const crypto::DhGroup& group,
                                 const crypto::BigInt& server_public) {
  crypto::Bytes out = crypto::cat(client_random, server_random);
  put_blob16(out, group.p.to_bytes_be());
  put_blob16(out, group.g.to_bytes_be());
  put_blob16(out, server_public.to_bytes_be());
  return out;
}

// ---- shared endpoint state ---------------------------------------------------

struct Common {
  explicit Common(HandshakeConfig cfg) : config(std::move(cfg)) {
    if (config.rng == nullptr)
      throw std::invalid_argument("HandshakeConfig: rng is required");
    summary.version = config.version;
  }

  HandshakeConfig config;
  RecordCodec read_codec;
  RecordCodec write_codec;
  crypto::Bytes transcript;
  crypto::Bytes client_random;
  crypto::Bytes server_random;
  crypto::Bytes master;
  const SuiteInfo* suite = nullptr;
  KeyBlock keys;
  HandshakeSummary summary;
  bool done = false;
  bool renegotiating = false;  // mid-session second handshake in progress
  bool pending_read_cipher = false;  // CCS received -> next records encrypted

  /// Wrap one handshake message into a record, tracking transcript and
  /// wire accounting.
  crypto::Bytes send_handshake(MsgType type, crypto::ConstBytes body) {
    const crypto::Bytes msg = frame_message(type, body);
    transcript.insert(transcript.end(), msg.begin(), msg.end());
    const crypto::Bytes wire =
        write_codec.seal(RecordType::kHandshake, config.version, msg);
    summary.bytes_sent += wire.size();
    return wire;
  }

  crypto::Bytes send_ccs_and_activate(bool is_client) {
    const std::uint8_t one = 1;
    const crypto::Bytes wire = write_codec.seal(
        RecordType::kChangeCipherSpec, config.version, {&one, 1});
    summary.bytes_sent += wire.size();
    activate_write(is_client);
    return wire;
  }

  void derive_keys() {
    keys = derive_key_block(master, client_random, server_random,
                            suite->mac_len, suite->key_len,
                            // Stream suites have no IV but we still derive
                            // an IV-seed block for the record codec.
                            suite->block_len == 0 ? 16 : suite->block_len);
  }

  void activate_write(bool is_client) {
    if (is_client) {
      write_codec.activate(*suite, keys.client_enc_key, keys.client_mac_key,
                           keys.client_iv);
    } else {
      write_codec.activate(*suite, keys.server_enc_key, keys.server_mac_key,
                           keys.server_iv);
    }
  }

  void activate_read(bool is_client) {
    if (is_client) {
      read_codec.activate(*suite, keys.server_enc_key, keys.server_mac_key,
                          keys.server_iv);
    } else {
      read_codec.activate(*suite, keys.client_enc_key, keys.client_mac_key,
                          keys.client_iv);
    }
  }

  crypto::Bytes finished_verify_data(bool client_label) const {
    return tls_prf(master,
                   client_label ? "client finished" : "server finished",
                   crypto::Sha1::hash(transcript), kVerifyDataLen);
  }

  crypto::Bytes make_finished(bool client_label) {
    return finished_verify_data(client_label);
  }

  void check_finished(const Message& msg, bool client_label) {
    // Expected value uses the transcript *before* this Finished message.
    const crypto::Bytes expected = finished_verify_data(client_label);
    if (!crypto::ct_equal(expected, msg.body))
      throw HandshakeError("handshake: Finished verification failed");
  }

  void note_received(const Message& msg) {
    transcript.insert(transcript.end(), msg.raw.begin(), msg.raw.end());
  }

  void setup_datagram_codecs(bool is_client, DatagramRecordCodec& tx,
                             DatagramRecordCodec& rx) {
    if (!done) throw HandshakeError("setup_datagram: handshake not complete");
    if (suite->kind != BulkKind::kBlock)
      throw HandshakeError("setup_datagram: block-cipher suite required");
    if (is_client) {
      tx.activate(*suite, keys.client_enc_key, keys.client_mac_key,
                  keys.client_iv);
      rx.activate(*suite, keys.server_enc_key, keys.server_mac_key,
                  keys.server_iv);
    } else {
      tx.activate(*suite, keys.server_enc_key, keys.server_mac_key,
                  keys.server_iv);
      rx.activate(*suite, keys.client_enc_key, keys.client_mac_key,
                  keys.client_iv);
    }
  }

  /// Reset the per-handshake negotiation state for a renegotiation. The
  /// active record codecs are untouched — the new handshake runs through
  /// them until its ChangeCipherSpec swaps in the fresh key block.
  void begin_renegotiation() {
    renegotiating = true;
    transcript.clear();
    summary.resumed = false;
    summary.ticket_resumed = false;
    summary.client_authenticated = false;
  }

  /// Mark a handshake (first or renegotiated) complete.
  void complete() {
    done = true;
    if (renegotiating) {
      renegotiating = false;
      ++summary.renegotiations;
    }
  }

  crypto::Bytes app_send(crypto::ConstBytes payload) {
    if (!done) throw HandshakeError("send_data: handshake not complete");
    // The renegotiation initiator quiesces its sends; records already in
    // flight under the old keys still drain through app_recv, in order.
    if (renegotiating)
      throw HandshakeError("send_data: renegotiation in progress");
    return write_codec.seal(RecordType::kApplicationData, config.version,
                            payload);
  }

  std::vector<crypto::Bytes> app_recv(crypto::ConstBytes wire) {
    if (!done) throw HandshakeError("recv_data: handshake not complete");
    std::vector<crypto::Bytes> records;
    const std::size_t used = split_records(wire, records);
    if (used != wire.size())
      throw HandshakeError("recv_data: trailing partial record");
    std::vector<crypto::Bytes> out;
    for (const auto& rec : records) {
      Record r = read_codec.open(rec);
      if (r.type != RecordType::kApplicationData)
        throw HandshakeError("recv_data: unexpected record type");
      out.push_back(std::move(r.payload));
    }
    return out;
  }
};

/// Open all records in `inbound` in order, invoking `on_msg` for each
/// handshake message as it is decrypted. ChangeCipherSpec activates the
/// read cipher in-stream, so a handler that derives keys from an earlier
/// message (ClientKeyExchange / resumed ServerHello) makes the following
/// encrypted Finished decryptable.
template <typename Handler>
void process_flight(Common& c, crypto::ConstBytes inbound, bool is_client,
                    Handler&& on_msg) {
  c.summary.bytes_received += inbound.size();
  std::vector<crypto::Bytes> records;
  const std::size_t used = split_records(inbound, records);
  if (used != inbound.size())
    throw HandshakeError("handshake: trailing partial record");
  for (const auto& rec : records) {
    Record r = c.read_codec.open(rec);
    switch (r.type) {
      case RecordType::kChangeCipherSpec:
        c.activate_read(is_client);
        break;
      case RecordType::kHandshake: {
        auto parsed = parse_messages(r.payload);
        for (auto& m : parsed) on_msg(m);
        break;
      }
      case RecordType::kAlert:
        throw HandshakeError("handshake: peer sent alert");
      case RecordType::kApplicationData:
        throw HandshakeError("handshake: application data before Finished");
    }
  }
}

}  // namespace

// ---- SessionCache ------------------------------------------------------------

void SessionCache::store(const crypto::Bytes& session_id, Entry entry) {
  entries_[session_id] = std::move(entry);
}

const SessionCache::Entry* SessionCache::lookup(
    const crypto::Bytes& session_id) {
  const auto it = entries_.find(session_id);
  return it == entries_.end() ? nullptr : &it->second;
}

// ---- PkJob -------------------------------------------------------------------

PkResult run_pk_job(const PkJob& job, crypto::MontCache* cache) {
  PkResult result;
  result.kind = job.kind;
  switch (job.kind) {
    case PkJob::Kind::kRsaDecrypt:
      if (job.private_key == nullptr)
        throw HandshakeError("run_pk_job: decrypt without a private key");
      result.decrypted =
          crypto::rsa_decrypt_pkcs1(*job.private_key, job.input, cache);
      break;
    case PkJob::Kind::kRsaSign:
      if (job.private_key == nullptr)
        throw HandshakeError("run_pk_job: sign without a private key");
      result.signature =
          crypto::rsa_sign_sha1(*job.private_key, job.input, cache);
      break;
    case PkJob::Kind::kRsaVerify:
      result.valid = crypto::rsa_verify_sha1(job.public_key, job.input,
                                             job.signature, cache);
      break;
  }
  return result;
}

// ---- TlsClient ----------------------------------------------------------------

struct TlsClient::Impl {
  explicit Impl(HandshakeConfig cfg) : c(std::move(cfg)) {}

  enum class State { kStart, kWaitServerFlight, kWaitServerFinale, kDone };

  Common c;
  State state = State::kStart;
  crypto::Bytes resume_id;
  crypto::Bytes resume_master;
  CipherSuite resume_suite = CipherSuite::kRsa3DesEdeCbcSha;
  bool resumption_requested = false;
  crypto::Bytes offer_ticket;   // opaque blob offered in the ClientHello
  bool ticket_offered = false;  // stateless resumption requested
  crypto::Bytes fresh_ticket;   // NewSessionTicket from the latest handshake
  crypto::RsaPublicKey server_key;
  crypto::DhGroup server_group;      // from ServerKeyExchange (DHE)
  crypto::BigInt server_dh_public;
  bool have_ske = false;
  bool cert_requested = false;

  crypto::Bytes start() {
    c.client_random = c.config.rng->bytes(kRandomLen);
    crypto::Bytes body;
    put_u16(body, static_cast<std::uint16_t>(c.config.version));
    body.insert(body.end(), c.client_random.begin(), c.client_random.end());
    body.push_back(static_cast<std::uint8_t>(resume_id.size()));
    body.insert(body.end(), resume_id.begin(), resume_id.end());
    put_u16(body, static_cast<std::uint16_t>(c.config.offered_suites.size()));
    for (const CipherSuite s : c.config.offered_suites)
      put_u16(body, static_cast<std::uint16_t>(s));
    // Optional trailing ticket extension: present when the client offers
    // a ticket (stateless resumption) or merely wants one issued (empty
    // blob). Servers without ticket support parse the suites and stop, so
    // the extension is invisible to them.
    if (ticket_offered || c.config.request_session_ticket)
      put_blob16(body, offer_ticket);
    state = State::kWaitServerFlight;
    return c.send_handshake(MsgType::kClientHello, body);
  }

  void handle_server_hello(const Message& m) {
    if (m.body.size() < 2 + kRandomLen + 1)
      throw HandshakeError("ServerHello: truncated");
    std::size_t off = 0;
    const std::uint16_t version = get_u16(m.body, off);
    off += 2;
    if (version != static_cast<std::uint16_t>(c.config.version))
      throw HandshakeError("ServerHello: version mismatch");
    c.server_random.assign(
        m.body.begin() + static_cast<std::ptrdiff_t>(off),
        m.body.begin() + static_cast<std::ptrdiff_t>(off + kRandomLen));
    off += kRandomLen;
    const std::size_t sid_len = m.body[off++];
    if (m.body.size() < off + sid_len + 3)
      throw HandshakeError("ServerHello: truncated tail");
    c.summary.session_id.assign(
        m.body.begin() + static_cast<std::ptrdiff_t>(off),
        m.body.begin() + static_cast<std::ptrdiff_t>(off + sid_len));
    off += sid_len;
    const auto chosen = static_cast<CipherSuite>(get_u16(m.body, off));
    off += 2;
    const bool resumed = m.body[off] != 0;

    bool offered = false;
    for (const CipherSuite s : c.config.offered_suites)
      if (s == chosen) offered = true;
    if (!offered) throw HandshakeError("ServerHello: suite was not offered");
    c.suite = &suite_info(chosen);
    c.summary.suite = chosen;
    c.summary.key_exchange = c.suite->kx;
    c.summary.resumed = resumed;
    c.summary.ticket_resumed = false;
    if (resumed) {
      if (chosen != resume_suite)
        throw HandshakeError("ServerHello: resumed suite changed");
      if (resumption_requested && c.summary.session_id == resume_id) {
        // Stateful resumption: the server found our id in its cache.
      } else if (ticket_offered) {
        // Stateless resumption: the server recovered the session from our
        // ticket and minted a FRESH session id (it has no memory of the
        // old one; the new id feeds the bulk-key derivation).
        c.summary.ticket_resumed = true;
      } else {
        throw HandshakeError("ServerHello: unsolicited resumption");
      }
      c.master = resume_master;
      c.derive_keys();
    }
  }

  void handle_new_session_ticket(const Message& m) {
    std::size_t off = 0;
    fresh_ticket = get_blob16(m.body, off);
    if (off != m.body.size())
      throw HandshakeError("NewSessionTicket: trailing bytes");
    c.note_received(m);
  }

  void handle_certificate(const Message& m) {
    const std::vector<Certificate> chain = decode_cert_list(m.body);
    const CertVerifyResult result =
        verify_chain(chain, c.config.trusted_roots, c.config.now);
    // Each signature check is an RSA public op on the client.
    c.summary.rsa_public_ops += static_cast<int>(chain.size());
    if (result != CertVerifyResult::kOk)
      throw HandshakeError("Certificate: chain invalid (" +
                           cert_verify_result_name(result) + ")");
    server_key = chain.front().public_key;
  }

  void handle_server_key_exchange(const Message& m) {
    if (c.suite->kx != KeyExchange::kDheRsa)
      throw HandshakeError("SKE: unexpected for RSA key exchange");
    std::size_t off = 0;
    server_group.p = crypto::BigInt::from_bytes_be(get_blob16(m.body, off));
    server_group.g = crypto::BigInt::from_bytes_be(get_blob16(m.body, off));
    server_dh_public = crypto::BigInt::from_bytes_be(get_blob16(m.body, off));
    const crypto::Bytes sig = get_blob16(m.body, off);
    if (off != m.body.size()) throw HandshakeError("SKE: trailing bytes");
    // The signature binds the ephemeral parameters to both nonces.
    const crypto::Bytes signed_content = ske_signed_content(
        c.client_random, c.server_random, server_group, server_dh_public);
    c.summary.rsa_public_ops += 1;
    if (!crypto::rsa_verify_sha1(server_key, signed_content, sig))
      throw HandshakeError("SKE: bad parameter signature");
    have_ske = true;
  }

  /// Key agreement: returns the premaster secret and appends the CKE
  /// message to `out`.
  crypto::Bytes key_exchange_premaster(crypto::Bytes& out) {
    if (c.suite->kx == KeyExchange::kRsa) {
      // Premaster: version || 46 random bytes, RSA-encrypted to the server.
      crypto::Bytes premaster;
      premaster.reserve(kPremasterLen);
      put_u16(premaster, static_cast<std::uint16_t>(c.config.version));
      const crypto::Bytes rand = c.config.rng->bytes(kPremasterLen - 2);
      premaster.insert(premaster.end(), rand.begin(), rand.end());

      const crypto::Bytes encrypted =
          rsa_encrypt_pkcs1(server_key, premaster, *c.config.rng);
      c.summary.rsa_public_ops += 1;

      crypto::Bytes cke;
      put_blob16(cke, encrypted);
      const crypto::Bytes wire =
          c.send_handshake(MsgType::kClientKeyExchange, cke);
      out.insert(out.end(), wire.begin(), wire.end());
      return premaster;
    }
    // DHE: generate the client ephemeral in the server's group, send the
    // public value, agree on the shared secret.
    if (!have_ske) throw HandshakeError("DHE suite but no SKE received");
    const crypto::DhKeyPair mine =
        crypto::dh_generate(server_group, *c.config.rng);
    const crypto::BigInt premaster_z =
        crypto::dh_shared_secret(server_group, mine.private_key,
                                 server_dh_public);
    c.summary.dh_ops += 2;  // keygen + agreement
    crypto::Bytes cke;
    put_blob16(cke, mine.public_key.to_bytes_be());
    const crypto::Bytes wire =
        c.send_handshake(MsgType::kClientKeyExchange, cke);
    out.insert(out.end(), wire.begin(), wire.end());
    return premaster_z.to_bytes_be();
  }

  crypto::Bytes full_handshake_reply() {
    crypto::Bytes out;

    // Client certificate (empty list when we have no credentials).
    const bool have_creds = !c.config.client_cert_chain.empty() &&
                            c.config.client_private_key != nullptr;
    if (cert_requested) {
      const crypto::Bytes wire = c.send_handshake(
          MsgType::kCertificate,
          encode_cert_list(have_creds ? c.config.client_cert_chain
                                      : std::vector<Certificate>{}));
      out.insert(out.end(), wire.begin(), wire.end());
    }

    const crypto::Bytes premaster = key_exchange_premaster(out);
    c.master =
        derive_master_secret(premaster, c.client_random, c.server_random);
    c.derive_keys();

    // Prove possession of the client key over the transcript so far.
    if (cert_requested && have_creds) {
      const crypto::Bytes sig =
          crypto::rsa_sign_sha1(*c.config.client_private_key, c.transcript);
      c.summary.rsa_private_ops += 1;
      crypto::Bytes body;
      put_blob16(body, sig);
      const crypto::Bytes wire =
          c.send_handshake(MsgType::kCertificateVerify, body);
      out.insert(out.end(), wire.begin(), wire.end());
    }

    const crypto::Bytes ccs = c.send_ccs_and_activate(/*is_client=*/true);
    out.insert(out.end(), ccs.begin(), ccs.end());
    const crypto::Bytes fin =
        c.send_handshake(MsgType::kFinished, c.make_finished(true));
    out.insert(out.end(), fin.begin(), fin.end());
    state = State::kWaitServerFinale;
    return out;
  }

  crypto::Bytes on_server_flight(crypto::ConstBytes inbound) {
    bool seen_hello = false, seen_cert = false, seen_done = false;
    bool seen_server_finished = false;
    process_flight(c, inbound, /*is_client=*/true, [&](const Message& m) {
      if (!seen_hello) {
        if (m.type != MsgType::kServerHello)
          throw HandshakeError("expected ServerHello");
        handle_server_hello(m);  // resumed path derives keys here
        c.note_received(m);
        seen_hello = true;
        return;
      }
      if (c.summary.resumed) {
        if (m.type == MsgType::kNewSessionTicket && !seen_server_finished) {
          handle_new_session_ticket(m);  // re-issued under the current key
          return;
        }
        if (m.type != MsgType::kFinished)
          throw HandshakeError("resumption: expected server Finished");
        c.check_finished(m, /*client_label=*/false);
        c.note_received(m);
        seen_server_finished = true;
        return;
      }
      switch (m.type) {
        case MsgType::kCertificate:
          handle_certificate(m);
          c.note_received(m);
          seen_cert = true;
          break;
        case MsgType::kServerKeyExchange:
          if (!seen_cert) throw HandshakeError("SKE before Certificate");
          handle_server_key_exchange(m);
          c.note_received(m);
          break;
        case MsgType::kCertificateRequest:
          c.note_received(m);
          cert_requested = true;
          break;
        case MsgType::kServerHelloDone:
          c.note_received(m);
          seen_done = true;
          break;
        default:
          throw HandshakeError("unexpected message in server flight");
      }
    });
    if (!seen_hello) throw HandshakeError("expected ServerHello");

    if (c.summary.resumed) {
      if (!seen_server_finished)
        throw HandshakeError("resumption: missing server Finished");
      crypto::Bytes out = c.send_ccs_and_activate(/*is_client=*/true);
      const crypto::Bytes fin =
          c.send_handshake(MsgType::kFinished, c.make_finished(true));
      out.insert(out.end(), fin.begin(), fin.end());
      c.complete();
      state = State::kDone;
      return out;
    }

    if (!seen_cert || !seen_done)
      throw HandshakeError("expected Certificate + ServerHelloDone");
    return full_handshake_reply();
  }

  crypto::Bytes on_server_finale(crypto::ConstBytes inbound) {
    bool seen_finished = false;
    process_flight(c, inbound, /*is_client=*/true, [&](const Message& m) {
      if (m.type == MsgType::kNewSessionTicket && !seen_finished) {
        handle_new_session_ticket(m);
        return;
      }
      if (m.type != MsgType::kFinished || seen_finished)
        throw HandshakeError("expected server Finished");
      c.check_finished(m, /*client_label=*/false);
      c.note_received(m);
      seen_finished = true;
    });
    if (!seen_finished) throw HandshakeError("expected server Finished");
    c.complete();
    state = State::kDone;
    return {};
  }

  crypto::Bytes start_renegotiate(const RenegotiateOptions& options) {
    if (!c.done || state != State::kDone)
      throw HandshakeError("renegotiate: no established session");
    if (!c.config.allow_renegotiation)
      throw HandshakeError("renegotiate: not allowed by configuration");
    if (c.renegotiating)
      throw HandshakeError("renegotiate: already in progress");
    c.begin_renegotiation();
    have_ske = false;
    cert_requested = false;
    if (!options.offered_suites.empty())
      c.config.offered_suites = options.offered_suites;
    // Resumption basis for the rekey: the ticket issued this session when
    // we hold one (stateless), the current session id otherwise.
    resumption_requested = false;
    ticket_offered = false;
    resume_id.clear();
    offer_ticket.clear();
    if (options.attempt_resume) {
      resume_master = c.master;
      resume_suite = c.summary.suite;
      if (!fresh_ticket.empty()) {
        offer_ticket = fresh_ticket;
        ticket_offered = true;
      } else {
        resume_id = c.summary.session_id;
        resumption_requested = true;
      }
    }
    state = State::kStart;
    return start();
  }

  /// Post-handshake flight while established: the only message a client
  /// accepts is the server's HelloRequest, which (renegotiation being
  /// allowed) triggers a client-initiated renegotiation offering the
  /// current session for resumption. HelloRequest is never part of a
  /// transcript.
  crypto::Bytes on_post_handshake(crypto::ConstBytes inbound) {
    if (!c.config.allow_renegotiation)
      throw HandshakeError("client: handshake already complete");
    bool hello_request = false;
    process_flight(c, inbound, /*is_client=*/true, [&](const Message& m) {
      if (m.type != MsgType::kHelloRequest || !m.body.empty())
        throw HandshakeError("client: unexpected post-handshake message");
      hello_request = true;
    });
    if (!hello_request) return {};
    return start_renegotiate(RenegotiateOptions{});
  }
};

TlsClient::TlsClient(HandshakeConfig config)
    : impl_(std::make_unique<Impl>(std::move(config))) {}

TlsClient::~TlsClient() = default;

void TlsClient::set_resume_session(crypto::ConstBytes session_id,
                                   crypto::ConstBytes master_secret,
                                   CipherSuite suite) {
  impl_->resume_id.assign(session_id.begin(), session_id.end());
  impl_->resume_master.assign(master_secret.begin(), master_secret.end());
  impl_->resume_suite = suite;
  impl_->resumption_requested = true;
}

void TlsClient::set_resume_ticket(crypto::ConstBytes ticket,
                                  crypto::ConstBytes master_secret,
                                  CipherSuite suite) {
  impl_->offer_ticket.assign(ticket.begin(), ticket.end());
  impl_->resume_master.assign(master_secret.begin(), master_secret.end());
  impl_->resume_suite = suite;
  impl_->ticket_offered = true;
}

const crypto::Bytes& TlsClient::session_ticket() const {
  return impl_->fresh_ticket;
}

bool TlsClient::has_session_ticket() const {
  return !impl_->fresh_ticket.empty();
}

crypto::Bytes TlsClient::start_renegotiate(const RenegotiateOptions& options) {
  return impl_->start_renegotiate(options);
}

bool TlsClient::renegotiating() const { return impl_->c.renegotiating; }

crypto::Bytes TlsClient::process(crypto::ConstBytes inbound) {
  switch (impl_->state) {
    case Impl::State::kStart:
      if (!inbound.empty())
        throw HandshakeError("client: unexpected data before start");
      return impl_->start();
    case Impl::State::kWaitServerFlight:
      return impl_->on_server_flight(inbound);
    case Impl::State::kWaitServerFinale:
      return impl_->on_server_finale(inbound);
    case Impl::State::kDone:
      return impl_->on_post_handshake(inbound);
  }
  return {};
}

bool TlsClient::established() const { return impl_->c.done; }

const HandshakeSummary& TlsClient::summary() const {
  return impl_->c.summary;
}

crypto::Bytes TlsClient::send_data(crypto::ConstBytes payload) {
  return impl_->c.app_send(payload);
}

std::vector<crypto::Bytes> TlsClient::recv_data(crypto::ConstBytes wire) {
  return impl_->c.app_recv(wire);
}

void TlsClient::setup_datagram(DatagramRecordCodec& tx,
                               DatagramRecordCodec& rx) {
  impl_->c.setup_datagram_codecs(/*is_client=*/true, tx, rx);
}

const crypto::Bytes& TlsClient::master_secret() const {
  return impl_->c.master;
}

// ---- TlsServer ----------------------------------------------------------------

struct TlsServer::Impl {
  Impl(HandshakeConfig cfg, SessionCache* cache_in)
      : c(std::move(cfg)), cache(cache_in) {
    if (c.config.cert_chain.empty() || c.config.private_key == nullptr)
      throw std::invalid_argument("TlsServer: certificate chain and key required");
  }

  enum class State { kWaitClientHello, kWaitClientFlight, kWaitClientFinale, kDone };

  /// Which continuation a pending PkJob resumes into (async_pk mode).
  enum class PkWait : std::uint8_t {
    kNone,
    kSkeSign,     // DHE ServerKeyExchange signature, mid server flight
    kCkeDecrypt,  // ClientKeyExchange premaster decrypt, mid client flight
    kCertVerify,  // CertificateVerify check, mid client flight
  };

  Common c;
  SessionCache* cache;
  State state = State::kWaitClientHello;
  crypto::BigInt dhe_private;          // server ephemeral (DHE suites)
  std::vector<Certificate> client_chain;
  bool client_cert_seen = false;
  bool client_verify_seen = false;

  // Asynchronous-mode continuation state. The suspended flight's partial
  // output is held back (the client expects whole flights in one
  // process() call), and the not-yet-opened records of the inbound flight
  // wait in `pending_records` — they must stay sealed because the
  // encrypted Finished is only decryptable after the CKE decrypt derives
  // the keys and the in-stream CCS activates the read cipher.
  std::optional<PkJob> pending_job;
  PkWait pk_wait = PkWait::kNone;
  Message suspended_msg;       // CKE/CV message awaiting its PkResult
  crypto::Bytes partial_out;   // server-flight bytes already produced
  crypto::BigInt ske_public;   // DHE ephemeral public value (SKE resume)
  std::deque<crypto::Bytes> pending_records;  // sealed records, in order
  std::deque<Message> pending_msgs;           // parsed, unhandled messages
  bool seen_cke = false;
  bool seen_finished = false;

  // Ticket extension of the ClientHello being processed: the offered
  // blob (may be empty = issuance request only) and whether the
  // extension was present at all.
  crypto::Bytes hello_ticket;
  bool hello_wants_ticket = false;

  bool async_pk() const { return c.config.async_pk; }

  void suspend(PkJob job, PkWait wait, Message msg = {}) {
    pending_job = std::move(job);
    pk_wait = wait;
    suspended_msg = std::move(msg);
  }

  crypto::Bytes server_hello(CipherSuite chosen, bool resumed) {
    crypto::Bytes body;
    put_u16(body, static_cast<std::uint16_t>(c.config.version));
    c.server_random = c.config.rng->bytes(kRandomLen);
    body.insert(body.end(), c.server_random.begin(), c.server_random.end());
    body.push_back(static_cast<std::uint8_t>(c.summary.session_id.size()));
    body.insert(body.end(), c.summary.session_id.begin(),
                c.summary.session_id.end());
    put_u16(body, static_cast<std::uint16_t>(chosen));
    body.push_back(resumed ? 1 : 0);
    return c.send_handshake(MsgType::kServerHello, body);
  }

  crypto::Bytes certificate_message() {
    return c.send_handshake(MsgType::kCertificate,
                            encode_cert_list(c.config.cert_chain));
  }

  /// ServerKeyExchange message from an already computed signature. The
  /// ephemeral (ske_public/dhe_private) and the rsa_private_ops count are
  /// established by the caller, so the synchronous and asynchronous paths
  /// produce byte-identical transcripts.
  crypto::Bytes ske_message(const crypto::Bytes& sig) {
    crypto::Bytes body;
    put_blob16(body, c.config.dhe_group.p.to_bytes_be());
    put_blob16(body, c.config.dhe_group.g.to_bytes_be());
    put_blob16(body, ske_public.to_bytes_be());
    put_blob16(body, sig);
    return c.send_handshake(MsgType::kServerKeyExchange, body);
  }

  /// The rest of the server flight after the (possibly deferred) SKE:
  /// optional CertificateRequest, then ServerHelloDone.
  crypto::Bytes server_flight_tail() {
    crypto::Bytes out;
    if (c.config.request_client_auth) {
      const crypto::Bytes req =
          c.send_handshake(MsgType::kCertificateRequest, {});
      out.insert(out.end(), req.begin(), req.end());
    }
    const crypto::Bytes done = c.send_handshake(MsgType::kServerHelloDone, {});
    out.insert(out.end(), done.begin(), done.end());
    state = State::kWaitClientFlight;
    return out;
  }

  crypto::Bytes on_client_hello(crypto::ConstBytes inbound) {
    std::vector<Message> msgs;
    process_flight(c, inbound, /*is_client=*/false,
                   [&](const Message& m) { msgs.push_back(m); });
    if (msgs.size() != 1 || msgs[0].type != MsgType::kClientHello)
      throw HandshakeError("expected ClientHello");
    const Message& m = msgs[0];
    if (m.body.size() < 2 + kRandomLen + 1)
      throw HandshakeError("ClientHello: truncated");
    std::size_t off = 0;
    const std::uint16_t version = get_u16(m.body, off);
    off += 2;
    if (version != static_cast<std::uint16_t>(c.config.version))
      throw HandshakeError("ClientHello: version mismatch");
    c.client_random.assign(
        m.body.begin() + static_cast<std::ptrdiff_t>(off),
        m.body.begin() + static_cast<std::ptrdiff_t>(off + kRandomLen));
    off += kRandomLen;
    const std::size_t sid_len = m.body[off++];
    if (m.body.size() < off + sid_len + 2)
      throw HandshakeError("ClientHello: truncated session id");
    const crypto::Bytes requested_sid(
        m.body.begin() + static_cast<std::ptrdiff_t>(off),
        m.body.begin() + static_cast<std::ptrdiff_t>(off + sid_len));
    off += sid_len;
    const std::size_t suite_count = get_u16(m.body, off);
    off += 2;
    if (m.body.size() < off + 2 * suite_count)
      throw HandshakeError("ClientHello: truncated suite list");
    std::vector<CipherSuite> offered;
    for (std::size_t i = 0; i < suite_count; ++i) {
      offered.push_back(static_cast<CipherSuite>(get_u16(m.body, off)));
      off += 2;
    }
    // Optional trailing ticket extension (empty blob = issuance request).
    hello_ticket.clear();
    hello_wants_ticket = false;
    if (off < m.body.size()) {
      std::size_t ext_off = off;
      hello_ticket = get_blob16(m.body, ext_off);
      if (ext_off != m.body.size())
        throw HandshakeError("ClientHello: trailing bytes");
      hello_wants_ticket = true;
    }
    c.note_received(m);

    // A renegotiation may be pinned to a full handshake (fresh master) by
    // policy — e.g. after suspected key compromise.
    const bool resumption_allowed =
        !c.renegotiating || c.config.resume_on_renegotiate;

    // Stateless resumption: decrypt+MAC only — no cache bytes, no
    // public-key op (the async_pk machinery is never engaged here). Tried
    // before the cache and before the degraded-mode refusal, so ticket
    // holders keep resuming while an overloaded server sheds full
    // handshakes. Any open failure (stale key beyond the ring's window,
    // bad MAC, expiry, garbage) falls through to a full handshake — a bad
    // ticket must never kill the connection.
    if (resumption_allowed && c.config.ticket_codec != nullptr &&
        !hello_ticket.empty()) {
      if (std::optional<ticket::SessionTicket> t =
              c.config.ticket_codec->open(hello_ticket,
                                          c.config.ticket_now_us)) {
        const auto suite = static_cast<CipherSuite>(t->suite);
        bool still_offered = false;
        for (const CipherSuite s : offered)
          if (s == suite) still_offered = true;
        if (still_offered) return resume_ticket(*t, suite);
      }
    }

    // Stateful resumption path.
    if (resumption_allowed && cache != nullptr && !requested_sid.empty()) {
      if (const auto* entry = cache->lookup(requested_sid)) {
        bool still_offered = false;
        for (const CipherSuite s : offered)
          if (s == entry->suite) still_offered = true;
        if (still_offered) return resume(requested_sid, *entry);
      }
    }

    // Degraded mode: the refusal happens here, before the certificate
    // flight and long before the RSA private operation, so a shed full
    // handshake costs the server only the ClientHello parse.
    if (c.config.resumption_only)
      throw HandshakeError("full handshake refused: resumption only");

    // Suite selection: first of *our* preference list the client offered.
    CipherSuite chosen{};
    bool found = false;
    for (const CipherSuite mine : c.config.offered_suites) {
      for (const CipherSuite theirs : offered) {
        if (mine == theirs) {
          chosen = mine;
          found = true;
          break;
        }
      }
      if (found) break;
    }
    if (!found) throw HandshakeError("no common cipher suite");
    c.suite = &suite_info(chosen);
    c.summary.suite = chosen;
    c.summary.key_exchange = c.suite->kx;
    c.summary.session_id = c.config.rng->bytes(kSessionIdLen);

    crypto::Bytes out = server_hello(chosen, /*resumed=*/false);
    const crypto::Bytes certs = certificate_message();
    out.insert(out.end(), certs.begin(), certs.end());
    if (c.suite->kx == KeyExchange::kDheRsa) {
      // Fresh ephemeral per connection: forward secrecy.
      const crypto::DhKeyPair eph =
          crypto::dh_generate(c.config.dhe_group, *c.config.rng);
      dhe_private = eph.private_key;
      ske_public = eph.public_key;
      c.summary.dh_ops += 1;
      const crypto::Bytes signed_content =
          ske_signed_content(c.client_random, c.server_random,
                             c.config.dhe_group, ske_public);
      if (async_pk()) {
        // Hold the partial flight and yield the private-key signature.
        partial_out = std::move(out);
        PkJob job;
        job.kind = PkJob::Kind::kRsaSign;
        job.private_key = c.config.private_key;
        job.input = signed_content;
        suspend(std::move(job), PkWait::kSkeSign);
        return {};
      }
      const crypto::Bytes sig =
          crypto::rsa_sign_sha1(*c.config.private_key, signed_content);
      c.summary.rsa_private_ops += 1;
      const crypto::Bytes ske = ske_message(sig);
      out.insert(out.end(), ske.begin(), ske.end());
    }
    const crypto::Bytes tail = server_flight_tail();
    out.insert(out.end(), tail.begin(), tail.end());
    return out;
  }

  /// NewSessionTicket message when the client asked for one and we can
  /// issue (empty otherwise). Always sealed under the ring's CURRENT key:
  /// re-issuance on every handshake — including ticket resumptions — is
  /// what keeps a rotating ring from ever stranding an honest client.
  crypto::Bytes issue_ticket() {
    if (c.config.ticket_codec == nullptr || !hello_wants_ticket) return {};
    ticket::SessionTicket t;
    t.master_secret = c.master;
    t.suite = static_cast<std::uint16_t>(c.summary.suite);
    t.issued_at_us = c.config.ticket_now_us;
    t.client_binding = ticket::client_binding_for(c.master);
    crypto::Bytes body;
    put_blob16(body, c.config.ticket_codec->seal(t, *c.config.rng));
    return c.send_handshake(MsgType::kNewSessionTicket, body);
  }

  /// Abbreviated-handshake server flight: ServerHello(resumed) + optional
  /// NewSessionTicket + CCS + Finished. Caller has set suite/master/sid.
  crypto::Bytes abbreviated_flight(CipherSuite suite) {
    crypto::Bytes out = server_hello(suite, /*resumed=*/true);
    c.derive_keys();
    const crypto::Bytes nst = issue_ticket();
    out.insert(out.end(), nst.begin(), nst.end());
    const crypto::Bytes ccs = c.send_ccs_and_activate(/*is_client=*/false);
    out.insert(out.end(), ccs.begin(), ccs.end());
    const crypto::Bytes fin =
        c.send_handshake(MsgType::kFinished, c.make_finished(false));
    out.insert(out.end(), fin.begin(), fin.end());
    state = State::kWaitClientFinale;
    return out;
  }

  crypto::Bytes resume(const crypto::Bytes& sid,
                       const SessionCache::Entry& entry) {
    c.suite = &suite_info(entry.suite);
    c.summary.suite = entry.suite;
    c.summary.resumed = true;
    c.summary.ticket_resumed = false;
    c.summary.session_id = sid;
    c.master = entry.master_secret;
    return abbreviated_flight(entry.suite);
  }

  crypto::Bytes resume_ticket(const ticket::SessionTicket& t,
                              CipherSuite suite) {
    c.suite = &suite_info(suite);
    c.summary.suite = suite;
    c.summary.resumed = true;
    c.summary.ticket_resumed = true;
    // The server kept no state, so the old session id means nothing; mint
    // a fresh one (it salts the bulk-key derivation and is echoed in the
    // ServerHello for the client to adopt).
    c.summary.session_id = c.config.rng->bytes(kSessionIdLen);
    c.master = t.master_secret;
    return abbreviated_flight(suite);
  }

  void handle_client_certificate(const Message& m) {
    client_chain = decode_cert_list(m.body);
    client_cert_seen = true;
    if (client_chain.empty()) {
      // Client declined. Policy decides.
      if (c.config.require_client_auth)
        throw HandshakeError("client certificate required");
      return;
    }
    const CertVerifyResult result =
        verify_chain(client_chain, c.config.trusted_roots, c.config.now);
    c.summary.rsa_public_ops += static_cast<int>(client_chain.size());
    if (result != CertVerifyResult::kOk)
      throw HandshakeError("client certificate chain invalid (" +
                           cert_verify_result_name(result) + ")");
  }

  /// CertificateVerify epilogue shared by the sync and async paths; runs
  /// after the verification outcome is known.
  void finish_certificate_verify(const Message& m, bool valid) {
    c.summary.rsa_public_ops += 1;
    if (!valid) throw HandshakeError("CertificateVerify: bad signature");
    c.summary.client_authenticated = true;
    client_verify_seen = true;
    c.note_received(m);
  }

  /// RSA ClientKeyExchange epilogue shared by the sync and async paths;
  /// runs after the private-key decrypt produced `decrypted`.
  void finish_cke_rsa(const Message& cke,
                      const std::optional<crypto::Bytes>& decrypted) {
    c.summary.rsa_private_ops += 1;
    if (!decrypted || decrypted->size() != kPremasterLen ||
        get_u16(*decrypted, 0) != static_cast<std::uint16_t>(c.config.version))
      throw HandshakeError("CKE: bad premaster");
    finish_cke(cke, *decrypted);
  }

  void finish_cke(const Message& cke, const crypto::Bytes& premaster) {
    c.note_received(cke);
    c.master =
        derive_master_secret(premaster, c.client_random, c.server_random);
    c.derive_keys();
    seen_cke = true;
    // Keys are now in place, so the CCS record that follows in this same
    // flight can activate the read cipher and the encrypted Finished will
    // decrypt.
  }

  /// Handle one message of the client flight. Returns false when the
  /// handshake suspended on a PkJob (async_pk mode) — the message is
  /// parked in `suspended_msg` and resume_pk() finishes it.
  bool handle_client_flight_msg(Message& m) {
    switch (m.type) {
      case MsgType::kCertificate:
        if (seen_cke || client_cert_seen)
          throw HandshakeError("Certificate out of order");
        if (!c.config.request_client_auth)
          throw HandshakeError("unsolicited client certificate");
        handle_client_certificate(m);
        c.note_received(m);
        return true;
      case MsgType::kClientKeyExchange: {
        if (seen_cke) throw HandshakeError("duplicate CKE");
        if (c.config.request_client_auth && !client_cert_seen)
          throw HandshakeError("expected client Certificate before CKE");
        std::size_t off = 0;
        const crypto::Bytes payload = get_blob16(m.body, off);
        if (off != m.body.size()) throw HandshakeError("CKE: trailing bytes");
        if (c.suite->kx == KeyExchange::kRsa) {
          if (async_pk()) {
            PkJob job;
            job.kind = PkJob::Kind::kRsaDecrypt;
            job.private_key = c.config.private_key;
            job.input = payload;
            suspend(std::move(job), PkWait::kCkeDecrypt, std::move(m));
            return false;
          }
          finish_cke_rsa(m, rsa_decrypt_pkcs1(*c.config.private_key, payload));
          return true;
        }
        const crypto::BigInt client_public =
            crypto::BigInt::from_bytes_be(payload);
        const crypto::Bytes premaster =
            crypto::dh_shared_secret(c.config.dhe_group, dhe_private,
                                     client_public)
                .to_bytes_be();
        c.summary.dh_ops += 1;
        finish_cke(m, premaster);
        return true;
      }
      case MsgType::kCertificateVerify: {
        if (!seen_cke || client_verify_seen)
          throw HandshakeError("CertificateVerify out of order");
        if (client_chain.empty())
          throw HandshakeError("CertificateVerify without a certificate");
        std::size_t off = 0;
        const crypto::Bytes sig = get_blob16(m.body, off);
        if (off != m.body.size()) throw HandshakeError("CV: trailing bytes");
        // Signature covers the transcript up to (not including) this
        // message.
        if (async_pk()) {
          PkJob job;
          job.kind = PkJob::Kind::kRsaVerify;
          job.public_key = client_chain.front().public_key;
          job.input = c.transcript;
          job.signature = sig;
          suspend(std::move(job), PkWait::kCertVerify, std::move(m));
          return false;
        }
        finish_certificate_verify(
            m, crypto::rsa_verify_sha1(client_chain.front().public_key,
                                       c.transcript, sig));
        return true;
      }
      case MsgType::kFinished:
        if (!seen_cke || seen_finished)
          throw HandshakeError("Finished out of order");
        if (c.config.require_client_auth && !c.summary.client_authenticated)
          throw HandshakeError("client authentication required");
        if (!client_chain.empty() && !client_verify_seen)
          throw HandshakeError(
              "client certificate without proof of possession");
        c.check_finished(m, /*client_label=*/true);
        c.note_received(m);
        seen_finished = true;
        return true;
      default:
        throw HandshakeError("unexpected message in client flight");
    }
  }

  /// Open and handle the parked records/messages of the client flight in
  /// order. Returns the server finale once the flight is fully consumed,
  /// or an empty value if the handshake suspended on a PkJob.
  crypto::Bytes drain_client_flight() {
    for (;;) {
      while (!pending_msgs.empty()) {
        Message m = std::move(pending_msgs.front());
        pending_msgs.pop_front();
        if (!handle_client_flight_msg(m)) return {};
      }
      if (pending_records.empty()) break;
      const crypto::Bytes rec = std::move(pending_records.front());
      pending_records.pop_front();
      Record r = c.read_codec.open(rec);
      switch (r.type) {
        case RecordType::kChangeCipherSpec:
          c.activate_read(/*is_client=*/false);
          break;
        case RecordType::kHandshake: {
          auto parsed = parse_messages(r.payload);
          for (auto& m : parsed) pending_msgs.push_back(std::move(m));
          break;
        }
        case RecordType::kAlert:
          throw HandshakeError("handshake: peer sent alert");
        case RecordType::kApplicationData:
          throw HandshakeError("handshake: application data before Finished");
      }
    }
    return finish_client_flight();
  }

  crypto::Bytes finish_client_flight() {
    if (!seen_cke || !seen_finished)
      throw HandshakeError("expected ClientKeyExchange + Finished");

    crypto::Bytes out = issue_ticket();
    const crypto::Bytes ccs = c.send_ccs_and_activate(/*is_client=*/false);
    out.insert(out.end(), ccs.begin(), ccs.end());
    const crypto::Bytes fin =
        c.send_handshake(MsgType::kFinished, c.make_finished(false));
    out.insert(out.end(), fin.begin(), fin.end());

    if (cache != nullptr)
      cache->store(c.summary.session_id, {c.master, c.summary.suite});
    c.complete();
    state = State::kDone;
    return out;
  }

  crypto::Bytes on_client_flight(crypto::ConstBytes inbound) {
    c.summary.bytes_received += inbound.size();
    std::vector<crypto::Bytes> records;
    const std::size_t used = split_records(inbound, records);
    if (used != inbound.size())
      throw HandshakeError("handshake: trailing partial record");
    for (auto& rec : records) pending_records.push_back(std::move(rec));
    return drain_client_flight();
  }

  /// Complete the suspended operation with its result and continue the
  /// interrupted flight exactly where the synchronous path would have.
  crypto::Bytes resume_pk(const PkResult& result) {
    if (!pending_job)
      throw HandshakeError("resume_pk: no pending operation");
    if (result.kind != pending_job->kind)
      throw HandshakeError("resume_pk: result kind mismatch");
    const PkWait wait = pk_wait;
    pending_job.reset();
    pk_wait = PkWait::kNone;
    switch (wait) {
      case PkWait::kSkeSign: {
        c.summary.rsa_private_ops += 1;
        crypto::Bytes out = std::move(partial_out);
        partial_out.clear();
        const crypto::Bytes ske = ske_message(result.signature);
        out.insert(out.end(), ske.begin(), ske.end());
        const crypto::Bytes tail = server_flight_tail();
        out.insert(out.end(), tail.begin(), tail.end());
        return out;
      }
      case PkWait::kCkeDecrypt: {
        const Message m = std::move(suspended_msg);
        suspended_msg = {};
        finish_cke_rsa(m, result.decrypted);
        return drain_client_flight();
      }
      case PkWait::kCertVerify: {
        const Message m = std::move(suspended_msg);
        suspended_msg = {};
        finish_certificate_verify(m, result.valid);
        return drain_client_flight();
      }
      case PkWait::kNone:
        break;
    }
    throw HandshakeError("resume_pk: no pending operation");
  }

  crypto::Bytes on_client_finale(crypto::ConstBytes inbound) {
    bool seen_finished = false;
    process_flight(c, inbound, /*is_client=*/false, [&](const Message& m) {
      if (m.type != MsgType::kFinished || seen_finished)
        throw HandshakeError("expected client Finished");
      c.check_finished(m, /*client_label=*/true);
      c.note_received(m);
      seen_finished = true;
    });
    if (!seen_finished) throw HandshakeError("expected client Finished");
    c.complete();
    state = State::kDone;
    return {};
  }

  /// Server-initiated renegotiation: a HelloRequest sealed under the
  /// current write cipher. Deliberately NOT send_handshake — HelloRequest
  /// belongs to no transcript. No state changes here; the renegotiation
  /// proper begins when the client's ClientHello arrives.
  crypto::Bytes request_renegotiate() {
    if (!c.done || state != State::kDone)
      throw HandshakeError("renegotiate: no established session");
    if (!c.config.allow_renegotiation)
      throw HandshakeError("renegotiate: not allowed by configuration");
    const crypto::Bytes msg = frame_message(MsgType::kHelloRequest, {});
    const crypto::Bytes wire =
        c.write_codec.seal(RecordType::kHandshake, c.config.version, msg);
    c.summary.bytes_sent += wire.size();
    return wire;
  }

  /// A flight arriving on an established session: renegotiation entry
  /// (when allowed) — reset the per-handshake state and treat the flight
  /// as a fresh ClientHello through the live record layer.
  crypto::Bytes on_post_handshake(crypto::ConstBytes inbound) {
    if (!c.config.allow_renegotiation)
      throw HandshakeError("server: handshake already complete");
    c.begin_renegotiation();
    client_chain.clear();
    client_cert_seen = false;
    client_verify_seen = false;
    seen_cke = false;
    seen_finished = false;
    pending_records.clear();
    pending_msgs.clear();
    partial_out.clear();
    state = State::kWaitClientHello;
    return on_client_hello(inbound);
  }
};

TlsServer::TlsServer(HandshakeConfig config, SessionCache* cache)
    : impl_(std::make_unique<Impl>(std::move(config), cache)) {}

TlsServer::~TlsServer() = default;

crypto::Bytes TlsServer::process(crypto::ConstBytes inbound) {
  if (impl_->pending_job)
    throw HandshakeError("server: flight received while pk operation pending");
  switch (impl_->state) {
    case Impl::State::kWaitClientHello:
      return impl_->on_client_hello(inbound);
    case Impl::State::kWaitClientFlight:
      return impl_->on_client_flight(inbound);
    case Impl::State::kWaitClientFinale:
      return impl_->on_client_finale(inbound);
    case Impl::State::kDone:
      return impl_->on_post_handshake(inbound);
  }
  return {};
}

crypto::Bytes TlsServer::request_renegotiate() {
  return impl_->request_renegotiate();
}

bool TlsServer::renegotiating() const { return impl_->c.renegotiating; }

bool TlsServer::established() const { return impl_->c.done; }

const HandshakeSummary& TlsServer::summary() const {
  return impl_->c.summary;
}

crypto::Bytes TlsServer::send_data(crypto::ConstBytes payload) {
  return impl_->c.app_send(payload);
}

std::vector<crypto::Bytes> TlsServer::recv_data(crypto::ConstBytes wire) {
  return impl_->c.app_recv(wire);
}

void TlsServer::setup_datagram(DatagramRecordCodec& tx,
                               DatagramRecordCodec& rx) {
  impl_->c.setup_datagram_codecs(/*is_client=*/false, tx, rx);
}

const crypto::Bytes& TlsServer::master_secret() const {
  return impl_->c.master;
}

bool TlsServer::pk_pending() const { return impl_->pending_job.has_value(); }

const PkJob& TlsServer::pending_pk_job() const {
  if (!impl_->pending_job)
    throw HandshakeError("pending_pk_job: no pending operation");
  return *impl_->pending_job;
}

crypto::Bytes TlsServer::resume_pk(const PkResult& result) {
  return impl_->resume_pk(result);
}

// ---- driver -------------------------------------------------------------------

HandshakeStep step_handshake(HandshakeEndpoint& endpoint,
                             crypto::ConstBytes inbound) {
  HandshakeStep step;
  if (!endpoint.established()) step.output = endpoint.process(inbound);
  step.established = endpoint.established();
  step.pk_pending = endpoint.pk_pending();
  return step;
}

namespace {

/// In-memory driver support for async_pk servers: execute pending jobs
/// inline so the endpoint behaves exactly like its synchronous twin.
HandshakeStep service_pending_pk(HandshakeEndpoint& endpoint,
                                 HandshakeStep step) {
  auto* server = dynamic_cast<TlsServer*>(&endpoint);
  while (server != nullptr && server->pk_pending()) {
    const PkResult result = run_pk_job(server->pending_pk_job());
    const crypto::Bytes more = server->resume_pk(result);
    step.output.insert(step.output.end(), more.begin(), more.end());
    step.established = server->established();
    step.pk_pending = server->pk_pending();
  }
  return step;
}

}  // namespace

void run_handshake(HandshakeEndpoint& client, HandshakeEndpoint& server,
                   std::vector<TappedFlight>* tap) {
  crypto::Bytes to_server = step_handshake(client, {}).output;
  int rounds = 0;
  while (!(client.established() && server.established())) {
    if (++rounds > 8) throw HandshakeError("run_handshake: no progress");
    if (tap && !to_server.empty()) tap->push_back({true, to_server});
    const HandshakeStep reply =
        service_pending_pk(server, step_handshake(server, to_server));
    if (reply.output.empty() && reply.established && client.established())
      break;
    if (tap && !reply.output.empty()) tap->push_back({false, reply.output});
    if (client.established() && reply.output.empty()) break;
    to_server = step_handshake(client, reply.output).output;
  }
}

}  // namespace mapsec::protocol
