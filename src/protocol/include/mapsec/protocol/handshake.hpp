// SSL/TLS-style handshake state machines (client and server), with the
// WTLS profile and abbreviated (session-resumption) handshakes.
//
// This is the protocol whose connection set-up cost drives the latency
// axis of the paper's Figure 3: ClientHello/ServerHello negotiation over
// the Section 3.1 suite space, server authentication by certificate
// chain, RSA key transport of the premaster secret, key derivation, and
// Finished-message verification of the transcript. Session resumption
// (the WTLS-friendly abbreviated handshake) skips the RSA operation —
// exactly the optimisation a MIPS-starved handset needs.
//
// Endpoints are incremental message processors: feed one complete inbound
// flight to process(), transmit whatever it returns, repeat. Two drivers
// are provided: step_handshake() advances one endpoint by one flight (the
// building block for event-driven callers that receive flights from a
// transport, e.g. mapsec::server), and run_handshake() drives two
// endpoints to completion in memory for tests and benchmarks.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "mapsec/crypto/dh.hpp"
#include "mapsec/crypto/rng.hpp"
#include "mapsec/crypto/rsa.hpp"
#include "mapsec/protocol/cert.hpp"
#include "mapsec/protocol/datagram.hpp"
#include "mapsec/protocol/record.hpp"
#include "mapsec/protocol/suites.hpp"

namespace mapsec::ticket {
class TicketCodec;
}

namespace mapsec::protocol {

class HandshakeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Server-side cache of resumable sessions (session id -> master secret +
/// suite). The base class is an unbounded map; implementations with an
/// eviction policy (e.g. mapsec::server::BoundedSessionCache, LRU + TTL)
/// override the virtuals. `lookup` is non-const because policy caches
/// update recency/expiry state on the read path.
class SessionCache {
 public:
  struct Entry {
    crypto::Bytes master_secret;
    CipherSuite suite = CipherSuite::kRsa3DesEdeCbcSha;
  };

  virtual ~SessionCache() = default;

  virtual void store(const crypto::Bytes& session_id, Entry entry);
  /// nullptr when absent (or expired/evicted, for bounded caches).
  virtual const Entry* lookup(const crypto::Bytes& session_id);
  virtual std::size_t size() const { return entries_.size(); }
  virtual void clear() { entries_.clear(); }

 private:
  std::map<crypto::Bytes, Entry> entries_;
};

/// One public-key operation extracted from a suspended server handshake —
/// the unit of work the paper's crypto accelerator takes off the host
/// (mapsec::engine::OffloadEngine executes these on a worker pool). The
/// job is a pure function of its fields: run_pk_job() on any thread (with
/// any MontCache) produces a bit-identical PkResult.
struct PkJob {
  enum class Kind : std::uint8_t {
    kRsaDecrypt,  // ClientKeyExchange premaster decrypt (server private key)
    kRsaSign,     // DHE ServerKeyExchange parameter signature
    kRsaVerify,   // CertificateVerify check (client's public key)
  };

  Kind kind = Kind::kRsaDecrypt;
  const crypto::RsaPrivateKey* private_key = nullptr;  // decrypt/sign
  crypto::RsaPublicKey public_key;                     // verify
  crypto::Bytes input;      // ciphertext / content-to-sign / signed content
  crypto::Bytes signature;  // verify: signature under test
};

/// Outcome of a PkJob, fed back via TlsServer::resume_pk().
struct PkResult {
  PkJob::Kind kind = PkJob::Kind::kRsaDecrypt;
  std::optional<crypto::Bytes> decrypted;  // kRsaDecrypt (nullopt = bad pad)
  crypto::Bytes signature;                 // kRsaSign
  bool valid = false;                      // kRsaVerify
};

/// Execute a job. Deterministic and side-effect free; safe to run on any
/// thread. `cache`, when provided, reuses per-modulus Montgomery contexts
/// (outputs identical either way). OffloadEngine runs every job of a
/// batched lane window through this call, one after another; the window's
/// speedup lives in the modeled lane pricing, not in the host code.
PkResult run_pk_job(const PkJob& job, crypto::MontCache* cache = nullptr);

/// What both sides agree on once established.
struct HandshakeSummary {
  CipherSuite suite = CipherSuite::kRsa3DesEdeCbcSha;
  KeyExchange key_exchange = KeyExchange::kRsa;
  bool resumed = false;         // latest handshake was abbreviated
  bool ticket_resumed = false;  // ... and the resumption came from a ticket
  bool client_authenticated = false;
  ProtocolVersion version = ProtocolVersion::kTls10;
  std::size_t bytes_sent = 0;      // wire bytes this endpoint transmitted
  std::size_t bytes_received = 0;  // wire bytes this endpoint consumed
  int rsa_private_ops = 0;         // performed by this endpoint (cumulative)
  int rsa_public_ops = 0;
  int dh_ops = 0;                  // modexp agreements/keygens
  int renegotiations = 0;          // completed mid-session renegotiations
  crypto::Bytes session_id;
};

/// Shared configuration. A client needs `trusted_roots`; a server needs
/// `cert_chain` + `private_key` (plus `trusted_roots` when it
/// authenticates clients). `rng` must outlive the endpoint.
struct HandshakeConfig {
  ProtocolVersion version = ProtocolVersion::kTls10;
  std::vector<CipherSuite> offered_suites = all_suites();
  crypto::Rng* rng = nullptr;
  std::uint64_t now = 0;  // certificate-validation clock

  // Server credentials.
  std::vector<Certificate> cert_chain;
  const crypto::RsaPrivateKey* private_key = nullptr;

  // Trust anchors (client: verifies the server chain; server: verifies
  // the client chain when client auth is on).
  std::vector<Certificate> trusted_roots;

  // Client credentials, presented when the server asks (Section 2's
  // mutual authentication).
  std::vector<Certificate> client_cert_chain;
  const crypto::RsaPrivateKey* client_private_key = nullptr;

  // Server-side client-authentication policy.
  bool request_client_auth = false;  // send CertificateRequest
  bool require_client_auth = false;  // fail if the client sends no cert

  // Server-side degraded-mode policy: refuse ClientHellos that cannot
  // resume a cached session, BEFORE any certificate transmission or RSA
  // work. An overloaded server (mapsec::server admission control) flips
  // this on so the cheap abbreviated handshake stays available while
  // the expensive full handshake is shed.
  bool resumption_only = false;

  // Ephemeral-DH group for DHE suites.
  crypto::DhGroup dhe_group = crypto::DhGroup::oakley_group2();

  // Server-side asynchronous public-key mode. When set, the server
  // SUSPENDS instead of executing a private-key (or CertificateVerify)
  // operation inline: process() returns an empty flight, pk_pending()
  // turns true, and the caller runs the extracted PkJob wherever it likes
  // (inline, or on an OffloadEngine worker) before feeding the PkResult
  // to resume_pk(), which returns the flight the synchronous path would
  // have produced. Transcripts and outputs are byte-identical to the
  // synchronous mode.
  bool async_pk = false;

  // ---- stateless session tickets (mapsec::ticket) ----
  // Server: when set, ticket-bearing ClientHellos resume statelessly
  // (one AES-CCM open, zero cache bytes, no public-key op — the async_pk
  // machinery is never engaged on this path) and completed handshakes
  // that requested a ticket get a NewSessionTicket. Not owned; must
  // outlive the endpoint.
  mapsec::ticket::TicketCodec* ticket_codec = nullptr;
  // Server: issue/expiry clock for tickets (sim µs — distinct from `now`,
  // the certificate-validation wall clock).
  std::uint64_t ticket_now_us = 0;
  // Client: ask the server for a NewSessionTicket (also implied by
  // offering one via set_resume_ticket()).
  bool request_session_ticket = false;

  // ---- mid-session rekey / renegotiation ----
  // Both sides: allow a second handshake through the established record
  // layer (client start_renegotiate(), server request_renegotiate() /
  // HelloRequest). Off by default: an endpoint that does not expect
  // renegotiation treats a post-handshake flight as an error, as before.
  bool allow_renegotiation = false;
  // Server: let a renegotiation resume (sid cache or ticket) — a pure
  // rekey, same master + fresh key block. When false the server ignores
  // resumption offers during renegotiation and forces a full handshake
  // (fresh master), e.g. after suspected key compromise.
  bool resume_on_renegotiate = true;
};

/// Parameters for TlsClient::start_renegotiate().
struct RenegotiateOptions {
  /// Offer the current session for resumption (ticket when one was
  /// issued this session, session id otherwise): rekey without the
  /// public-key op if the server accepts.
  bool attempt_resume = true;
  /// Replace the offered suite list for this renegotiation (empty =
  /// keep the config's offer) — how a session transitions suites, e.g.
  /// CBC+HMAC -> AEAD, mid-flight.
  std::vector<CipherSuite> offered_suites;
};

/// Common interface of the two endpoints.
class HandshakeEndpoint {
 public:
  virtual ~HandshakeEndpoint() = default;

  /// Feed inbound wire bytes (zero or more whole records); returns
  /// outbound wire bytes (possibly empty). Throws HandshakeError on any
  /// protocol, certificate or MAC failure.
  virtual crypto::Bytes process(crypto::ConstBytes inbound) = 0;

  virtual bool established() const = 0;
  virtual const HandshakeSummary& summary() const = 0;

  /// True when the endpoint is suspended on an extracted public-key
  /// operation (HandshakeConfig::async_pk servers only; see TlsServer).
  /// While pending, process() refuses further flights.
  virtual bool pk_pending() const { return false; }

  /// Post-handshake: protect an application payload into wire bytes.
  virtual crypto::Bytes send_data(crypto::ConstBytes payload) = 0;

  /// Post-handshake: open wire bytes into application payloads.
  virtual std::vector<crypto::Bytes> recv_data(crypto::ConstBytes wire) = 0;

  /// Post-handshake, WTLS deployment shape: run application data over an
  /// unreliable bearer. Activates `tx`/`rx` datagram codecs from the
  /// negotiated key material (send direction = this endpoint's write
  /// keys). Requires an established session on a block-cipher suite.
  virtual void setup_datagram(DatagramRecordCodec& tx,
                              DatagramRecordCodec& rx) = 0;
};

class TlsClient final : public HandshakeEndpoint {
 public:
  explicit TlsClient(HandshakeConfig config);
  ~TlsClient() override;

  /// Request resumption of a previous session on the next handshake.
  void set_resume_session(crypto::ConstBytes session_id,
                          crypto::ConstBytes master_secret, CipherSuite suite);

  /// Request stateless resumption on the next handshake: offer an opaque
  /// session ticket (from a previous session's session_ticket()) in the
  /// ClientHello. The client keeps the master secret + suite the ticket
  /// was issued under; the server recovers its copy from the blob alone.
  void set_resume_ticket(crypto::ConstBytes ticket,
                         crypto::ConstBytes master_secret, CipherSuite suite);

  /// Opaque NewSessionTicket issued by the server during the latest
  /// handshake (empty when none was issued).
  const crypto::Bytes& session_ticket() const;
  bool has_session_ticket() const;

  /// Begin a mid-session renegotiation (requires an established session
  /// and HandshakeConfig::allow_renegotiation): resets the handshake
  /// state and returns a ClientHello sealed under the CURRENT write
  /// cipher. While renegotiating, send_data() refuses (the initiator
  /// quiesces its own sends) but recv_data() still opens in-flight
  /// records sealed under the old keys — delivery is in order, so the
  /// drain is deterministic. The server's HelloRequest triggers this
  /// automatically inside process().
  crypto::Bytes start_renegotiate(const RenegotiateOptions& options = {});

  /// True between renegotiation start and its Finished exchange.
  bool renegotiating() const;

  crypto::Bytes process(crypto::ConstBytes inbound) override;
  bool established() const override;
  const HandshakeSummary& summary() const override;
  crypto::Bytes send_data(crypto::ConstBytes payload) override;
  std::vector<crypto::Bytes> recv_data(crypto::ConstBytes wire) override;
  void setup_datagram(DatagramRecordCodec& tx,
                      DatagramRecordCodec& rx) override;

  /// Master secret (exposed so callers can cache it for resumption).
  const crypto::Bytes& master_secret() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

class TlsServer final : public HandshakeEndpoint {
 public:
  /// `cache`, when provided, enables session resumption (not owned).
  explicit TlsServer(HandshakeConfig config, SessionCache* cache = nullptr);
  ~TlsServer() override;

  crypto::Bytes process(crypto::ConstBytes inbound) override;
  bool established() const override;
  const HandshakeSummary& summary() const override;
  crypto::Bytes send_data(crypto::ConstBytes payload) override;
  std::vector<crypto::Bytes> recv_data(crypto::ConstBytes wire) override;
  void setup_datagram(DatagramRecordCodec& tx,
                      DatagramRecordCodec& rx) override;

  const crypto::Bytes& master_secret() const;

  // -- asynchronous public-key mode (HandshakeConfig::async_pk) --
  // A suspended server exposes the extracted operation via
  // pending_pk_job(); the caller executes it (run_pk_job, possibly on
  // another thread) and hands the result to resume_pk(), which finishes
  // the interrupted flight and returns the bytes to transmit. A flight
  // may suspend more than once (e.g. ClientKeyExchange decrypt then
  // CertificateVerify) — loop until pk_pending() is false.

  /// Begin a server-initiated renegotiation: returns a HelloRequest
  /// sealed under the current write cipher (not part of any transcript).
  /// The actual handshake starts when the client's ClientHello arrives at
  /// process(). Requires an established session and
  /// HandshakeConfig::allow_renegotiation on both sides.
  crypto::Bytes request_renegotiate();

  /// True between renegotiation start and its Finished exchange.
  bool renegotiating() const;

  bool pk_pending() const override;
  /// Throws HandshakeError when no operation is pending.
  const PkJob& pending_pk_job() const;
  /// Throws HandshakeError on kind mismatch, bad signature/premaster, or
  /// when nothing is pending — exactly the errors the synchronous path
  /// would have raised at the same point.
  crypto::Bytes resume_pk(const PkResult& result);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Result of advancing one endpoint by one flight.
struct HandshakeStep {
  crypto::Bytes output;  // flight to transmit to the peer (may be empty)
  bool established = false;
  bool pk_pending = false;  // async server suspended on a PkJob
};

/// Advance `endpoint` by one inbound flight and return what it wants to
/// transmit. Pass an empty flight to start a client (its ClientHello
/// needs no input). Once the endpoint is established further calls are
/// no-ops returning an empty flight — duplicate or late flights from a
/// transport are absorbed rather than treated as fatal. Throws
/// HandshakeError on protocol, certificate or MAC failure, exactly as
/// process() does. An async_pk server that suspends mid-flight returns
/// with `pk_pending` set and an empty output — service the job and call
/// TlsServer::resume_pk() for the flight. This is the single-step
/// primitive the lockstep run_handshake() helper is built from;
/// event-driven callers (mapsec::server) use it directly to pump
/// endpoints message by message.
HandshakeStep step_handshake(HandshakeEndpoint& endpoint,
                             crypto::ConstBytes inbound);

/// Drive two endpoints to completion in memory. `tap`, when non-null,
/// receives every flight (direction, bytes) — the eavesdropper's view.
/// Suspended async_pk servers are serviced inline (run_pk_job), so the
/// driver works for any endpoint configuration.
struct TappedFlight {
  bool client_to_server;
  crypto::Bytes data;
};

void run_handshake(HandshakeEndpoint& client, HandshakeEndpoint& server,
                   std::vector<TappedFlight>* tap = nullptr);

}  // namespace mapsec::protocol
