// Client-side session driver: connect, handshake (with retry/backoff),
// send application data, verify the echoed bulk records byte-exactly,
// close gracefully.
//
// This is the handset side of the paper's serving story: a client on a
// lossy bearer that must establish a secure session within a latency
// budget, resume when it can (the abbreviated handshake that spares the
// RSA op), and give up cleanly after a bounded number of attempts. Each
// client is fully deterministic given its seed; a fleet of them is the
// LoadGenerator's workload.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mapsec/engine/protocol_engine.hpp"
#include "mapsec/net/link.hpp"
#include "mapsec/protocol/handshake.hpp"
#include "mapsec/server/wire.hpp"

namespace mapsec::server {

struct ClientConfig {
  /// Client credentials/trust anchors. `rng` is ignored — each client
  /// owns a seeded rng.
  protocol::HandshakeConfig handshake;
  net::LinkConfig link;

  net::SimTime handshake_timeout_us = 3'000'000;
  net::SimTime attempt_timeout_us = 30'000'000;  // whole-session deadline
  int retry_budget = 3;  // connection attempts per session before giving up
  net::SimTime retry_backoff_us = 200'000;  // doubles per failed attempt
  /// Ceiling on one retry wait — keeps large retry budgets from shifting
  /// the backoff into overflow (and the client from sulking for hours of
  /// simulated time). 0 = uncapped doubling.
  net::SimTime max_retry_backoff_us = 5'000'000;

  std::size_t payload_bytes = 256;
  int payloads_per_session = 4;
  net::SimTime think_time_us = 10'000;

  /// Sessions run back to back; the second and later ones request
  /// resumption with the previous session's ticket.
  int sessions = 1;

  /// Stateless resumption: request a NewSessionTicket on every handshake
  /// and offer the latest opaque blob (instead of the session id) on
  /// subsequent attempts. Against a server without ticket mode this
  /// degrades transparently to session-id resumption.
  bool use_session_tickets = false;

  /// Wait before the first reconnect attempt after the supervisor reports
  /// the client's shard dead (models failure detection plus rerouting to
  /// the failover shard). Subsequent failures of the reconnect itself pay
  /// the normal capped exponential backoff.
  net::SimTime failover_reconnect_delay_us = 50'000;

  /// Complete the handshake, then go silent without closing (exercises
  /// the server's idle timeout).
  bool linger = false;
};

/// Outcome of one session (one entry per session attempted).
struct SessionRecord {
  bool completed = false;
  bool failed = false;  // gave up after the retry budget
  bool resumed = false;
  bool ticket_resumed = false;  // resumed statelessly (ticket, not sid)
  bool echo_ok = true;
  int attempts = 0;
  int refused_attempts = 0;  // attempts shed by server admission control
  net::SimTime handshake_latency_us = 0;
  std::string fail_reason;
};

class SessionClient {
 public:
  /// Produce a fresh transport for one connection attempt: the
  /// environment builds a channel, has the server accept its side, and
  /// returns the client-side link (which the client then owns).
  using ConnectFn =
      std::function<std::unique_ptr<net::ReliableLink>(SessionClient&)>;

  /// `engine` opens the server's CCM bulk records (shared, read-only —
  /// each client keeps its own SA and rng). All references must outlive
  /// the client.
  SessionClient(net::EventQueue& queue, ClientConfig config,
                std::uint32_t id, const engine::ProtocolEngine& engine,
                std::uint64_t seed);

  SessionClient(const SessionClient&) = delete;
  SessionClient& operator=(const SessionClient&) = delete;

  void set_connect(ConnectFn fn) { connect_ = std::move(fn); }
  void set_on_finished(std::function<void(SessionClient&)> fn) {
    on_finished_ = std::move(fn);
  }

  /// Begin the first session at the current simulated time.
  void start();

  /// Schedule start() at absolute simulated time `at` on the client's
  /// queue. Prefer this over scheduling start() by hand: a client whose
  /// shard dies before its arrival keeps the arrival — on_shard_failover
  /// re-arms it on the failover shard's queue.
  void schedule_start(net::SimTime at);

  /// Fleet-supervisor notification, between slices: this client's shard
  /// died (its queue may have been cleared) and the connect function now
  /// routes to a survivor. Rebinds the client to `new_queue`, tears down
  /// the dead transport, and — when a session was in flight — schedules a
  /// ticket-first reconnect after failover_reconnect_delay_us. The
  /// blackout window is measured from `outage_started_at` (the simulated
  /// instant the shard stopped serving) to re-establishment.
  void on_shard_failover(net::EventQueue& new_queue,
                         net::SimTime outage_started_at);

  std::uint32_t id() const { return id_; }
  bool finished() const { return finished_; }
  /// No connection in flight: not yet started, waiting out the gap before
  /// the next session, or done. A graceful drain migrates idle clients
  /// immediately and lets busy ones finish where they are.
  bool idle() const {
    return finished_ || !started_ || awaiting_next_session_;
  }
  const std::vector<SessionRecord>& sessions() const { return records_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t bytes_echoed() const { return bytes_echoed_; }
  net::EventQueue& queue() const { return *queue_; }

  /// Failover telemetry: connections torn down by a shard death, sessions
  /// re-established via resumption after such a reconnect, and one
  /// blackout sample (outage start -> session re-established) per
  /// reconnect that made it back.
  int reconnects() const { return reconnects_; }
  int failover_resumes() const { return failover_resumes_; }
  const std::vector<net::SimTime>& failover_blackouts_us() const {
    return blackouts_us_;
  }

  /// Running SHA-256 over the first verified echo of every payload index,
  /// in index order per session — the soak tests pin it and compare it
  /// across offload lanes and shard topologies. Payload bytes are
  /// a pure function of (client seed, session, index) and each index is
  /// folded in at most once, so a session interrupted by a shard crash
  /// and resumed elsewhere contributes exactly the bytes an undisturbed
  /// run would have.
  const crypto::Bytes& transcript_digest() const { return digest_; }

 private:
  void start_session();
  void begin_attempt();
  void on_message(crypto::ConstBytes msg);
  void handle_handshake(crypto::ConstBytes body);
  void handle_bulk(crypto::ConstBytes body);
  void on_established();
  void send_next_payload();
  void maybe_close();
  void attempt_failed(const std::string& reason);
  void session_done();
  void schedule_next_session(net::SimTime at);
  void finish_client();
  void cancel_timers();
  crypto::Bytes make_payload(int session, int index) const;

  net::EventQueue* queue_;  // rebindable: failover moves the client
  ClientConfig config_;
  std::uint32_t id_;
  const engine::ProtocolEngine& engine_;

  crypto::HmacDrbg rng_;        // handshake endpoint randomness
  std::uint64_t payload_seed_;  // application payloads, derived per index
  crypto::HmacDrbg engine_rng_;  // engine run() nonce source (unused by
                                 // the inbound program, required by API)

  ConnectFn connect_;
  std::function<void(SessionClient&)> on_finished_;

  // Current-session state.
  std::unique_ptr<net::ReliableLink> link_;
  std::unique_ptr<protocol::TlsClient> tls_;
  // Invalidates timers of torn-down attempts. Atomic because after a
  // failover migration a cancelled timer's lambda can still fire on the
  // OLD shard's thread while the new shard runs the client; the stale
  // lambda reads only this field (its epoch mismatches, so the && chain
  // short-circuits before any other member) and no-ops. Every lambda
  // whose epoch CAN match lives on the client's currently-bound queue,
  // so all other state stays single-threaded.
  std::atomic<std::uint64_t> epoch_{0};
  int session_index_ = 0;
  net::SimTime attempt_started_at_ = 0;
  net::EventId handshake_timer_ = 0;
  net::EventId attempt_timer_ = 0;
  std::vector<crypto::Bytes> sent_payloads_;
  int echoes_received_ = 0;
  int digested_through_ = 0;  // payload indexes already folded into digest_
  bool all_sent_ = false;
  bool close_sent_ = false;
  engine::EngineSa bulk_sa_;
  bool bulk_active_ = false;

  // Arrival / inter-session state the failover path must re-arm when the
  // events carrying it die with a cleared shard queue.
  bool started_ = false;
  bool has_scheduled_start_ = false;
  net::SimTime start_at_ = 0;
  bool awaiting_next_session_ = false;
  net::SimTime next_session_at_ = 0;

  // Failover telemetry.
  bool in_failover_ = false;
  net::SimTime blackout_started_at_ = 0;
  int reconnects_ = 0;
  int failover_resumes_ = 0;
  std::vector<net::SimTime> blackouts_us_;

  struct Ticket {
    crypto::Bytes session_id;
    crypto::Bytes master_secret;
    protocol::CipherSuite suite;
    crypto::Bytes opaque;  // NewSessionTicket blob (empty: none issued)
  };
  std::optional<Ticket> ticket_;

  std::vector<SessionRecord> records_;
  bool finished_ = false;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_echoed_ = 0;
  crypto::Bytes digest_;
};

}  // namespace mapsec::server
