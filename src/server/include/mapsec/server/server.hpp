// Event-driven secure-session server.
//
// This is the serving layer the ROADMAP's north star asks for, sized
// against the paper's Figure 3 claim: secure-session *rates* — RSA
// handshakes per second and protected bulk throughput — are what a
// mobile appliance's MIPS budget cannot sustain. The server runs the
// full TlsServer handshake and record layer per connection over
// mapsec::net's lossy transport, with:
//
//   * session resumption through any protocol::SessionCache (use
//     BoundedSessionCache for LRU+TTL bounds),
//   * per-connection handshake and idle timeouts,
//   * backpressure: a bounded per-connection echo queue; application
//     data beyond it is deferred, never dropped,
//   * a bulk echo path through the PacketPipeline — record protection
//     (AES-CCM via the ccmp programs) shards across workers by
//     connection, bit-identical for any worker count. Echoes are sealed
//     in the instant they arrive: the flush runs once the instant's
//     other work is done, with no timer in between,
//   * graceful close, and per-server counters plus a simulated-time
//     handshake-latency histogram,
//   * retirement: a finished connection releases its handshake state and
//     SA, and leaves the table once its link is dead too, so memory and
//     per-flush work follow the live connections, not every connection
//     ever accepted.
//
// Single-threaded by design: every callback runs on the EventQueue, and
// the only parallelism is inside PacketPipeline::run_batch with more than
// one worker — which is deterministic — so a whole serving run is a pure
// function of its seeds.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mapsec/analysis/stats.hpp"
#include "mapsec/engine/offload_engine.hpp"
#include "mapsec/engine/packet_pipeline.hpp"
#include "mapsec/net/link.hpp"
#include "mapsec/protocol/handshake.hpp"
#include "mapsec/server/wire.hpp"
#include "mapsec/ticket/ticket.hpp"

namespace mapsec::server {

struct ServerConfig {
  /// Server credentials (cert_chain, private_key, rng, ...); copied per
  /// connection.
  protocol::HandshakeConfig handshake;

  net::SimTime handshake_timeout_us = 5'000'000;
  net::SimTime idle_timeout_us = 30'000'000;

  /// Backpressure: per-connection cap on queued-but-unsealed echo bytes.
  std::size_t max_pending_echo_bytes = 64 * 1024;

  /// Per-connection cap on deferred (backpressured) application bytes.
  /// A peer that keeps pushing past both this and the echo cap is
  /// violating flow control — the connection fails cleanly instead of
  /// growing memory without bound. 0 = unlimited (the pre-hardening
  /// behaviour).
  std::size_t max_deferred_appdata_bytes = 256 * 1024;

  // ---- admission control (all 0 = disabled) ---------------------------
  /// Refuse new connections once this many are open (handshaking +
  /// established). The refusal costs one kRefused message, not a
  /// handshake endpoint.
  std::size_t max_open_connections = 0;
  /// Bounded handshake queue: refuse new connections while this many
  /// are still mid-handshake. This is the flood valve — handshakes are
  /// where the RSA work and the per-connection state live.
  std::size_t max_handshake_queue = 0;
  /// How long a refused connection's link lingers so the kRefused
  /// message can be (re)delivered before the server stops acking.
  net::SimTime refusal_linger_us = 1'000'000;

  // ---- graceful degradation (0 = disabled) ----------------------------
  /// Entering/leaving resumption-only mode: above the high watermark of
  /// in-flight handshakes new connections may only resume (full
  /// handshakes are refused at the ClientHello, before any RSA work);
  /// below the low watermark (default high/2) full service resumes.
  std::size_t degraded_high_watermark = 0;
  std::size_t degraded_low_watermark = 0;

  /// Bulk jobs accumulate across connections and flush through the
  /// pipeline once the current instant's other work is done (see
  /// schedule_flush). At one worker the batch runs on the event loop's
  /// own thread.
  std::size_t pipeline_workers = 1;
  std::uint64_t pipeline_seed = 0xC0FFEE;
  engine::EngineProfile engine_profile;

  // ---- public-key offload (0 = inline, the pre-offload behaviour) -----
  /// Accelerator lanes / worker threads for the OffloadEngine. When set,
  /// every connection handshakes in async_pk mode: private-key operations
  /// leave the event loop, and their completions return as simulated
  /// events at the modeled accelerator finish time. The honest-fleet
  /// transcript digest is byte-identical for ANY worker count (and for
  /// inline mode) — only simulated timing changes.
  std::size_t offload_workers = 0;
  engine::OffloadCosts offload_costs;
  /// Wall-clock grace before a completion event recomputes a stalled
  /// worker's job inline (graceful degradation, never deadlock).
  std::uint64_t offload_steal_timeout_ms = 250;
  /// Max queued jobs one accelerator lane drains per service window
  /// (engine::OffloadEngine batch_width). 1 = unbatched; wider windows
  /// amortize the modeled lane cost (OffloadCosts::batch_marginal) under
  /// queueing. Results and the fleet digest are identical for any width.
  std::size_t offload_batch_width = 1;

  // ---- stateless session tickets (mapsec::ticket) ---------------------
  /// Ticket mode runs alongside (and is preferred over) the session
  /// cache: resumption state becomes O(key-ring depth) instead of
  /// O(cached users). The ring rotates lazily off the event queue's
  /// SimTime at accept(); rotations never strand an honest client holding
  /// a ticket sealed within the decrypt window, and any ticket failure
  /// falls back to a full handshake.
  struct TicketConfig {
    bool enabled = false;
    std::uint64_t key_seed = 0x71C7E7;  ///< deterministic sealing keys
    std::size_t decrypt_window = 3;     ///< current key + predecessors
    net::SimTime rotation_interval_us = 0;  ///< 0 = manual rotation only
    net::SimTime lifetime_us = 0;           ///< ticket expiry; 0 = none
    std::size_t max_wire_len = 512;  ///< oversize-blob refusal threshold
    /// Birth time of the key ring (kRingBirthNow = the queue's now() at
    /// construction, the normal case). A supervised shard that rejoins
    /// after a crash is rebuilt mid-run, and its ring must be a replica of
    /// the one that died: same seed, same birth, then the supervisor
    /// replays the recorded rotation history — so tickets sealed before
    /// the crash open on the rejoined shard.
    static constexpr std::uint64_t kRingBirthNow = ~std::uint64_t{0};
    std::uint64_t ring_birth_us = kRingBirthNow;
  };
  TicketConfig ticket;

  // ---- modeled host core (all 0 = free processing, the pre-shard
  // behaviour) ----------------------------------------------------------
  /// The serving tier's own CPU budget, in simulated time. The event loop
  /// so far processed every message in zero sim time, which makes the
  /// session layer look free — exactly the assumption the paper's Figure 3
  /// attacks. With a core model, each inbound handshake flight or appdata
  /// record occupies this server's (= this shard's) one modeled core for a
  /// deterministic service time; messages arriving while the core is busy
  /// queue FIFO and drain in order. N shards = N cores, so aggregate
  /// handshake rate scales with the shard count while the transcript
  /// stays byte-identical.
  struct CoreModel {
    double us_per_pk_op = 0;      ///< one RSA private op, inline mode only
    double us_per_flight = 0;     ///< fixed cost per handshake flight
    double us_per_appdata_kb = 0; ///< record open + echo enqueue, per KiB
    bool enabled() const {
      return us_per_pk_op > 0 || us_per_flight > 0 || us_per_appdata_kb > 0;
    }
  };
  CoreModel core;

  net::LinkConfig link;
};

/// Barrier-frozen fleet admission snapshot, recomputed by the sharded
/// tier's cross-shard merge at every slice boundary. When installed via
/// set_fleet_control(), admission and degraded-mode decisions read ONLY
/// this snapshot — never the shard's live local counters — so every
/// shard's decisions depend on slice-boundary state that is identical for
/// any shard count, not on which shard a neighbouring connection landed
/// on.
struct FleetControl {
  std::size_t open_connections = 0;
  std::size_t handshakes_in_flight = 0;
  bool degraded = false;
};

/// Every scalar ServerStats field, declared once as X(type, name, merge).
/// `merge` says how two shards' values combine: `sum` for counters and
/// totals, `max` for high-water marks. The members and operator+= are
/// both generated from this list, so the fleet merge covers every field
/// by construction.
#define MAPSEC_SERVER_STATS_FIELDS(X)                                     \
  X(std::uint64_t, connections_accepted, sum)                             \
  X(std::uint64_t, handshakes_started, sum)                               \
  X(std::uint64_t, handshakes_completed, sum)                             \
  X(std::uint64_t, handshakes_failed, sum)                                \
  X(std::uint64_t, full_handshakes, sum)                                  \
  X(std::uint64_t, resumed_handshakes, sum)                               \
  X(std::uint64_t, app_messages, sum)                                     \
  X(std::uint64_t, bulk_messages, sum)                                    \
  X(std::uint64_t, bytes_opened, sum) /* app plaintext received */        \
  X(std::uint64_t, bytes_sealed, sum) /* app plaintext protected */       \
  X(std::uint64_t, backpressure_deferrals, sum)                           \
  X(std::uint64_t, idle_closes, sum)                                      \
  X(std::uint64_t, graceful_closes, sum)                                  \
  X(std::uint64_t, link_failures, sum)                                    \
  X(double, engine_cycles, sum) /* simulated pipeline cost, bulk path */  \
  /* ---- robustness / overload accounting ---- */                       \
  X(std::uint64_t, failed_connections, sum) /* every fail_connection */   \
  X(std::uint64_t, refused_connections, sum) /* shed by admission */      \
  X(std::uint64_t, degraded_refusals, sum) /* full hs shed, degraded */   \
  X(std::uint64_t, poisoned_connections, sum) /* exception contained */   \
  X(std::uint64_t, deferred_overflow_closes, sum)                         \
  X(std::uint64_t, degraded_transitions, sum) /* degraded-mode entries */ \
  /* Degraded time over CLOSED stretches; the live total is               \
     SecureSessionServer::degraded_time_us(). */                          \
  X(double, degraded_time_us, sum)                                        \
  /* Handshake-layer work performed, added at each connection's           \
     terminal state: the inputs to attacker-energy pricing. */            \
  X(std::uint64_t, handshake_rsa_private_ops, sum)                        \
  X(std::uint64_t, handshake_bytes_rx, sum)                               \
  X(std::uint64_t, handshake_bytes_tx, sum)                               \
  /* Bounded-memory high-water marks: largest queued-echo and             \
     deferred-appdata backlog any connection reached. */                  \
  X(std::uint64_t, peak_pending_echo_bytes, max)                          \
  X(std::uint64_t, peak_deferred_bytes, max)                              \
  /* ---- modeled-core accounting (ServerConfig::core) ---- */            \
  X(double, core_busy_us, sum) /* simulated service time consumed */      \
  X(std::uint64_t, core_deferred_msgs, sum) /* found the core busy */     \
  X(std::uint64_t, core_peak_queue, max) /* deepest core backlog */       \
  /* ---- stateless tickets; issued and open failures are read off the    \
     TicketCodec by SecureSessionServer::stats() ---- */                  \
  X(std::uint64_t, tickets_issued, sum) /* NewSessionTickets sealed */    \
  X(std::uint64_t, ticket_resumptions, sum) /* resumed via ticket */      \
  X(std::uint64_t, ticket_open_failures, sum) /* bad/stale/expired */     \
  X(std::uint64_t, ticket_key_rotations, sum) /* interval+manual+chaos */ \
  /* ---- public-key offload; all but `dropped` are read off the          \
     OffloadEngine by SecureSessionServer::stats() ---- */                \
  X(std::uint64_t, offload_submitted, sum)                                \
  X(std::uint64_t, offload_completed, sum)                                \
  X(std::uint64_t, offload_stolen, sum) /* wall-clock steals */           \
  X(std::uint64_t, offload_dropped, sum) /* completions for dead conns */ \
  X(std::uint64_t, offload_peak_depth, max) /* deferred hs at once */     \
  X(std::uint64_t, offload_queue_wait_us, sum) /* wait for a free lane */ \
  X(std::uint64_t, offload_lane_busy_us, sum) /* lane service time */     \
  X(std::uint64_t, offload_batches, sum) /* lane windows dispatched */    \
  X(std::uint64_t, offload_batched_jobs, sum) /* jobs sharing a window */ \
  X(std::uint64_t, offload_max_batch_fill, max) /* largest window fill */

/// One server's (or, merged, one fleet's) books. Constant size: the
/// latencies live in fixed-layout histograms, so a long-lived server's
/// bookkeeping never grows with the handshakes it has served.
struct ServerStats {
#define MAPSEC_SERVER_STATS_MEMBER(type, name, merge) type name = 0;
  MAPSEC_SERVER_STATS_FIELDS(MAPSEC_SERVER_STATS_MEMBER)
#undef MAPSEC_SERVER_STATS_MEMBER

  /// Completed-handshake latency in simulated microseconds (wall-clock
  /// microseconds on the socket bearer), recorded at completion. The
  /// split by kind compares full and resumed handshakes within ONE run
  /// at one offered load — cross-scenario rate comparisons conflate
  /// arrival rate with handshake cost.
  analysis::LatencyHistogram handshake_latency;
  analysis::LatencyHistogram full_handshake_latency;
  analysis::LatencyHistogram resumed_handshake_latency;

  /// Fold another shard's books in: `sum` fields add, `max` fields take
  /// the larger value, histograms merge exactly.
  ServerStats& operator+=(const ServerStats& other);

  double resumption_rate() const {
    return handshakes_completed == 0
               ? 0.0
               : static_cast<double>(resumed_handshakes) /
                     static_cast<double>(handshakes_completed);
  }
};

class SecureSessionServer {
 public:
  /// `cache` (optional, not owned) enables resumption. The queue, cache
  /// and channels must outlive the server; the server must outlive the
  /// queue's remaining events (keep it alive until the run drains).
  SecureSessionServer(net::EventQueue& queue, ServerConfig config,
                      protocol::SessionCache* cache);

  SecureSessionServer(const SecureSessionServer&) = delete;
  SecureSessionServer& operator=(const SecureSessionServer&) = delete;

  /// Per-connection accept parameters for the sharded tier, where the
  /// server-local dense connection id is NOT stable across shard counts
  /// and must never reach the wire or a key derivation.
  struct AcceptOptions {
    /// On-the-wire identity: bulk-header SPI, pipeline SA id, bulk-key
    /// derivation input. 0 = use the local connection id (the
    /// single-server behaviour).
    std::uint32_t wire_id = 0;
    /// Seed for a per-connection handshake DRBG. 0 = use the shared
    /// ServerConfig::handshake.rng; nonzero gives this connection its own
    /// stream, so the draw order no longer depends on which connections
    /// share a server.
    std::uint64_t rng_seed = 0;
  };

  /// Take the server side of a duplex link: `tx` carries frames to the
  /// client, `rx` delivers the client's. Returns the connection id.
  std::uint32_t accept(net::Channel& tx, net::Channel& rx);
  std::uint32_t accept(net::Channel& tx, net::Channel& rx,
                       const AcceptOptions& opts);

  /// Install (or clear, with nullptr) the fleet admission snapshot; not
  /// owned, must outlive the server or be cleared. See FleetControl.
  void set_fleet_control(const FleetControl* control) {
    fleet_control_ = control;
  }

  /// Snapshot of the books, with the OffloadEngine and TicketCodec
  /// counters copied in.
  ServerStats stats() const;
  const engine::PacketPipeline& pipeline() const { return pipeline_; }
  engine::PacketPipeline& pipeline_for_chaos() { return pipeline_; }
  /// nullptr when offload_workers == 0 (inline public-key mode).
  const engine::OffloadEngine* offload() const { return offload_.get(); }
  engine::OffloadEngine* offload_for_chaos() { return offload_.get(); }

  /// nullptr unless ServerConfig::ticket.enabled.
  const ticket::TicketCodec* ticket_codec() const {
    return ticket_codec_.get();
  }
  /// Force a sealing-key rotation NOW (chaos TicketKeyRotation fault and
  /// operational key-compromise response). No-op without ticket mode.
  void rotate_ticket_key();
  /// Server-side resumption state pinned by ticket mode: O(ring depth),
  /// independent of user count. 0 without ticket mode.
  std::size_t ticket_state_bytes() const {
    return ticket_ring_ ? ticket_ring_->state_bytes() : 0;
  }
  std::size_t open_connections() const {
    return handshakes_in_flight_ + established_count_;
  }
  std::size_t handshakes_in_flight() const { return handshakes_in_flight_; }
  /// Connections in kEstablished — open == in_flight + established; O(1),
  /// for the sharded merge's per-barrier fleet snapshot.
  std::size_t established_connections() const { return established_count_; }
  /// Entries in the connection table (tests): the open connections plus
  /// finished ones whose link still owes the peer a retransmission.
  std::size_t tracked_connections() const { return connections_.size(); }

  /// Degraded (resumption-only) mode: current state and cumulative
  /// simulated time spent degraded, including the open stretch. Under a
  /// FleetControl snapshot the fleet-level flag is what admission sees.
  bool degraded() const {
    return fleet_control_ ? fleet_control_->degraded : degraded_;
  }
  double degraded_time_us() const;

  /// Conservation invariant the chaos campaigns assert after every run:
  /// every accepted connection is accounted for exactly once.
  ///   accepted == graceful + idle + failed + refused + open
  bool stats_conserved() const;

  /// Hard-kill accounting: fail every connection still open (handshaking
  /// or established) with `reason`, leaving the stats conserved — the
  /// supervisor calls this before destroying a crashed shard's server so
  /// the victim's partial counters merge into the fleet totals exactly.
  /// Returns the number of connections failed.
  std::size_t fail_all_connections(const std::string& reason);

 private:
  enum class ConnState {
    kHandshake,
    kEstablished,
    kClosed,
    kFailed,
    kShed,  // refused by admission control; link lingers to deliver kRefused
  };

  struct Connection {
    std::uint32_t id = 0;
    std::uint32_t wire_id = 0;  // on-the-wire SPI; == id unless sharded
    std::unique_ptr<crypto::HmacDrbg> rng;  // per-connection stream, opt.
    ConnState state = ConnState::kHandshake;
    bool echo_listed = false;      // id is in echo_ids_
    bool deferred_listed = false;  // id is in deferred_ids_
    std::unique_ptr<net::ReliableLink> link;
    std::unique_ptr<protocol::TlsServer> endpoint;
    net::SimTime accepted_at = 0;
    net::SimTime last_activity = 0;
    net::EventId handshake_timer = 0;
    net::EventId idle_timer = 0;
    std::uint32_t bulk_seq = 1;
    std::deque<crypto::Bytes> pending_echo;  // plaintext awaiting the pipeline
    std::size_t pending_echo_bytes = 0;
    std::deque<crypto::Bytes> deferred_appdata;  // backpressured inbound
    std::size_t deferred_bytes = 0;
  };

  Connection* find(std::uint32_t id);
  void schedule_retire(std::uint32_t id);
  void retire(std::uint32_t id);
  void on_message(std::uint32_t id, crypto::ConstBytes msg);
  void deliver_message(std::uint32_t id, crypto::ConstBytes msg);
  void charge_core(Connection& conn, MsgKind kind, std::size_t body_bytes,
                   double rsa_ops_before);
  void drain_core();
  void on_link_error(std::uint32_t id, const std::string& reason);
  void handle_handshake(Connection& conn, crypto::ConstBytes body);
  void submit_pk(Connection& conn);
  void handle_appdata(Connection& conn, crypto::ConstBytes body);
  void process_appdata(Connection& conn, crypto::ConstBytes records);
  void complete_handshake(Connection& conn);
  void fail_connection(Connection& conn, const std::string& reason);
  void close_connection(Connection& conn, std::uint64_t ServerStats::*counter);
  void arm_idle_timer(Connection& conn);
  void schedule_flush();
  void flush_pipeline();
  bool should_refuse() const;
  void refuse_connection(Connection& conn);
  void leave_handshake(Connection& conn);  // bookkeeping on queue exit
  void account_handshake_work(const Connection& conn);
  void update_degraded();

  net::EventQueue& queue_;
  ServerConfig config_;
  protocol::SessionCache* cache_;
  engine::PacketPipeline pipeline_;
  std::unique_ptr<engine::OffloadEngine> offload_;
  std::unique_ptr<ticket::TicketKeyRing> ticket_ring_;
  std::unique_ptr<ticket::TicketCodec> ticket_codec_;
  /// Keyed by id. Ids are dense and never reused (the single loop's
  /// wire id, SPI and nonce stream derive from them); entries leave at
  /// retirement, so the table holds only live connections.
  std::unordered_map<std::uint32_t, Connection> connections_;
  std::uint32_t next_id_ = 0;
  /// Connections holding a pending echo / deferred appdata: what a flush
  /// visits (sorted into id order), instead of the whole table.
  std::vector<std::uint32_t> echo_ids_;
  std::vector<std::uint32_t> deferred_ids_;
  bool flush_scheduled_ = false;
  std::size_t handshakes_in_flight_ = 0;  // connections in kHandshake
  std::size_t established_count_ = 0;     // connections in kEstablished
  bool degraded_ = false;
  net::SimTime degraded_since_ = 0;
  const FleetControl* fleet_control_ = nullptr;

  // Modeled host core (ServerConfig::core): one server = one core.
  net::SimTime core_busy_until_ = 0;
  std::deque<std::pair<std::uint32_t, crypto::Bytes>> core_queue_;
  bool core_drain_scheduled_ = false;

  ServerStats stats_;
};

}  // namespace mapsec::server
