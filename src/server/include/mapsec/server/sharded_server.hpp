// Sharded multi-core serving tier: N independent event-loop shards with a
// deterministic cross-shard merge.
//
// Every PR so far parallelized the crypto under ONE event loop
// (PacketPipeline workers, OffloadEngine lanes, batch windows); the
// serving tier itself — accepts, timers, the session state machine —
// still ran on one core. This tier shards it: each shard owns its own
// net::EventQueue, SecureSessionServer (with its own modeled core,
// PacketPipeline workers and OffloadEngine lanes), BoundedSessionCache
// partition and TicketKeyRing, and a real std::thread drives each shard's
// queue (net::ShardExecutor) while SIMULATED time remains the clock.
// Connections hash to shards by a stable FNV-1a over the client's
// connection key at accept time — session affinity, the way an L4 hash on
// the client address routes a handset's reconnects to the same front-end.
//
// Cross-shard effects go through an epoch-barrier merge: shards advance
// in bounded time slices (slice_us), and at every slice boundary the
// merge step — on the coordinating thread, with all shards quiescent —
// (1) applies due control messages (ticket key rotations, chaos ops) to
// the shards in deterministic (due, seq) order, and (2) recomputes the
// barrier-frozen FleetControl snapshot from which EVERY admission and
// degraded-mode decision is taken until the next barrier. Nothing
// shard-count-dependent reaches the wire (AcceptOptions::wire_id), key
// derivation, or a client-visible decision, so the fleet transcript
// digest is byte-identical for shard counts {1, 2, 4, 8} — the same
// invariant PR 5/PR 6 proved for offload lanes and batch widths.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "mapsec/platform/gap.hpp"
#include "mapsec/server/client.hpp"
#include "mapsec/server/server.hpp"
#include "mapsec/server/session_cache.hpp"

namespace mapsec::net {
class ShardExecutor;
}  // namespace mapsec::net

namespace mapsec::server {

/// Stable shard routing: FNV-1a over the little-endian bytes of the
/// 32-bit connection key, mod the shard count. Pure function of
/// (key, shards) — never of accept order or load.
std::size_t shard_for(std::uint32_t conn_key, std::size_t shards);

/// Failover-aware routing: highest-random-weight (rendezvous) hashing
/// over the shards marked routable. Every (key, shard) pair has a fixed
/// weight, and a key lands on its highest-weighted routable shard — so
/// when one shard dies, ONLY its keys move (each to its next-highest
/// survivor); every other key's argmax is untouched. With all shards
/// routable this is the stable rendezvous placement (distinct from
/// shard_for's modulo hash, which the non-supervised tier keeps for
/// byte-compatibility). Falls back to shard_for when nothing is routable.
std::size_t shard_for_live(std::uint32_t conn_key, std::size_t shards,
                           const std::vector<bool>& routable);

/// Global wire identity for a connection attempt: the client's connection
/// key and its per-client attempt ordinal, packed so the value is
/// independent of which shard (and which dense local id) serves it.
/// Nonzero for every (key, attempt), as AcceptOptions::wire_id requires.
inline std::uint32_t make_wire_id(std::uint32_t conn_key,
                                  std::uint32_t attempt) {
  return ((conn_key + 1) << 16) | (attempt & 0xFFFF);
}

struct ShardedServerConfig {
  std::size_t shards = 1;
  /// Epoch-barrier granularity: shards never run more than this far
  /// before the merge re-freezes the fleet admission snapshot.
  net::SimTime slice_us = 1'000;

  /// Per-shard server template. Admission and degraded watermarks are
  /// interpreted as FLEET limits (the merge enforces them via
  /// FleetControl), so one config means the same policy at any shard
  /// count.
  ServerConfig server;

  /// FLEET cache capacity, split evenly across shard partitions
  /// (ceil(capacity / shards) each; 0 stays 0 for ticket mode).
  BoundedSessionCache::Config cache;
};

/// Per-shard slice of the fleet report (satellite of the conservation
/// assert: the fleet totals must equal the sum of these).
struct ShardBreakdown {
  std::size_t shard = 0;
  ServerStats server;
  BoundedSessionCache::Stats cache;
  std::size_t cache_state_bytes = 0;
  std::size_t ticket_state_bytes = 0;
};

class ShardedServer {
 public:
  explicit ShardedServer(ShardedServerConfig config);
  virtual ~ShardedServer();

  ShardedServer(const ShardedServer&) = delete;
  ShardedServer& operator=(const ShardedServer&) = delete;

  std::size_t shards() const { return shards_.size(); }
  /// Routing. The base tier hashes over all shards; the supervisor
  /// overrides this with liveness- and binding-aware routing.
  virtual std::size_t shard_of(std::uint32_t conn_key) const {
    return shard_for(conn_key, shards_.size());
  }
  net::EventQueue& queue(std::size_t shard) { return *shards_[shard]->queue; }
  SecureSessionServer& server(std::size_t shard) {
    return *shards_[shard]->server;
  }
  BoundedSessionCache& cache(std::size_t shard) {
    return *shards_[shard]->cache;
  }

  /// Accept on the shard chosen by `conn_key`'s hash. The channels must
  /// live on that shard's queue. Safe from the owning shard's thread
  /// during a slice (it only touches that shard's world).
  std::uint32_t accept(std::uint32_t conn_key, net::Channel& tx,
                       net::Channel& rx,
                       const SecureSessionServer::AcceptOptions& opts);

  /// Enqueue a fleet-wide control operation, applied to every shard in
  /// shard order at the first epoch barrier at or after `due` — ordered
  /// against other control messages by (due, enqueue seq). Call only
  /// between slices (or before run()).
  void schedule_control(
      net::SimTime due,
      std::function<void(SecureSessionServer&, std::size_t)> op);

  /// Rotate every shard's ticket-sealing key at the first barrier >= due
  /// (all rings share a seed, so epochs stay in lockstep and a ticket
  /// sealed by one shard count opens under any other).
  void rotate_ticket_keys(net::SimTime due);

  struct RunStats {
    std::uint64_t epochs = 0;            // slice barriers crossed
    std::uint64_t control_applied = 0;   // control ops delivered (x shards)
    std::size_t events_run = 0;          // across all shards
    bool drained = true;                 // finished within max_events
    std::size_t peak_open_connections = 0;  // fleet high-water at barriers
    std::uint64_t degraded_transitions = 0;  // fleet-level entries
    double degraded_time_us = 0;             // fleet-level total
  };

  /// Drive all shards to quiescence through bounded slices and barrier
  /// merges. Spawns one thread per shard for the duration of the call.
  RunStats run(std::size_t max_events = 100'000'000);

  const FleetControl& fleet_control() const { return control_; }
  std::size_t open_connections() const;

  /// Fleet totals: every shard's books merged with ServerStats::+=, plus
  /// the fleet-level degraded accounting from the merge.
  ServerStats fleet_stats() const;
  std::vector<ShardBreakdown> breakdown() const;

  /// The sharded conservation invariant: every shard's own accounting
  /// conserves AND the fleet totals equal the per-shard sums. Retired
  /// (pre-crash) worlds are folded in: a shard death may never lose a
  /// connection from the books.
  bool conserved() const;

 protected:
  struct Shard {
    std::unique_ptr<net::EventQueue> queue;
    std::unique_ptr<crypto::HmacDrbg> fallback_rng;
    std::unique_ptr<BoundedSessionCache> cache;
    std::unique_ptr<SecureSessionServer> server;
    /// Supervision state. A dead shard keeps its (crashed) server object
    /// for accounting until the warm rejoin replaces it; `retired`
    /// accumulates the counters of every world this slot has already
    /// buried, so fleet totals survive the replacement.
    bool alive = true;
    std::uint64_t heartbeats = 0;  // barrier heartbeat ticks (shard thread)
    ServerStats retired;
    BoundedSessionCache::Stats retired_cache;
  };

  struct ControlMessage {
    net::SimTime due = 0;
    std::uint64_t seq = 0;
    std::function<void(SecureSessionServer&, std::size_t)> op;
  };

  /// Hooks the supervisor layers onto the run loop. `at_barrier` runs on
  /// the coordinator with all shards quiescent, BEFORE the control merge
  /// of the same barrier (a shard killed here is excluded from the fleet
  /// snapshot that follows). `next_lifecycle_due` keeps the loop alive
  /// for pending lifecycle work (e.g. a rejoin) even when every queue has
  /// drained. `configure_executor` runs once per run() before the first
  /// slice (watchdog installation).
  virtual void at_barrier(net::SimTime now, RunStats& rs,
                          net::ShardExecutor& exec) {
    (void)now, (void)rs, (void)exec;
  }
  virtual net::SimTime next_lifecycle_due() const {
    return net::EventQueue::kNoEvent;
  }
  virtual void configure_executor(net::ShardExecutor& exec) { (void)exec; }

  void refresh_control(net::SimTime now, RunStats& rs);
  net::SimTime next_control_due() const;

  ShardedServerConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<ControlMessage> control_queue_;  // kept sorted (due, seq)
  /// Every control op already applied, in application order — recorded
  /// when record_control_history_ is set (supervisor mode), replayed into
  /// a rejoining shard so its ticket ring / weather state re-syncs.
  std::vector<ControlMessage> control_history_;
  bool record_control_history_ = false;
  std::uint64_t control_seq_ = 0;
  FleetControl control_;
  bool fleet_degraded_ = false;
  net::SimTime fleet_degraded_since_ = 0;
  std::uint64_t fleet_degraded_transitions_ = 0;
  double fleet_degraded_time_us_ = 0;
  net::SimTime barrier_time_ = 0;
};

}  // namespace mapsec::server
