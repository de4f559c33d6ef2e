// Load-generation harness: seeded client fleets against the serving tier.
//
// Spawns N SessionClients with a configurable arrival process (Poisson
// or uniform) over per-connection lossy channels, places them on either
// one SecureSessionServer event loop or the sharded tier, runs the world
// to quiescence, and aggregates the result: serving rates (full/resumed
// handshakes per second, protected record throughput), latency
// percentiles, cache behaviour, clean-failure accounting, and a
// fleet-wide transcript digest that must be bit-identical for any
// PacketPipeline worker count and any shard count. The report is priced
// against the paper's StrongARM SA-1100 via platform::serving_gap,
// closing the loop to Figure 3: how much appliance-class silicon would
// this measured serving load need?
//
// FleetWorld is the one honest-fleet sim world: LoadGenerator runs it
// bare, chaos::CampaignRunner runs it under a fault plan.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "mapsec/net/channel.hpp"
#include "mapsec/platform/gap.hpp"
#include "mapsec/server/client.hpp"
#include "mapsec/server/server.hpp"
#include "mapsec/server/session_cache.hpp"
#include "mapsec/server/sharded_server.hpp"

namespace mapsec::server {

class ShardSupervisor;

/// Deterministic sub-seed derivation shared by the sim LoadGenerator and
/// the socket fleets. Both bearers must draw identical seed streams —
/// server rng, client engine rng, arrival process, per-client seeds,
/// per-connection channel weather — for their session outcomes to be
/// comparable run-for-run.
std::uint64_t load_sub_seed(std::uint64_t seed, std::uint64_t n);
inline std::uint64_t fleet_server_seed(std::uint64_t seed) {
  return load_sub_seed(seed, 0x5E4);
}
inline std::uint64_t fleet_engine_seed(std::uint64_t seed) {
  return load_sub_seed(seed, 0xE17);
}
inline std::uint64_t fleet_arrival_seed(std::uint64_t seed) {
  return load_sub_seed(seed, 0xA881);
}
inline std::uint64_t fleet_client_seed(std::uint64_t seed, std::size_t i) {
  return load_sub_seed(seed, 0xC11E57 + i);
}
inline std::uint64_t fleet_channel_seed(std::uint64_t seed,
                                        std::uint64_t connect_counter) {
  return load_sub_seed(seed, 0xC4A17 + connect_counter);
}

/// Exponential inter-arrival draw (Poisson process) from a uniform
/// 32-bit sample; +1 keeps ln() off zero.
net::SimTime load_exponential_us(crypto::Rng& rng, double mean_us);

/// Arrival offsets of clients [first, first + count) of a fleet: one
/// inter-arrival draw per client in global id order from the
/// fleet_arrival_seed stream, client 0 at offset 0. Every bearer replays
/// the same schedule, so a block of a multi-process run arrives exactly
/// as the same clients do in the sim fleet.
std::vector<net::SimTime> fleet_arrivals(std::uint64_t seed,
                                         std::size_t first, std::size_t count,
                                         net::SimTime mean_interarrival_us,
                                         bool poisson);

/// SHA-256 over the concatenation of per-client transcript digests, in
/// client order — the determinism witness compared across worker counts
/// and, with the socket bearer, across transports.
crypto::Bytes fold_fleet_digest(const std::vector<crypto::ConstBytes>& lanes);

/// Buffer-arena accounting carried in load reports. For socket-bearer
/// runs, `allocations == reserved` is the zero-steady-state-allocation
/// witness: the record path never grew the pool beyond its pre-reserved
/// working set. Sim-bearer runs leave it zeroed.
struct ArenaUsage {
  std::uint64_t allocations = 0;
  std::uint64_t acquires = 0;
  std::uint64_t recycles = 0;
  std::size_t peak_in_use = 0;
  std::size_t reserved = 0;

  /// Fold another arena's books in (every field adds: a fleet's peak is
  /// bounded by the sum of its shards' peaks).
  ArenaUsage& operator+=(const ArenaUsage& o) {
    allocations += o.allocations;
    acquires += o.acquires;
    recycles += o.recycles;
    peak_in_use += o.peak_in_use;
    reserved += o.reserved;
    return *this;
  }
};

/// What an honest client fleet's session records add up to — the outcome
/// half of every fleet report (sim, campaign and socket).
struct FleetTally {
  std::size_t sessions_attempted = 0;
  std::size_t sessions_completed = 0;
  std::size_t sessions_failed = 0;  // gave up after the retry budget
  std::size_t echo_mismatches = 0;  // session records with a bad echo
  std::size_t connection_attempts = 0;
  std::size_t refused_attempts = 0;  // attempts the server refused
  std::size_t client_reconnects = 0;  // shard-failover reconnects
  std::size_t failover_resumes = 0;   // reconnects that resumed (no full hs)
  /// fold_fleet_digest over every client's transcript digest in client
  /// order — a pure function of the transcripts, independent of backend,
  /// worker count, offload batch width, shard count and bearer.
  crypto::Bytes fleet_digest;
};

FleetTally tally_fleet(
    const std::vector<std::unique_ptr<SessionClient>>& clients);

struct LoadConfig {
  std::size_t num_clients = 100;
  net::SimTime mean_interarrival_us = 1'000;
  bool poisson_arrivals = true;

  /// Channel impairments, applied to both directions of every
  /// connection.
  net::ChannelConfig channel;

  std::uint64_t seed = 0x10ADCAFE;
  std::size_t max_events = 100'000'000;  // runaway guard

  /// 0 = one SecureSessionServer on one event loop. >= 1 = the sharded
  /// tier (ShardedServer) with that many shards, merged at epoch
  /// barriers every `slice_us` of simulated time.
  std::size_t shards = 0;
  net::SimTime slice_us = 1'000;
};

struct LoadReport : FleetTally {
  /// Fleet totals (the per-shard sums on the tier).
  ServerStats server;
  BoundedSessionCache::Stats cache;
  double cache_hit_rate = 0;

  /// Resumption-state footprint at end of run: what the cache pins
  /// (O(cached users)) vs what ticket mode pins (O(key-ring depth);
  /// 0 when ticket mode is off). The scaling argument in two numbers.
  std::size_t cache_state_bytes = 0;
  std::size_t ticket_state_bytes = 0;

  /// Per-shard slices (one entry for the single loop); the fleet totals
  /// above equal their sums.
  std::vector<ShardBreakdown> shards;
  std::uint64_t epochs = 0;           // tier slice barriers crossed
  std::uint64_t control_applied = 0;  // tier control ops delivered
  std::size_t peak_open_connections = 0;  // tier high-water at barriers
  /// Connection books balance (on the tier: per shard AND fleet totals
  /// equal the per-shard sums).
  bool conserved = false;

  double sim_duration_s = 0;
  double full_handshakes_per_s = 0;
  double resumed_handshakes_per_s = 0;
  double sessions_per_s = 0;
  double record_mbps = 0;  // protected application bits per sim second
  double handshake_p50_ms = 0;
  double handshake_p99_ms = 0;
  /// Full-vs-resumed latency split from THIS run. These are the
  /// apples-to-apples comparison: per-second rates depend on the
  /// scenario's offered load and duration, so comparing a full rate from
  /// one scenario against a resumed rate from another says nothing about
  /// handshake cost. Zero when the run had no handshakes of that kind.
  double full_handshake_p50_ms = 0;
  double full_handshake_p99_ms = 0;
  double resumed_handshake_p50_ms = 0;
  double resumed_handshake_p99_ms = 0;

  /// Active crypto backend summary (crypto::dispatch via the engine),
  /// recorded so serving rates carry their hardware context.
  std::string crypto_backend;

  /// Record-path buffer-pool accounting (socket-bearer runs only).
  ArenaUsage arena;

  /// The served load priced on the StrongARM SA-1100, carried by the
  /// tier this run used: its shards, ticket mode and pk offload lanes.
  platform::ServingGapReport gap;
};

/// The serving rates a run's server-side books add up to over
/// `duration_s` of (simulated) time — what platform::serving_gap prices.
platform::ServedLoad served_load(const ServerStats& stats,
                                 std::size_t sessions_completed,
                                 double duration_s);

/// The honest-fleet sim world: a client fleet, its engines, seeds and
/// arrival schedule, and one connect path (channel, accept, link),
/// placed on one of two serving worlds:
///
///   * the single loop (shards == 0): one EventQueue, one cache, one
///     SecureSessionServer drawing from one shared server rng, channels
///     seeded by a global connect counter — the world the process-global
///     faults and the sim-vs-socket comparison need;
///   * the tier (shards >= 1): a ShardedServer (a ShardSupervisor when
///     `supervised`) whose accepts carry a global wire id (client key,
///     attempt ordinal) naming the channel seed, the per-connection
///     server DRBG and the SPI, so every byte is shard-count-invariant.
///
/// Client i gets the same seed and arrival time in both. "World" w below
/// is shard w on the tier and 0 on the single loop.
class FleetWorld {
 public:
  /// `server_rng` replaces the single loop's shared server DRBG (the
  /// campaign's exhaustible one); it must outlive the world. Supervised
  /// tiers bind honest clients for failover-aware routing.
  FleetWorld(const LoadConfig& load, const ServerConfig& server,
             const ClientConfig& client,
             const BoundedSessionCache::Config& cache,
             crypto::Rng* server_rng = nullptr, bool supervised = false);
  ~FleetWorld();

  FleetWorld(const FleetWorld&) = delete;
  FleetWorld& operator=(const FleetWorld&) = delete;

  std::size_t worlds() const { return channels_.size(); }
  net::EventQueue& queue(std::size_t w);
  SecureSessionServer& server(std::size_t w);
  /// The world a connection key currently dials.
  std::size_t world_of(std::uint32_t conn_key) const;
  /// The supervised tier's lifecycle controls; null otherwise.
  ShardSupervisor* supervisor() { return supervisor_; }

  /// Observe every new channel before its first byte (on its world's
  /// thread) — the campaign's bearer weather hooks in here.
  void set_on_channel(
      std::function<void(std::size_t world, net::DuplexChannel&)> fn) {
    on_channel_ = std::move(fn);
  }

  /// The connect path every dialer shares (honest clients and
  /// attackers): a fresh duplex channel on the key's world, the server
  /// side accepted (a dead supervised shard never answers), the client
  /// side returned as a link.
  std::unique_ptr<net::ReliableLink> connect(std::uint32_t conn_key,
                                             const net::LinkConfig& link);

  /// Drive the world to quiescence (or `max_events`).
  ShardedServer::RunStats run(std::size_t max_events);

  const std::vector<std::unique_ptr<SessionClient>>& clients() const {
    return clients_;
  }
  ServerStats stats() const;
  std::vector<ShardBreakdown> breakdown() const;
  bool conserved() const;
  std::size_t open_connections() const;
  /// Latest simulated instant any world reached.
  net::SimTime now() const;

 private:
  // Declaration order doubles as lifetime order: channels outlive the
  // servers and the clients (their links detach from channels on
  // destruction), and the single loop's queue outlives everything.
  LoadConfig load_;
  std::unique_ptr<net::EventQueue> queue_;
  std::unique_ptr<BoundedSessionCache> cache_;
  std::vector<std::vector<std::unique_ptr<net::DuplexChannel>>> channels_;
  std::unique_ptr<crypto::HmacDrbg> own_server_rng_;
  std::unique_ptr<SecureSessionServer> server_;
  std::unique_ptr<ShardedServer> tier_;
  ShardSupervisor* supervisor_ = nullptr;

  std::function<void(std::size_t, net::DuplexChannel&)> on_channel_;
  std::uint64_t connect_counter_ = 0;  // single loop
  /// Tier attempt ordinals: per honest key (a failover migration
  /// continues the count) and per world for other keys (attackers never
  /// migrate). Each entry is touched only by the thread running its world.
  std::vector<std::uint32_t> honest_attempts_;
  std::vector<std::unordered_map<std::uint32_t, std::uint32_t>>
      other_attempts_;

  /// Per-world client-side record engines (read-only to that world's
  /// clients, so no object crosses a shard boundary).
  std::vector<std::unique_ptr<crypto::HmacDrbg>> engine_rngs_;
  std::vector<std::unique_ptr<engine::ProtocolEngine>> engines_;
  std::vector<std::unique_ptr<SessionClient>> clients_;
};

class LoadGenerator {
 public:
  LoadGenerator(LoadConfig load, ServerConfig server,
                ClientConfig client_template,
                BoundedSessionCache::Config cache)
      : load_(std::move(load)),
        server_(std::move(server)),
        client_(std::move(client_template)),
        cache_(cache) {}

  /// Build the world, run it to quiescence, aggregate. Each call is an
  /// independent, fully-seeded run.
  LoadReport run();

 private:
  LoadConfig load_;
  ServerConfig server_;
  ClientConfig client_;
  BoundedSessionCache::Config cache_;
};

}  // namespace mapsec::server
