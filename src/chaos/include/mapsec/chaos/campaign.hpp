// Deterministic chaos campaigns: a full serving world (hardened
// SecureSessionServer + honest client fleet on lossy bearers) plus a
// FaultPlan scheduled on the SAME EventQueue, run to quiescence, then
// judged against the survival invariants:
//
//   * the event loop survives every fault (no crash, no deadlock — a
//     poisoned connection fails alone),
//   * every surviving session's echo stream is byte-exact,
//   * connection accounting conserves:
//       accepted == graceful + idle + failed + refused + open,
//   * all connections are closed once the queue drains,
//   * per-connection memory stayed within its configured bounds,
//   * the same seed gives a bit-identical outcome, with or without
//     injected pipeline and offload stalls (fleet_digest is the witness).
//
// Attack cost is priced through platform::EnergyModel plus the paper's
// RSA figure (42 mJ/KB on a 128-byte RSA-1024 block ≈ 5.25 mJ/op), so a
// handshake flood's battery bill — the Section 3.3 DoS — comes out in
// millijoules per attack byte.
#pragma once

#include <cstdint>
#include <string>

#include "mapsec/chaos/faults.hpp"
#include "mapsec/net/channel.hpp"
#include "mapsec/platform/energy.hpp"
#include "mapsec/server/client.hpp"
#include "mapsec/server/load_gen.hpp"
#include "mapsec/server/server.hpp"
#include "mapsec/server/session_cache.hpp"

namespace mapsec::chaos {

struct CampaignConfig {
  std::uint64_t seed = 0xC405C0DE;

  /// 0 = the classic single-event-loop world. >= 1 targets a supervised
  /// sharded serving tier (server::ShardSupervisor): honest clients bind
  /// for failover-aware routing (attackers keep the stable hash home — a
  /// dead shard just doesn't answer their dial), bearer weather is
  /// scheduled identically on every shard's queue (and rebuilt when a
  /// crashed shard rejoins), TicketKeyRotation goes through the tier's
  /// epoch-barrier control channel, and the Shard* lifecycle faults
  /// (ShardCrash/ShardHang/ShardWorkerStall/ShardOffloadStall) become
  /// available. Faults that flip process-global state (DispatchFailure,
  /// RngExhaustion) or stall with no owning shard (WorkerStall,
  /// OffloadStall) are rejected with std::invalid_argument.
  std::size_t shards = 0;
  net::SimTime slice_us = 1'000;
  /// Wall-clock budget per slice before the hang watchdog fires (only
  /// consulted when the plan contains a ShardHang).
  std::uint64_t watchdog_wall_ms = 250;

  // Honest fleet (same knobs as server::LoadGenerator).
  std::size_t honest_clients = 20;
  net::SimTime mean_interarrival_us = 2'000;
  bool poisson_arrivals = true;

  /// Fair-weather bearer; faults perturb it live.
  net::ChannelConfig channel;

  server::ServerConfig server;
  server::ClientConfig client;
  server::BoundedSessionCache::Config cache;

  FaultPlan faults;

  // Attack-energy pricing (paper Figure 4 constants by default).
  platform::EnergyModel energy = platform::EnergyModel::paper_sensor_node();
  /// 42 mJ/KB RSA overhead on one 128-byte RSA-1024 private operation.
  double rsa_mj_per_op = 5.25;

  std::size_t max_events = 200'000'000;  // runaway guard
};

/// The honest fleet's outcome lives in the FleetTally base: sessions,
/// echo mismatches, refused attempts, failover reconnects/resumes and the
/// fleet_digest — bit-identical across offload worker counts and shard
/// counts for the same seed.
struct CampaignReport : server::FleetTally {
  server::ServerStats server;

  bool drained = false;        // queue emptied within max_events
  std::size_t open_at_end = 0;
  bool conserved = false;      // ServerStats conservation invariant
  double degraded_time_us = 0;
  std::uint64_t degraded_transitions = 0;
  double sim_duration_s = 0;

  // Failover outcome (all zero when the plan has no Shard* lifecycle
  // faults). Blackout percentiles are over per-reconnect samples: shard
  // death -> the victim's session re-established on a survivor.
  std::uint64_t shard_crashes = 0;
  std::uint64_t shard_hangs_detected = 0;
  std::uint64_t shard_drains = 0;
  std::uint64_t shard_rejoins = 0;
  std::uint64_t clients_migrated = 0;
  std::uint64_t connections_killed = 0;
  std::uint64_t missed_heartbeats = 0;
  double blackout_p50_ms = 0;
  double blackout_p99_ms = 0;

  // Attack-side accounting (zero when the plan has no traffic faults).
  std::uint64_t attack_connections = 0;
  std::uint64_t attack_refused = 0;
  std::uint64_t attack_bytes = 0;        // flood + malformed message bytes
  std::uint64_t malformed_messages = 0;

  /// Server-side handshake-layer energy over the WHOLE run (honest and
  /// attack handshakes both; difference two runs to isolate an attack):
  /// rx/tx bytes through the radio model plus RSA private ops.
  double handshake_energy_mj = 0;
  /// handshake_energy_mj per attack byte — the DoS cost asymmetry.
  /// Meaningful for attack-dominated runs; 0 when there was no attack.
  double mj_per_attack_byte = 0;

  /// Empty when every invariant held; otherwise a semicolon-joined list
  /// of what broke (the soak tests print it on failure).
  std::string invariant_failures;
  bool invariants_ok() const { return invariant_failures.empty(); }
};

class CampaignRunner {
 public:
  explicit CampaignRunner(CampaignConfig config)
      : config_(std::move(config)) {}

  /// Build the world, schedule the faults, run to quiescence, judge.
  /// Each call is an independent, fully-seeded run; process-global state
  /// touched by faults (crypto::dispatch) is saved and restored.
  CampaignReport run();

 private:
  CampaignConfig config_;
};

}  // namespace mapsec::chaos
